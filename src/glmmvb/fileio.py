"""Every file format of the package: dataset and prior inputs, result and
state outputs, and the synthetic datasets of the command line's --simulate.

All outputs are plain structured text (key-value header plus CSV payload)
so that shard results can be recombined offline and traces plotted with
anything. Summary numbers use 9 significant digits; the state file uses
17 significant digits, which round-trips IEEE doubles exactly.
"""

import csv
import operator
import os

import numpy as np

from . import families, matcalc, model
from .engine import VariationalState
from .exceptions import ConfigError, MissingColumnError, NotPositiveDefiniteError, ParseError

SUMMARY_FMT = "%.9g"
STATE_FMT = "%.17g"
# the state file's sections: views of VariationalState.params, in its order
STATE_SECTIONS = ("mu", "cstar_local", "cstar_global")


def _split_cols(spec):
    return [c.strip() for c in spec.split(",") if c.strip()] if spec else []


def load_csv(path, family, group_col, fixed_cols, random_cols,
             response_col="y", trials_col=None, intercept="both"):
    """Read a long-format CSV (one row per observation) into a Dataset.

    Rows are grouped stably by first appearance of the group key; groups
    need not be contiguous. Blank lines are skipped, and errors name the
    physical line of the file. An all-ones intercept column is injected
    into X and/or Z according to `intercept` in {"x", "z", "both", "none"}.
    """
    fam = families.by_name(family) if isinstance(family, str) else family
    if intercept not in ("x", "z", "both", "none"):
        raise ConfigError(f"invalid intercept mode {intercept!r}")
    fixed_cols, random_cols = list(fixed_cols), list(random_cols)
    add_x, add_z = intercept in ("x", "both"), intercept in ("z", "both")
    if not (add_x or fixed_cols) or not (add_z or random_cols):
        raise ConfigError("empty design: need columns or an intercept")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in [group_col, response_col] + fixed_cols + random_cols + [trials_col]:
            if col and col not in header:
                raise MissingColumnError(col)
        # cells[0] is the group key; cells[1:] parse to [y, trials?, fixed..., random...]
        pick = operator.itemgetter(*[header.index(c) for c in [group_col, response_col]
                                     + [trials_col] * bool(trials_col) + fixed_cols + random_cols])
        group_of = {}  # group key -> group index, in order of first appearance
        group, rows, lines = [], [], []
        for row in reader:
            if not row:
                continue
            try:
                cells = pick(row)
                rows.append(list(map(float, cells[1:])))
            except IndexError:
                raise ParseError(reader.line_num, f"expected {len(header)} fields, "
                                 f"got {len(row)}") from None
            except ValueError as err:
                raise ParseError(reader.line_num, str(err)) from None
            group.append(group_of.setdefault(cells[0], len(group_of)))
            lines.append(reader.line_num)
    if not rows:
        raise ParseError(1, "no data rows")
    values = np.array(rows)
    k = 1 + bool(trials_col)  # first design column of `values`

    # scatter row t to (group[t], its rank among its group's rows)
    group = np.array(group)
    n_obs = np.bincount(group)
    order = np.argsort(group, kind="stable")
    pos = np.empty_like(group)
    pos[order] = np.arange(group.size) - np.repeat(np.cumsum(n_obs) - n_obs, n_obs)
    shape = (n_obs.size, int(n_obs.max()))

    def padded(fill, cols):
        out = np.full(shape + cols.shape[1:], fill)
        out[group, pos] = cols
        return out

    ones = np.ones((group.size, 1))
    y = padded(0.0, values[:, 0])
    trials = padded(1.0, values[:, 1]) if trials_col else None
    X = padded(0.0, np.hstack([ones[:, :add_x], values[:, k:k + len(fixed_cols)]]))
    Z = padded(0.0, np.hstack([ones[:, :add_z], values[:, k + len(fixed_cols):]]))
    return model.Dataset(fam, y, X, Z, trials, n_obs,
                         x_names=["intercept"] * add_x + fixed_cols,
                         z_names=["intercept"] * add_z + random_cols,
                         group_labels=list(group_of), lines=padded(0, np.array(lines)))


def read_prior_file(path, r):
    """Read a prior for r random effects from a `key,value[,value...]` file.

    `type` is wishart (the default) or normal-omega, and `sigma_beta2` is
    optional. A Wishart prior needs `nu` and r lines `S` holding the rows of
    its scale matrix; a normal-omega prior needs `mean` (1 or r(r+1)/2
    values) and `sd` (1 value or one per mean). A missing key, a key with no
    value or a wrong size raises ConfigError.
    """
    entries = {}  # key -> the values of each of its lines
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, *vals = [t.strip() for t in line.strip().split(",")]
            if key:
                if not vals:
                    raise ConfigError(f"prior file {path}: key {key!r} has no value")
                entries.setdefault(key, []).append(vals)

    def need(key):
        if key not in entries:
            raise ConfigError(f"prior file {path}: missing key {key!r}")
        try:
            return np.array([[float(v) for v in vals] for vals in entries[key]])
        except ValueError as err:
            raise ConfigError(f"prior file {path}: {key}: {err}") from None

    kind = entries.get("type", [["wishart"]])[-1][0]
    sb2 = need("sigma_beta2")[-1, 0] if "sigma_beta2" in entries else model.DEFAULT_SIGMA_BETA2
    if kind == "wishart":
        S = need("S")
        if S.shape != (r, r):
            raise ConfigError(f"prior file {path}: S must be {r} x {r}")
        try:
            return model.WishartPrior(sb2, need("nu")[-1, 0], S)
        except NotPositiveDefiniteError:
            raise ConfigError(f"prior file {path}: S must be positive definite") from None
    if kind == "normal-omega":
        mean, sd, g2 = need("mean")[-1], need("sd")[-1], matcalc.half_len(r)
        if mean.size not in (1, g2) or sd.size not in (1, mean.size):
            raise ConfigError(f"prior file {path}: mean needs 1 or {g2} values, "
                              "sd 1 or as many as mean")
        return model.NormalOmegaPrior(sb2, mean, sd)
    raise ConfigError(f"unknown prior type {kind!r}")


# ---------------------------------------------------------------------------
# result files


def _write_summary(path, meta, rows):
    """key,value metadata, then one parameter,mean,sd line per row."""
    lines = (["key,value"] + [f"{key},{val}" for key, val in meta] + ["parameter,mean,sd"]
             + [f"{name},{SUMMARY_FMT % m},{SUMMARY_FMT % s}" for name, m, s in rows])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, summary, method, n_iter, wall_time, elbo):
    """Per-parameter mean/sd plus run metadata, in a stable key order."""
    _write_summary(path, [("method", method), ("iterations", n_iter),
                          ("wall_time_s", SUMMARY_FMT % wall_time),
                          ("elbo", SUMMARY_FMT % elbo)],
                   [*zip(summary.global_names, summary.global_mean, summary.global_sd),
                    *zip(summary.scale_names, summary.scale_mean, summary.scale_sd)])


def write_sharded_summary(path, sharded, method, scales):
    """Summary of a sharded fit: the combined factor's moments of theta_G,
    then the derived scales as (names, means, sds)."""
    comb = sharded.combined
    _write_summary(path, [("method", method), ("shards", len(sharded.shard_results))],
                   [*zip(sharded.global_names, comb.mean, np.sqrt(np.diag(comb.cov))),
                    *zip(*scales)])


def write_trace(path, window_means, window):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window,iteration,mean_elbo\n")
        for k, m in enumerate(window_means, start=1):
            fh.write(f"{k},{k * window},{SUMMARY_FMT % m}\n")


def write_subject_diagnostics(path, data, summary):
    cols = [f"btilde_{k}" for k in range(data.r)]
    header = (["subject"] + [f"{c}_mean" for c in cols] + [f"{c}_sd" for c in cols]
              + [f"b_{k}_mean" for k in range(data.r)] + [f"b_{k}_sd" for k in range(data.r)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(data.n):
            vals = (list(summary.btilde_mean[i]) + list(summary.btilde_sd[i])
                    + list(summary.b_mean[i]) + list(summary.b_sd[i]))
            fh.write(",".join([data.group_labels[i]] + [SUMMARY_FMT % v for v in vals]) + "\n")


def write_state(path, state, method, family_name, seed):
    """Serialize (mu, C*) with a dimension header; round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("format,glmmvb-state,1\n")
        fh.write(f"n,{state.n}\nr,{state.r}\ng,{state.g}\n")
        fh.write(f"method,{method}\nfamily,{family_name}\nseed,{seed}\n")
        for name in STATE_SECTIONS:
            fh.write(f"section,{name}\n")
            for row in np.atleast_2d(getattr(state, name)):
                fh.write(",".join(STATE_FMT % v for v in row) + "\n")


def read_state(path):
    """Inverse of write_state; returns (VariationalState, meta dict). Each
    section's rows are read into the state's view of that name; a malformed
    file raises ParseError with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("format,glmmvb-state"):
        raise ParseError(1, "not a glmmvb state file")
    meta = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("section,"):
        key, sep, val = lines[i].partition(",")
        if not sep:
            raise ParseError(i + 1, "expected key,value")
        meta[key] = val
        i += 1
    try:
        n, r, g = (int(meta[key]) for key in "nrg")
    except (KeyError, ValueError) as err:
        raise ParseError(i + 1, f"header above needs integer n, r and g ({err})") from None
    if min(n, r, g) < 1:
        raise ParseError(i + 1, "n, r and g must be positive")
    state = VariationalState(n, r, g)
    for name in STATE_SECTIONS:
        if i >= len(lines) or lines[i] != f"section,{name}":
            raise ParseError(i + 1, f"expected section {name}")
        i += 1
        for row in np.atleast_2d(getattr(state, name)):
            if i >= len(lines):
                raise ParseError(i + 1, f"file ends inside section {name}")
            try:
                values = [float(v) for v in lines[i].split(",")]
            except ValueError:
                raise ParseError(i + 1, f"non-numeric value in section {name}") from None
            if len(values) != row.size:
                raise ParseError(i + 1, f"expected {row.size} values, got {len(values)}")
            row[:] = values
            i += 1
    return state, meta


def write_simulation(directory, scenario, seed, data, truth):
    """Write a simulated dataset as `dataset.csv` (columns group, y, x and,
    for binomial scenarios, the trials m; load_csv reads it back) and its
    generating values as `truth.csv`. Returns the dataset path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "dataset.csv")
    binomial = bool(truth["trials"])
    cols = [data.y, data.X[..., 1]] + [data.trials] * binomial
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "y", "x"] + ["m"] * binomial)
        for i, j in zip(*np.nonzero(data.mask)):
            w.writerow([i + 1] + [SUMMARY_FMT % c[i, j] for c in cols])
    with open(os.path.join(directory, "truth.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("key,value\n")
        fh.write(f"scenario,{scenario}\nseed,{seed}\n")
        fh.write(f"beta0,{truth['beta'][0]}\nbeta1,{truth['beta'][1]}\n")
        fh.write(f"sigma,{truth['sigma']}\nfamily,{truth['family']}\n")
    return path
