"""Every file format of the package: dataset and prior inputs, result and
state outputs, and the synthetic datasets of the command line's --simulate.

All outputs are plain structured text (key-value header plus CSV payload)
so that shard results can be recombined offline and traces plotted with
anything. Summary numbers use 9 significant digits; the state file uses
17 significant digits, which round-trips IEEE doubles exactly. Every
file is written by one function, _write_lines: UTF-8, each line ending in
a line feed; load_csv reads line feeds and CR LF alike.
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
# the keys of a prior file of each type, besides `type` and `sigma_beta2`
PRIOR_KEYS = {"wishart": {"nu", "S"}, "normal-omega": {"mean", "sd"}}


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

    n_obs, pad = model._scatter(np.array(group))
    ones = np.ones((len(rows), 1))
    y = pad(0.0, values[:, 0])
    trials = pad(1.0, values[:, 1]) if trials_col else None
    X = pad(0.0, np.hstack([ones[:, :add_x], values[:, k:k + len(fixed_cols)]]))
    Z = pad(0.0, np.hstack([ones[:, :add_z], values[:, k + len(fixed_cols):]]))
    return model.Dataset(fam, y, X, Z, trials, n_obs,
                         x_names=["intercept"] * add_x + fixed_cols,
                         z_names=["intercept"] * add_z + random_cols,
                         group_labels=list(group_of), lines=pad(0, np.array(lines)))


def read_prior_file(path, r):
    """Read a prior for r random effects from a `key,value[,value...]` file.

    `type` is wishart (the default) or normal-omega, and `sigma_beta2` is
    optional. A Wishart prior needs `nu` and r lines `S` holding the rows of
    its scale matrix; a normal-omega prior needs `mean` (1 or r(r+1)/2
    values) and `sd` (1 value or one per mean); only `S` takes more than one
    line, and `type`, `nu` and `sigma_beta2` take one value. A missing key, a
    key the type does not take, a key with no value, a repeated key or a
    wrong size raises ConfigError.
    """
    entries = {}  # key -> the values of each of its lines
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, *vals = [t.strip() for t in line.strip().split(",")]
            if key:
                if not vals:
                    raise ConfigError(f"prior file {path}: key {key!r} has no value")
                if key in entries and key != "S":
                    raise ConfigError(f"prior file {path}: key {key!r} is on more than one line")
                if key in ("type", "nu", "sigma_beta2") and len(vals) != 1:
                    raise ConfigError(f"prior file {path}: key {key!r} takes one value")
                entries.setdefault(key, []).append(vals)

    def need(key):
        if key not in entries:
            raise ConfigError(f"prior file {path}: missing key {key!r}")
        try:
            return np.array([[float(v) for v in vals] for vals in entries[key]])
        except ValueError as err:
            raise ConfigError(f"prior file {path}: {key}: {err}") from None

    kind = entries.get("type", [["wishart"]])[0][0]
    if kind not in PRIOR_KEYS:
        raise ConfigError(f"unknown prior type {kind!r}")
    unknown = sorted(set(entries) - PRIOR_KEYS[kind] - {"type", "sigma_beta2"})
    if unknown:
        raise ConfigError(f"prior file {path}: unknown key {unknown[0]!r} for a {kind} prior")
    sb2 = need("sigma_beta2")[0, 0] if "sigma_beta2" in entries else model.DEFAULT_SIGMA_BETA2
    if kind == "wishart":
        S = need("S")
        if S.shape != (r, r):
            raise ConfigError(f"prior file {path}: S must be {r} x {r}")
        try:
            return model.WishartPrior(sb2, need("nu")[0, 0], S)
        except NotPositiveDefiniteError:
            raise ConfigError(f"prior file {path}: S must be positive definite") from None
    mean, sd, g2 = need("mean")[0], need("sd")[0], matcalc.half_len(r)
    if mean.size not in (1, g2) or sd.size not in (1, mean.size):
        raise ConfigError(f"prior file {path}: mean needs 1 or {g2} values, "
                          "sd 1 or as many as mean")
    return model.NormalOmegaPrior(sb2, np.broadcast_to(mean, g2), sd)


# ---------------------------------------------------------------------------
# result files


def _write_lines(path, lines):
    """Write lines to path in UTF-8, each ending in a line feed: the package's one file writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_summary(path, meta, rows):
    """key,value metadata, then one parameter,mean,sd line per row."""
    _write_lines(path, ["key,value", *(f"{key},{val}" for key, val in meta), "parameter,mean,sd",
                        *(f"{name},{SUMMARY_FMT % m},{SUMMARY_FMT % s}" for name, m, s in rows)])


def write_summary(path, summary, method, n_iter, wall_time, elbo, converged=None,
                  start_kind=None):
    """Per-parameter mean/sd plus run metadata, in a stable key order: then
    FitResult's converged and start_kind, as rows `converged` and `start`,
    when given."""
    fit_rows = [(key, val) for key, val in (("converged", converged), ("start", start_kind))
                if val is not None]
    _write_summary(path, [("method", method), ("iterations", n_iter),
                          ("wall_time_s", SUMMARY_FMT % wall_time),
                          ("elbo", SUMMARY_FMT % elbo), *fit_rows],
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
    _write_lines(path, ["window,iteration,mean_elbo", *(
        f"{k},{k * window},{SUMMARY_FMT % m}" for k, m in enumerate(window_means, start=1))])


def write_subject_diagnostics(path, data, summary):
    header = ["subject"] + [f"{c}_{k}_{s}" for c in ("btilde", "b") for s in ("mean", "sd")
                            for k in range(data.r)]
    rows = np.hstack([summary.btilde_mean, summary.btilde_sd, summary.b_mean, summary.b_sd])
    _write_lines(path, [",".join(header), *(",".join([label, *(SUMMARY_FMT % v for v in row)])
                                            for label, row in zip(data.group_labels, rows))])


def write_state(path, state, method, family_name, seed, converged=None):
    """Serialize (mu, C*) with a dimension header, which ends with the
    fit's `converged` when given; round-trips bit-exactly."""
    lines = ["format,glmmvb-state,1", f"n,{state.n}", f"r,{state.r}", f"g,{state.g}",
             f"method,{method}", f"family,{family_name}", f"seed,{seed}"]
    lines += [f"converged,{converged}"] * (converged is not None)
    for name in STATE_SECTIONS:
        lines.append(f"section,{name}")
        lines += [",".join(STATE_FMT % v for v in row)
                  for row in np.atleast_2d(getattr(state, name))]
    _write_lines(path, lines)


def read_state(path):
    """Inverse of write_state; returns (VariationalState, meta dict). Each
    section's rows are read into the state's view of that name, and only
    blank lines may follow the last; a malformed file, or a header key given
    twice, raises ParseError with its line number."""
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
        if key in meta:
            raise ParseError(i + 1, f"repeated header key {key!r}")
        meta[key] = val
        i += 1
    try:
        n, r, g = (int(meta[key]) for key in "nrg")
    except (KeyError, ValueError) as err:
        raise ParseError(i + 1, f"header above needs integer n, r and g ({err})") from None
    if n < 0 or min(r, g) < 1:
        raise ParseError(i + 1, "n must be non-negative, r and g positive")
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
    for k in range(i, len(lines)):
        if lines[k].strip():
            raise ParseError(k + 1, "unexpected line after the last section")
    return state, meta


def write_simulation(directory, scenario, seed, data, truth):
    """Write a simulated dataset as `dataset.csv` (columns group, y, x and,
    for binomial scenarios, the trials m; load_csv reads it back) and its
    generating values as `truth.csv`. Returns the dataset path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "dataset.csv")
    binomial = bool(truth["trials"])
    cols = [data.y, data.X[..., 1]] + [data.trials] * binomial
    _write_lines(path, [",".join(["group", "y", "x"] + ["m"] * binomial), *(
        ",".join([str(i + 1)] + [SUMMARY_FMT % c[i, j] for c in cols])
        for i, j in zip(*np.nonzero(data.mask)))])
    _write_lines(os.path.join(directory, "truth.csv"), [
        "key,value", f"scenario,{scenario}", f"seed,{seed}", f"beta0,{truth['beta'][0]}",
        f"beta1,{truth['beta'][1]}", f"sigma,{truth['sigma']}", f"family,{truth['family']}"])
    return path
