"""The benchmark's workloads: inputs, the library calls users make, and checks.

Each workload calls only public library functions, through module
attributes (``engine.fit``, ``posterior.simulate_b``, ...) so that the
timing wrappers see every call. A workload has four steps: set the inputs
up, fit, simulate the posterior, and finish (write files where the CLI
would, and check the outputs against references fixed here).
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from glmmvb import datasets, engine, fileio, model, posterior, recombine, simulate

# c05 reference column for seeds (beta.intercept, beta.seed, beta.extract,
# sigma) and its tolerances.
SEEDS_REF_MEAN = np.array([-0.39, -0.36, 1.03, 0.35])
SEEDS_REF_SD = np.array([0.18, 0.23, 0.22, 0.11])
SEEDS_TOL_MEAN, SEEDS_TOL_SD = 0.04, 0.03
SEEDS_DRAWS = 50_000

# c06 targets for the epilepsy Model II scales (sigma1, sigma2, rho).
EPI2_REF_SCALES = np.array([0.52, 0.77, 0.01])
EPI2_TOL = 0.05
EPI2_DRAWS = 2_000

# Generating truth of the bernoulli-i scenario: beta, and omega = -log(sigma).
SHARD_N, SHARD_V = 300, 3
SHARD_TRUTH = np.array([-2.5, 4.5, -math.log(1.5)])
SHARD_Z_MAX = 3.0
SHARD_SIM_DRAWS = 2_000


class Abort(Exception):
    """An operation raised; the run stops and reports what it has."""


class Checks:
    """Operations a run attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def attempt(self, name, fn, *args):
        """Call fn; a raise is one failed operation and aborts the run."""
        try:
            return fn(*args)
        except Exception as err:  # any raise is a failed operation to report
            self.op(name, False, f"raised {type(err).__name__}: {err}")
            raise Abort from err


# ---------------------------------------------------------------------------
# seeds-a1


def seeds_setup(seeds):
    data = fileio.load_csv(datasets.fixture_path("seeds.csv"), "binomial", "plate",
                           ["seed", "extract"], [], response_col="germinated",
                           trials_col="total", intercept="both")
    return data, model.default_prior(data)


def seeds_fit(inputs, seeds):
    data, prior = inputs
    res = engine.fit(data, prior, engine.FitConfig(method="a1", seed=seeds["fit"]))
    return res, [res]


def seeds_simulate(inputs, seeds, res):
    data, prior = inputs
    return [posterior.simulate_b(data, prior, res.state, "a1", SEEDS_DRAWS, seeds["sim"])]


def seeds_finish(inputs, seeds, res, sims, checks, scratch):
    data, _ = inputs
    summ = sims[0]
    state_path = os.path.join(scratch, "state.txt")
    fileio.write_summary(os.path.join(scratch, "summary.csv"), summ, "a1",
                         res.n_iter, res.wall_time, res.elbo)
    fileio.write_trace(os.path.join(scratch, "trace.csv"), res.window_means,
                       res.config.window)
    fileio.write_state(state_path, res.state, "a1", data.family.name, seeds["fit"])
    fileio.write_subject_diagnostics(os.path.join(scratch, "subjects.csv"), data, summ)
    checks.op("write", True)

    means = np.concatenate([summ.global_mean[:3], summ.scale_mean])
    sds = np.concatenate([summ.global_sd[:3], summ.scale_sd])
    err = float(np.abs(means - SEEDS_REF_MEAN).max())
    sd_err = float(np.abs(sds - SEEDS_REF_SD).max())
    checks.op("converged", res.converged, f"stopped at max_iter {res.n_iter}")
    checks.op("means", err < SEEDS_TOL_MEAN, f"max error {err:.4f}")
    checks.op("sds", sd_err < SEEDS_TOL_SD, f"max error {sd_err:.4f}")
    state, _ = fileio.read_state(state_path)
    checks.op("state_roundtrip", np.array_equal(state.mu, res.state.mu)
              and np.array_equal(state.cstar_local, res.state.cstar_local),
              "state file does not reproduce the fitted state")
    return err


# ---------------------------------------------------------------------------
# epilepsy2-a2


def epilepsy2_setup(seeds):
    data = datasets.epilepsy_dataset("II")
    return data, model.default_prior(data)


def epilepsy2_fit(inputs, seeds):
    data, prior = inputs
    res = engine.fit(data, prior, engine.FitConfig(method="a2", seed=seeds["fit"]))
    return res, [res]


def epilepsy2_simulate(inputs, seeds, res):
    data, prior = inputs
    return [posterior.simulate_b(data, prior, res.state, "a2", EPI2_DRAWS, seeds["sim"])]


def epilepsy2_finish(inputs, seeds, res, sims, checks, scratch):
    scales = sims[0].scale_mean
    err = float(np.abs(scales - EPI2_REF_SCALES).max())
    checks.op("converged", res.converged, f"stopped at max_iter {res.n_iter}")
    checks.op("scales", err < EPI2_TOL, f"scales {np.round(scales, 3).tolist()}")
    return err


# ---------------------------------------------------------------------------
# bernoulli-shard


def shard_setup(seeds):
    data, _ = simulate.simulate_dataset("bernoulli-i", seed=seeds["data"], n=SHARD_N)
    return data, model.normal_omega_prior(data.r)


def shard_fit(inputs, seeds):
    data, prior = inputs
    cfg = engine.FitConfig(method="a1", seed=seeds["fit"], final_elbo_draws=200)
    sharded = recombine.fit_sharded(data, prior, cfg, V=SHARD_V,
                                    partition_seed=seeds["partition"], workers=1)
    return sharded, sharded.shard_results


def shard_simulate(inputs, seeds, sharded):
    """Shard-local posteriors stay with their shards; simulate each one."""
    data, prior = inputs
    return [posterior.simulate_b(data.subset(idx), prior, res.state, "a1",
                                 SHARD_SIM_DRAWS, seeds["sim"] + v)
            for v, (res, idx) in enumerate(zip(sharded.shard_results, sharded.shard_indices))]


def shard_finish(inputs, seeds, sharded, sims, checks, scratch):
    comb = sharded.combined
    for v, res in enumerate(sharded.shard_results):
        checks.op(f"converged{v}", res.converged, f"shard {v} stopped at max_iter")
    try:
        np.linalg.cholesky(np.linalg.inv(comb.cov))
        spd = True
    except np.linalg.LinAlgError:
        spd = False
    checks.op("precision_spd", spd, "combined precision has no Cholesky factor")
    z = np.abs(comb.mean[:2] - SHARD_TRUTH[:2]) / np.sqrt(np.diag(comb.cov))[:2]
    checks.op("beta", bool(np.all(z < SHARD_Z_MAX)), f"|z| = {np.round(z, 2).tolist()}")
    return float(np.abs(comb.mean - SHARD_TRUTH).max())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload and its seeds.

    `fixed` seeds stay the same in every run: the fit seed and the shard
    partition seed, each of which moves the iteration count by whole
    1,000-step windows, and the seed of a simulated dataset. `defaults`
    are the input seeds used without --seed; with --seed each is derived
    from (workload, role, seed) by a hash the package never sees.
    """

    name: str
    fixed: dict       # role -> seed in every run
    defaults: dict    # role -> seed when no --seed is given
    setup: object     # seeds -> inputs
    fit: object       # (inputs, seeds) -> (fitted, [FitResult per fit])
    simulate: object  # (inputs, seeds, fitted) -> [PosteriorSummary]
    finish: object    # (inputs, seeds, fitted, sims, Checks, scratch dir) -> global error

    def seeds(self, seed):
        out = dict(self.defaults)
        if seed is not None:
            for role in self.defaults:
                digest = hashlib.sha256(f"{self.name}/{role}/{seed}".encode()).digest()
                out[role] = int.from_bytes(digest[:4], "little") & 0x7FFFFFFF
        return {**out, **self.fixed}


WORKLOADS = {w.name: w for w in (
    Workload("seeds-a1", {"fit": 1}, {"sim": 1},
             seeds_setup, seeds_fit, seeds_simulate, seeds_finish),
    Workload("epilepsy2-a2", {"fit": 1}, {"sim": 1},
             epilepsy2_setup, epilepsy2_fit, epilepsy2_simulate, epilepsy2_finish),
    Workload("bernoulli-shard", {"fit": 5, "data": 77, "partition": 1000}, {"sim": 1},
             shard_setup, shard_fit, shard_simulate, shard_finish),
)}
