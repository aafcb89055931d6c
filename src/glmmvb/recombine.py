"""Divide and recombine for large datasets.

Subjects are partitioned into V shards, each shard is fit independently,
and the Gaussian global posteriors are combined by precision-weighted
aggregation that subtracts the (V-1)-fold over-counted prior:

    Sigma = (sum_v Sigma_v^{-1} - (V-1) Sigma_0^{-1})^{-1}
    mu    = Sigma (sum_v Sigma_v^{-1} mu_v - (V-1) Sigma_0^{-1} mu_0)

The combination assumes a Gaussian prior on the whole theta_G = (beta,
omega), so sharded fits require the normal-omega prior; the Wishart path is
single machine only. Local posteriors stay shard-local and are reported per
shard.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import engine, matcalc, model
from .exceptions import ConfigError, InvalidVError, NotPositiveDefiniteError


@dataclass
class GaussianFactor:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))


@dataclass
class ShardedFitResult:
    combined: GaussianFactor
    shard_results: list          # per-shard FitResult
    shard_indices: list          # per-shard subject index arrays
    global_names: list


def partition(n, V, seed):
    """Random balanced partition of range(n) into V parts (sizes differ by
    at most one), deterministic per seed."""
    if not (isinstance(V, numbers.Integral) and not isinstance(V, bool) and 1 <= V <= n):
        raise InvalidVError(f"need an integer 1 <= V <= n, got V={V!r}, n={n}")
    perm = engine.stream(seed, engine.LANE_PART, 0).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, V)]


def global_factor(state):
    """Gaussian factor of the global block of a fitted state."""
    _, mu = state.split(state.mu)
    C = state.blocks()[1]
    return GaussianFactor(mu, C @ C.T)


def prior_factor(prior, p):
    """The normal prior on theta_G as a GaussianFactor."""
    if not isinstance(prior, model.NormalOmegaPrior):
        raise InvalidVError("sharded fits require the normal-omega prior")
    mean = np.concatenate([np.zeros(p), prior.mean])
    var = np.concatenate([np.full(p, prior.sigma_beta2), prior.var])
    return GaussianFactor(mean, np.diag(var))


def combine(factors, prior):
    """Precision-weighted combination of shard factors against the prior."""
    V = len(factors)
    if V == 1:  # the prior correction vanishes; exact identity
        return GaussianFactor(factors[0].mean.copy(), factors[0].cov.copy())
    prior_prec = matcalc.spd_inv(prior.cov)
    prec = -(V - 1) * prior_prec
    eta = -(V - 1) * (prior_prec @ prior.mean)
    for f in factors:
        fp = matcalc.spd_inv(f.cov)
        prec = prec + fp
        eta = eta + fp @ f.mean
    matcalc.cholesky(prec)  # assembled precision must be SPD
    cov = matcalc.spd_inv(prec)
    return GaussianFactor(cov @ eta, cov)


def fit_sharded(data, prior, config, V, partition_seed=None, workers=1):
    """Fit V shards one after another and combine the global posteriors.

    Shard seeds are derived from (config.seed, shard index); any shard
    failure propagates with its index. workers accepts only 1.
    """
    if isinstance(workers, bool) or not (isinstance(workers, numbers.Integral) and workers == 1):
        raise ConfigError(f"shards fit in the calling process; need workers=1, got {workers!r}")
    prior_f = prior_factor(prior, data.p)  # rejects a non-Gaussian prior before any fit
    parts = partition(data.n, V, config.seed if partition_seed is None else partition_seed)
    results = []
    for v, idx in enumerate(parts):
        try:
            results.append(engine.fit(data.subset(idx), prior,
                                      replace(config, seed=engine.child_seed(config.seed, v))))
        except Exception as err:
            # prefix in place: rebuilding would call constructors with other
            # signatures
            err.args = (f"shard {v}: {err}",)
            raise
    try:
        combined = combine([global_factor(r.state) for r in results], prior_f)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            "combined precision is not positive definite "
            "(antagonistic shards or too-strong prior subtraction)") from None
    return ShardedFitResult(combined, results, parts, model.global_names(data, prior))
