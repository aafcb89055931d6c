"""Posterior summaries after fitting.

The variational posterior is Gaussian in the transformed coordinates, so
the untransformed random effects b_i = L_i b~_i + lambda_i are summarized
by simulation: draw theta_G and b~_i from q, rebuild the transforms from
the drawn theta_G (with the same method used in fitting) and map back.
The resulting b_i marginals are not constrained to be Gaussian.

Scale parameters are transformed per draw and then summarized: for r = 1,
sigma = sqrt((Omega^{-1})_11); for r = 2 additionally (sigma_1, sigma_2, rho)
from the 2x2 covariance.
"""

from dataclasses import dataclass

import numpy as np

from . import engine, matcalc, model
from .exceptions import ConfigError, ZeroSdError

SIM_CHUNK = 2000  # draws per chunk


@dataclass
class PosteriorSummary:
    global_names: list
    global_mean: np.ndarray      # (g,)  q-exact moments of (beta, omega)
    global_sd: np.ndarray
    scale_names: list
    scale_mean: np.ndarray       # simulated moments of derived scales
    scale_sd: np.ndarray
    b_mean: np.ndarray           # (n, r) simulated
    b_sd: np.ndarray
    btilde_mean: np.ndarray      # (n, r) exact under q
    btilde_sd: np.ndarray
    n_draws: int
    n_rejected: int


def _scale_names(r):
    """Names of the derived scales of an r x r Omega."""
    if r == 1:
        return ["sigma"]
    return [f"sigma{k + 1}" for k in range(r)] + (["rho"] if r == 2 else [])


def _scales_from_omega(omega, r):
    """Per-draw derived scale parameters from omega draws (B, g2)."""
    gp = model.GlobalParams(np.zeros(omega.shape[:-1] + (0,)), omega, r)
    cov = matcalc.spd_inv(gp.omega_matrix())
    idx = np.arange(r)
    sig = np.sqrt(cov[..., idx, idx])
    if r == 1:
        return _scale_names(r), sig
    cols = [sig[..., k] for k in range(r)]
    if r == 2:
        cols.append(cov[..., 0, 1] / (sig[..., 0] * sig[..., 1]))
    return _scale_names(r), np.stack(cols, axis=-1)


def factor_scales(factor, p, r, n_draws, seed):
    """Simulated (names, means, sds) of the derived scales under a Gaussian
    factor on theta_G = (beta (p), omega), such as a recombined sharded fit;
    n_draws must be at least 2, which an sd needs."""
    if n_draws < 2:
        raise ConfigError("n_draws must be >= 2")
    rng = engine.stream(seed, engine.LANE_SIM, 1)
    L = matcalc.cholesky(factor.cov)
    draws = factor.mean + rng.standard_normal((n_draws, factor.mean.size)) @ L.T
    names, scales = _scales_from_omega(draws[:, p:], r)
    return (names, *engine.scaled_moments(scales))


def _draw_transforms(data, prior, state, method, s, anchor):
    """(b, derived scales) of a chunk of draws s: the transforms rebuilt
    from each drawn theta_G and anchor (engine.draw, engine.mean_anchor),
    and b = L b~ + lambda."""
    b_tilde, transforms = engine.draw(data, prior, state, method, s, anchor)
    return transforms.invert(b_tilde), _scales_from_omega(transforms.gp.omega, data.r)[1]


def simulate_b(data, prior, state, method, n_draws, seed):
    """Simulation summary (a PosteriorSummary) of the untransformed random
    effects from n_draws accepted draws; a pathological draw, whose
    transforms or derived scales fail, is rejected."""
    b_sum = np.zeros((data.n, data.r))
    b_sq = np.zeros((data.n, data.r))
    scale_chunks = []
    anchor = engine.mean_anchor(data, prior, state, method)
    chunks = engine.accepted_draws(
        state, n_draws, seed, engine.LANE_SIM, SIM_CHUNK, engine.draw_block(data),
        lambda s: _draw_transforms(data, prior, state, method, s, anchor))
    for (b, scales), rejected in chunks:
        b_sum += b.sum(axis=0)
        b_sq += (b * b).sum(axis=0)
        scale_chunks.append(scales)

    b_mean = b_sum / n_draws
    b_var = np.maximum(b_sq / n_draws - b_mean ** 2, 0.0)
    scale_mean, scale_sd = engine.scaled_moments(np.concatenate(scale_chunks, axis=0))

    mu_loc, mu_glob = state.split(state.mu)
    c_loc, c_glob = state.blocks()
    btilde_sd = np.sqrt(np.einsum("nrs,nrs->nr", c_loc, c_loc))
    return PosteriorSummary(
        global_names=model.global_names(data, prior), global_mean=mu_glob.copy(),
        global_sd=np.sqrt(np.diag(c_glob @ c_glob.T)),
        scale_names=_scale_names(data.r),
        scale_mean=scale_mean, scale_sd=scale_sd,
        b_mean=b_mean, b_sd=np.sqrt(b_var),
        btilde_mean=mu_loc.copy(), btilde_sd=btilde_sd,
        n_draws=n_draws, n_rejected=rejected)


def compare_metrics(va_means, va_sds, ref_means, ref_sds):
    """Per-subject location/scale comparison ratios against a reference:
    r1 = (mean_va - mean_ref) / sd_va and r2 = sd_ref / sd_va."""
    va_means = np.asarray(va_means, dtype=float)
    va_sds = np.asarray(va_sds, dtype=float)
    ref_means = np.asarray(ref_means, dtype=float)
    ref_sds = np.asarray(ref_sds, dtype=float)
    if np.any(va_sds <= 0):
        raise ZeroSdError("comparison requires positive sds")
    return (va_means - ref_means) / va_sds, ref_sds / va_sds
