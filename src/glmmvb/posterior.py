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

import warnings
from dataclasses import dataclass

import numpy as np

from . import engine, matcalc, model, reparam
from .exceptions import OverflowGuardError, ZeroSdError

REJECTION_WARN_FRACTION = 0.01


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


def _global_moments(data, prior, state):
    """Exact mean/sd of the Gaussian global block, with coordinate names."""
    _, mu_glob = state.split(state.mu)
    cov = state.c_global() @ state.c_global().T
    sd = np.sqrt(np.diag(cov))
    names = [f"beta.{nm}" for nm in data.x_names]
    if prior.learns_omega:
        rows, cols = matcalc.tri_indices(data.r)
        names += [f"omega.{i}{j}" for i, j in zip(rows, cols)]
    return names, mu_glob.copy(), sd


def _scales_from_omega(omega, r):
    """Per-draw derived scale parameters from omega draws (B, g2)."""
    gp = model.GlobalParams(np.zeros(omega.shape[:-1] + (0,)), omega, r)
    cov = np.linalg.inv(gp.omega_matrix())
    idx = np.arange(r)
    sig = np.sqrt(cov[..., idx, idx])
    if r == 1:
        return ["sigma"], sig
    cols = [sig[..., k] for k in range(r)]
    names = [f"sigma{k + 1}" for k in range(r)]
    if r == 2:
        names.append("rho")
        cols.append(cov[..., 0, 1] / (sig[..., 0] * sig[..., 1]))
    return names, np.stack(cols, axis=-1)


def factor_scales(factor, p, r, n_draws, seed):
    """Simulated (names, means, sds) of the derived scales under a Gaussian
    factor on theta_G = (beta (p), omega), such as a recombined sharded fit."""
    rng = engine.stream(seed, engine.LANE_SIM, 1)
    L = np.linalg.cholesky(factor.cov)
    draws = factor.mean + rng.standard_normal((n_draws, factor.mean.size)) @ L.T
    names, scales = _scales_from_omega(draws[:, p:], r)
    return names, scales.mean(axis=0), scales.std(axis=0, ddof=1)


def _draw_transforms(data, prior, state, method, s):
    """Transforms for a batch of draws, with per-draw validity flags.

    Invalid draws (overflow or a failed factorization from a pathological
    theta_G draw) are flagged rather than raised, by bisecting the batch.
    """
    theta = state.affine(s)
    b_tilde, glob = state.split(theta)
    gp = engine._global_params(data, prior, glob)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = reparam.build_transforms(data, gp, method)
        return t, b_tilde, gp, np.ones(len(s), bool)
    except engine._RECOVERABLE:
        pass
    # slow path: identify the pathological draws one at a time
    lam = np.zeros((len(s), data.n, data.r))
    L = np.zeros((len(s), data.n, data.r, data.r))
    Lam = np.zeros_like(L)
    base = np.zeros((len(s), data.n, data.J)) if method == "a2" else None
    ok = np.zeros(len(s), bool)
    for i in range(len(s)):
        gpi = model.GlobalParams(gp.beta[i], gp.omega[i], data.r)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ti = reparam.build_transforms(data, gpi, method)
        except engine._RECOVERABLE:
            continue
        lam[i], L[i], Lam[i] = ti.lam, ti.L, ti.Lambda
        if base is not None:
            base[i] = ti.base_eta
        ok[i] = True
    return reparam.Transforms(method, lam, L, Lam, base_eta=base), b_tilde, gp, ok


def simulate_b(data, prior, state, method, n_draws, seed, chunk=2000,
               return_draws=False):
    """Simulation summary of the untransformed random effects.

    Returns a PosteriorSummary; with return_draws=True additionally returns
    a dict of raw draws (b, b_tilde, beta, omega) for diagnostic use.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    b_sum = np.zeros((data.n, data.r))
    b_sq = np.zeros((data.n, data.r))
    scale_chunks = []
    keep = {"b": [], "b_tilde": [], "beta": [], "omega": []} if return_draws else None
    rejected = 0
    done = 0
    ci = 0
    while done < n_draws:
        want = min(chunk, n_draws - done)
        rng = engine.stream(seed, engine.LANE_SIM, ci)
        s = rng.standard_normal((want, state.d))
        transforms, b_tilde, gp, ok = _draw_transforms(data, prior, state, method, s)
        n_ok = int(ok.sum())
        rejected += want - n_ok
        if n_ok == 0:
            ci += 1
            continue
        b = transforms.invert(b_tilde)[ok]
        b_sum += b.sum(axis=0)
        b_sq += (b * b).sum(axis=0)
        scale_names, scales = _scales_from_omega(gp.omega[ok], data.r)
        scale_chunks.append(scales)
        if keep is not None:
            keep["b"].append(b)
            keep["b_tilde"].append(b_tilde[ok])
            keep["beta"].append(gp.beta[ok])
            keep["omega"].append(gp.omega[ok])
        done += n_ok
        ci += 1
        if rejected > 100 * (1 + n_draws):
            raise OverflowGuardError("posterior simulation rejected nearly all draws")
    if rejected > REJECTION_WARN_FRACTION * n_draws:
        warnings.warn(f"posterior simulation rejected {rejected} pathological draws",
                      RuntimeWarning, stacklevel=2)

    b_mean = b_sum / n_draws
    b_var = np.maximum(b_sq / n_draws - b_mean ** 2, 0.0)
    scales = np.concatenate(scale_chunks, axis=0)

    mu_loc, _ = state.split(state.mu)
    c_loc = state.c_local()
    btilde_sd = np.sqrt(np.einsum("nrs,nrs->nr", c_loc, c_loc))

    names, g_mean, g_sd = _global_moments(data, prior, state)
    summary = PosteriorSummary(
        global_names=names, global_mean=g_mean, global_sd=g_sd,
        scale_names=scale_names,
        scale_mean=scales.mean(axis=0), scale_sd=scales.std(axis=0, ddof=1),
        b_mean=b_mean, b_sd=np.sqrt(b_var),
        btilde_mean=mu_loc.copy(), btilde_sd=btilde_sd,
        n_draws=n_draws, n_rejected=rejected)
    if keep is not None:
        draws = {k: np.concatenate(v, axis=0) for k, v in keep.items()}
        return summary, draws
    return summary


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
