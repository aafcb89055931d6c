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


def _scales(gp):
    """Per-draw derived scale parameters (B, len(_scale_names)) from the
    cached Omega of gp, GlobalParams of B draws."""
    r = gp.r
    cov = matcalc.spd_inv(gp.Omega)
    idx = np.arange(r)
    sig = np.sqrt(cov[..., idx, idx])
    if r == 1:
        return sig
    cols = [sig[..., k] for k in range(r)]
    if r == 2:
        cols.append(cov[..., 0, 1] / (sig[..., 0] * sig[..., 1]))
    return np.stack(cols, axis=-1)


def factor_scales(factor, p, r, n_draws, seed):
    """Simulated (names, means, sds) of the derived scales under a Gaussian
    factor on theta_G = (beta (p), omega), such as a recombined sharded fit;
    n_draws is checked by engine.check_draws."""
    engine.check_draws(n_draws)
    rng = engine.stream(seed, engine.LANE_SIM, 1)
    L = matcalc.cholesky(factor.cov)
    draws = factor.mean + rng.standard_normal((n_draws, factor.mean.size)) @ L.T
    gp = model.GlobalParams(draws[:, :p], draws[:, p:], r)
    return (_scale_names(r), *engine.scaled_moments(_scales(gp)))


def _draw_transforms(data, prior, state, method, s, anchor):
    """(b, derived scales) of a block of draws s: the transforms rebuilt
    from each drawn theta_G and anchor (engine.draw, engine.mean_anchor),
    and b = L b~ + lambda."""
    b_tilde, transforms = engine.draw(data, prior, state, method, s, anchor)
    return transforms.invert(b_tilde), _scales(transforms.gp)


def simulate_b(data, prior, state, method, n_draws, seed):
    """Simulation summary (a PosteriorSummary) of the untransformed random
    effects from n_draws accepted draws (engine.accepted_draws); a draw
    whose transforms or derived scales fail is rejected. b and b * b are
    summed over the draws in order, so the block size changes no result."""
    sums = np.zeros((2, data.n, data.r))  # of b and b * b
    scale_blocks = []
    anchor = engine.mean_anchor(data, prior, state, method)
    blocks = engine.accepted_draws(
        state, n_draws, seed, engine.LANE_POSTERIOR, engine.draw_block(data, method),
        lambda s: _draw_transforms(data, prior, state, method, s, anchor))
    for (b, scales), rejected in blocks:
        # numpy adds the rows of an array of 2+ columns in order: no sum depends on the blocks
        moments = np.stack([b, b * b], 1)
        moments[0] += sums
        sums = moments.sum(axis=0)
        scale_blocks.append(scales)

    b_mean = sums[0] / n_draws
    b_var = np.maximum(sums[1] / n_draws - b_mean ** 2, 0.0)
    scale_mean, scale_sd = engine.scaled_moments(np.concatenate(scale_blocks, axis=0))

    mu_loc, mu_glob = state.split(state.mu)
    c_loc, c_glob = state.blocks()
    btilde_sd = np.sqrt((c_loc * c_loc).sum(axis=-1))
    return PosteriorSummary(
        global_names=model.global_names(data, prior), global_mean=mu_glob.copy(),
        global_sd=np.sqrt(np.diag(c_glob @ c_glob.T)),
        scale_names=_scale_names(data.r),
        scale_mean=scale_mean, scale_sd=scale_sd,
        b_mean=b_mean, b_sd=np.sqrt(b_var),
        btilde_mean=mu_loc.copy(), btilde_sd=btilde_sd,
        n_draws=n_draws, n_rejected=rejected)

