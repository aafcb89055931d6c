"""Posterior summaries after fitting.

q's C has no block between b~_i and theta_G, so given theta_G the
untransformed random effects b_i = L_i b~_i + lambda_i are Gaussian, with
the transforms rebuilt at theta_G by the fit's method. b's mean and sd are
taken over theta_G by a degree-5 cubature rule; its marginals are mixtures,
not constrained to be Gaussian. The derived scales, functions of omega
alone, are summarized over Monte Carlo draws of omega, for a single fit as
for a recombined sharded one: for r = 1, sigma = sqrt((Omega^{-1})_11);
for r = 2 additionally (sigma_1, sigma_2, rho) from the 2x2 covariance.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import engine, matcalc, model
from .exceptions import RECOVERABLE, OverflowGuardError


@dataclass
class PosteriorSummary:
    global_names: list
    global_mean: np.ndarray      # (g,)  q-exact moments of (beta, omega)
    global_sd: np.ndarray
    scale_names: list
    scale_mean: np.ndarray       # Monte Carlo moments of derived scales over omega
    scale_sd: np.ndarray
    b_mean: np.ndarray           # (n, r) by the cubature rule over theta_G
    b_sd: np.ndarray
    btilde_mean: np.ndarray      # (n, r) exact under q
    btilde_sd: np.ndarray
    n_draws: int                 # of the scales, and of b's Monte Carlo fallback
    n_rejected: int              # draws the scales and the fallback rejected


def _scale_names(r):
    """Names of the derived scales of an r x r Omega."""
    if r == 1:
        return ["sigma"]
    return [f"sigma{k + 1}" for k in range(r)] + (["rho"] if r == 2 else [])


def _scales(gp):
    """Per-draw derived scale parameters (B, len(_scale_names)) from the
    cached Omega of gp, GlobalParams of B draws (only omega is read)."""
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


def _scale_moments(r, mean, factor, n_draws, seed):
    """(means, sds, draws rejected) of the derived scales over n_draws
    accepted draws omega = factor z + mean, factor lower (g2, g2) and z g2
    normals of stream(seed, LANE_SIM, 1) (engine.accepted_draws)."""
    def evaluate(z):
        omega = matcalc.matvec(factor, z) + mean
        return (_scales(model.GlobalParams(omega[:, :0], omega, r)),)

    blocks = list(engine.accepted_draws(None, n_draws, seed, engine.LANE_SIM,
                                        engine.MAX_DRAW_BLOCK, evaluate, columns=mean.size, t=1))
    return (*engine.scaled_moments(np.concatenate([out[0] for out, _ in blocks])), blocks[-1][1])


def factor_scales(factor, p, r, n_draws, seed):
    """Simulated (names, means, sds) of the derived scales under a Gaussian
    factor on theta_G = (beta (p), omega), such as a recombined sharded fit,
    SPD as a whole: omega is drawn from its marginal N(mean[p:], cov[p:, p:])."""
    engine.check_draws(n_draws)
    matcalc.cholesky(factor.cov)
    means, sds, _ = _scale_moments(r, factor.mean[p:], matcalc.cholesky(factor.cov[p:, p:]),
                                   n_draws, seed)
    return _scale_names(r), means, sds


def _cubature_rule(g):
    """(points (2 g^2 + 1, g), weights) of Stroud's degree-5 rule for N(0, I_g):
    the centre, +-sqrt(g + 2) e_i and sqrt((g + 2) / 2)(+-e_i +- e_j), i < j."""
    eye, (i, j) = np.eye(g), np.triu_indices(g, 1)
    axis = np.sqrt(g + 2.0) * eye
    pair = np.sqrt((g + 2.0) / 2.0) * np.concatenate([eye[i] + eye[j], eye[i] - eye[j]])
    weights = np.concatenate([[2.0 / (g + 2)], np.full(2 * g, (4.0 - g) / (2 * (g + 2) ** 2)),
                              np.full(2 * len(pair), 1.0 / (g + 2) ** 2)])
    return np.concatenate([np.zeros((1, g)), axis, -axis, pair, -pair]), weights


def _draw_transforms(data, prior, state, method, z, anchor, blocks):
    """(means, variances) (k, n, r) of b_i | theta_G ~ N(L_i mu_i + lambda_i,
    L_i C_i C_i' L_i') at theta_G = C_G z + mu_G, k rows z: engine.draw from
    anchor, s's local part 0. Raises OverflowGuardError if one is not finite."""
    s = np.zeros((len(z), state.d))
    s[:, state.d - state.g:] = z
    b_tilde, transforms = engine.draw(data, prior, state, method, s, anchor, blocks)
    lc = matcalc.matvec(transforms.L[..., None, :, :], np.swapaxes(blocks[0], -1, -2))
    mean, var = transforms.invert(b_tilde), (lc * lc).sum(axis=-2)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise OverflowGuardError("non-finite moments of b")
    return mean, var


def _mixture_moments(shape, blocks):
    """(mean, sd, draws rejected) of a weighted mixture of Gaussians from blocks of
    ((means, variances, weights), rejected so far); the variance is clipped at 0."""
    sums, rejected = np.zeros((2,) + shape), 0
    for (mean, var, w), rejected in blocks:
        moments = w[:, None, None, None] * np.stack([mean, var + mean * mean], 1)
        # numpy adds the rows of an array of 2+ columns in order: no sum depends on the blocks
        moments[0] += sums
        sums = moments.sum(axis=0)
    return sums[0], np.sqrt(np.maximum(sums[1] - sums[0] ** 2, 0.0)), rejected


def simulate_b(data, prior, state, method, n_draws, seed):
    """PosteriorSummary: b's moments by _cubature_rule over theta_G ~ N(mu_G,
    C_G C_G'), in blocks of engine.draw_block points, or, with a RuntimeWarning
    if a point's build fails recoverably, by n_draws accepted draws of theta_G
    (LANE_POSTERIOR); the scales by factor_scales' path (_scale_moments) over
    omega ~ N(mu_G[p:], C_omega C_omega'), C_omega = C_G[p:], or a fixed omega."""
    engine.check_draws(n_draws)
    (mu_loc, mu_glob), (c_loc, c_glob) = state.split(state.mu), state.blocks()
    anchor, size = engine.mean_anchor(data, prior, state, method), engine.draw_block(data)

    def evaluate(z):
        return _draw_transforms(data, prior, state, method, z, anchor, (c_loc, c_glob))

    points, weights = _cubature_rule(state.g)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            b_mean, b_sd, rejected = _mixture_moments((data.n, data.r), (
                ((*evaluate(points[i:i + size]), weights[i:i + size]), 0)
                for i in range(0, len(points), size)))
    except RECOVERABLE as err:
        b_mean, b_sd, rejected = _mixture_moments((data.n, data.r), engine.accepted_draws(
            state, n_draws, seed, engine.LANE_POSTERIOR, size,
            lambda z: (*evaluate(z), np.full(len(z), 1.0 / n_draws)), columns=state.g))
        warnings.warn(f"the cubature rule over theta_G rejected a point ({err}); b's moments "
                      f"are from {n_draws} Monte Carlo draws", RuntimeWarning, stacklevel=2)
    if prior.learns_omega:
        c_omega = c_glob[data.p:]
        omega, factor = mu_glob[data.p:], matcalc.cholesky(c_omega @ c_omega.T)
    else:
        omega, factor = np.broadcast_to(prior.omega, (data.g2,)), np.zeros((data.g2, data.g2))
    scale_mean, scale_sd, scale_rejected = _scale_moments(data.r, omega, factor, n_draws, seed)

    return PosteriorSummary(
        global_names=model.global_names(data, prior), global_mean=mu_glob.copy(),
        global_sd=np.sqrt(np.diag(c_glob @ c_glob.T)), scale_names=_scale_names(data.r),
        scale_mean=scale_mean, scale_sd=scale_sd, b_mean=b_mean, b_sd=b_sd,
        btilde_mean=mu_loc.copy(), btilde_sd=np.sqrt((c_loc * c_loc).sum(axis=-1)),
        n_draws=n_draws, n_rejected=rejected + scale_rejected)

