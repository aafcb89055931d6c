"""Reference implementations that only the tests use.

A unit-variance Gaussian family and a prior with a known omega, under
which conditional posteriors are exactly Gaussian (the closed-form
exactness oracles); matrix-calculus operators (applied through index
maps, not materialized matrices), the Cholesky directional derivative, a
domain-checked digamma, per-subject and per-observation quantities the
fitted path never forms separately, the variational log density, the
forward transform b~ = L^{-1}(b - lambda), the C blocks, log|C| and L2
estimator built block by block, as references for the fit's position map
(engine.cstar_layout), the L1 and L3 gradient estimators that the fit's L2
is compared against, the straightforward a2
mode search, the tally of a2 searches from far-off predicted starts, the
pooled-GLM IRLS under a flat prior, written without the ridge terms, and
the exact log p(y, theta_G) of the unit-variance Gaussian model.
"""

import collections
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.special as sc
import scipy.stats

from glmmvb import engine, families, gradients, matcalc, model, reparam
from glmmvb.exceptions import (
    RECOVERABLE,
    DomainError,
    IrlsDivergedError,
    ModeSearchFailedError,
    RankDeficientError,
)


class GaussianUnit(families.Family):
    """y ~ N(eta, 1) with h(eta) = eta^2/2: conditional posteriors are
    exactly Gaussian, so the closed-form linear-mixed-model transform is an
    exactness oracle."""

    name = "gaussian-unit"

    def derivs(self, eta, trials, k):
        return (0.5 * eta * eta, eta, np.ones_like(eta))[:k + 1]

    def h3_from_h2(self, eta, h2):
        return np.zeros_like(h2)

    def eta_hat_reg(self, y, trials):
        return np.asarray(y, dtype=float)

    def validate(self, y, trials, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y)
        if np.any(bad):
            self._bad(bad, lines, "expected a finite real")


GAUSSIAN_UNIT = GaussianUnit()


def family(name):
    """The package family of that name, or the Gaussian oracle family."""
    return GAUSSIAN_UNIT if name == GAUSSIAN_UNIT.name else families.by_name(name)


@dataclass
class KnownOmega:
    """Degenerate prior holding omega fixed; omega is not a variational
    variable. Realizes conjugate test models with a known random-effects
    precision."""

    sigma_beta2: float
    omega: np.ndarray
    learns_omega: bool = field(default=False, init=False)

    def __post_init__(self):
        model._check_sigma_beta2(self.sigma_beta2)
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        self.g2 = self.omega.size

    def log_omega(self, gp):
        return np.zeros(gp.omega.shape[:-1])

    def grad_omega(self, gp):
        return np.zeros_like(gp.omega)


@lru_cache(maxsize=None)
def _comm_perm(r):
    # vec(A^T)[i + j*r] = vec(A)[j + i*r]
    i, j = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    perm = (j + i * r).ravel(order="F")
    perm.setflags(write=False)
    return perm


def vec(a):
    """Stack the columns of the trailing square matrix into a vector."""
    a = np.asarray(a, dtype=float)
    r = a.shape[-1]
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (r * r,))


def elim_apply(x, r):
    """Apply the elimination map: elim_apply(vec(A), r) == halfvec(A)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != r * r:
        raise ValueError(f"expected trailing length {r * r}, got {x.shape[-1]}")
    rows, cols = matcalc.tri_indices(r)
    return x[..., rows + cols * r]


def dup_apply(h, r=None):
    """Apply the duplication map: dup_apply(halfvec(A)) == vec(A) for symmetric A."""
    h = np.asarray(h, dtype=float)
    if r is None:
        r = int(round((np.sqrt(8 * h.shape[-1] + 1) - 1) / 2))
    if h.shape[-1] != matcalc.half_len(r):
        raise ValueError(f"expected trailing length {matcalc.half_len(r)}, got {h.shape[-1]}")
    rows, cols = matcalc.tri_indices(r)
    out = np.zeros(h.shape[:-1] + (r * r,), dtype=float)
    out[..., rows + cols * r] = h
    out[..., cols + rows * r] = h
    return out


def comm_apply(x, r):
    """Apply the commutation map: comm_apply(vec(A), r) == vec(A^T)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != r * r:
        raise ValueError(f"expected trailing length {r * r}, got {x.shape[-1]}")
    return x[..., _comm_perm(r)]


def sym_apply(x, r):
    """Apply the symmetrizer map: sym_apply(vec(A), r) == vec((A + A^T)/2)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + comm_apply(x, r))


def dg(a):
    """Diagonal matrix obtained by zeroing the off-diagonal entries of A."""
    a = np.asarray(a, dtype=float)
    r = a.shape[-1]
    out = np.zeros_like(a)
    idx = np.arange(r)
    out[..., idx, idx] = a[..., idx, idx]
    return out


def tri_lower(a):
    """Lower-triangular matrix obtained by zeroing the superdiagonal of A."""
    return np.tril(np.asarray(a, dtype=float))


def k_op(a):
    """k(A) = lower-triangle(A) - diag(A)/2."""
    return tri_lower(a) - 0.5 * dg(a)


def chol_diff(L, dS):
    """Directional derivative of the Cholesky factor.

    Given L with L L^T = S and a symmetric perturbation dS, returns dL such
    that dL L^T + L dL^T = dS, via dL = L k(L^{-1} dS L^{-T}).
    """
    L = np.asarray(L, dtype=float)
    dS = np.asarray(dS, dtype=float)
    t = np.linalg.solve(L, dS)
    a = np.linalg.solve(L, np.swapaxes(t, -1, -2))
    a = np.swapaxes(a, -1, -2)
    return L @ k_op(a)


def digamma(x):
    """Digamma function, restricted to positive arguments."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("digamma requires x > 0")
    return sc.digamma(x)


def eta_hat_ml(family, y, trials=None):
    """Per-observation maximum-likelihood natural parameter; NaN where it is
    undefined (on the support boundary)."""
    y = np.asarray(y, dtype=float)
    if family.name == "gaussian-unit":
        return y
    if family.name == "poisson":
        with np.errstate(divide="ignore"):
            return np.where(y > 0, np.log(np.where(y > 0, y, 1.0)), np.nan)
    m = 1.0 if trials is None else np.asarray(trials, dtype=float)  # binomial and bernoulli
    interior = (y > 0) & (y < m)
    frac = np.where(interior, y / m, 0.5)
    return np.where(interior, sc.logit(frac), np.nan)


def subject_grad_omega(gp, b):
    """Per-subject d/d omega of log p(y_i, b_i | theta_G): D^W v(W^{-T} - b b^T W)."""
    bb = b[..., :, None] * b[..., None, :]  # (..., n, r, r)
    raw = gp.W_inv_t[..., None, :, :] - bb @ gp.W[..., None, :, :]
    return matcalc.dweight(gp.W)[..., None, :] * matcalc.halfvec(raw)


def a_vec(data, gp, b):
    """a_i = Z_i'(y_i - g(eta_i)) - Omega b_i at eta_i = X_i beta + Z_i b_i."""
    h1 = data.family.derivs(data.eta(gp.beta, b), data.trials, 1)[1]
    return gradients._score(data, gp, b, h1)[1]


def btilde_mat(transforms, a, b_tilde):
    """B~_i = bar(B_i) + bar(B_i)' - dg(B_i), with B_i = (L_i'a_i) b~_i'."""
    return gradients._sym_lower(gradients.grad_local(transforms, a)[..., :, None]
                                * b_tilde[..., None, :])


def log_q(state, theta):
    """Gaussian log density of the variational state at theta~ (d/2 log 2pi dropped)."""
    c_loc, c_glob = state.blocks()
    z_loc, z_glob = state.split(theta - state.mu)
    u_loc = matcalc.solve_lower(c_loc, z_loc)
    u_glob = matcalc.solve_lower(c_glob, z_glob)
    quad = (u_loc * u_loc).sum(axis=(-1, -2)) + (u_glob * u_glob).sum(axis=-1)
    return -state.log_det_c() - 0.5 * quad


def c_blocks(state):
    """(local C blocks, global C block) built block by block: each C*
    section unpacked by matcalc.unpack_log_diag, the reference for
    VariationalState.blocks."""
    return (matcalc.unpack_log_diag(state.cstar_local, state.r),
            matcalc.unpack_log_diag(state.cstar_global, state.g))


def log_det_c(state):
    """log|C| block by block: the local blocks' log diagonal summed, then
    the global block's, the reference for VariationalState.log_det_c."""
    return (state.cstar_local[..., matcalc.diag_positions(state.r)].sum()
            + state.cstar_global[matcalc.diag_positions(state.g)].sum())


def estimator_blockwise(state, s, grad_vec, blocks):
    """engine.estimator block by block, its reference: per block, g_mu =
    grad_vec + C^{-T} s, the outer product g_mu s' with its diagonal scaled
    by C's in place, and its half-vec."""
    lead = s.shape[:-1]
    g_mu, g_c = [], []  # the local block, then the global one
    for grad_part, s_part, cinv_t_s, c in zip(state.split(grad_vec), state.split(s),
                                              state.cinv_t(s, blocks), blocks):
        g = grad_part + cinv_t_s
        outer = g[..., :, None] * s_part[..., None, :]
        r = c.shape[-1]
        outer.reshape(outer.shape[:-2] + (r * r,))[..., ::r + 1] *= c.diagonal(0, -2, -1)
        g_mu.append(g.reshape(lead + (-1,)))
        g_c.append(matcalc.halfvec(outer).reshape(lead + (-1,)))
    return np.concatenate(g_mu + g_c, axis=-1)


def estimator_l1(state, s, grad_vec, blocks):
    """The L1 gradient estimate, in engine.estimator's layout and
    coordinates: the entropy term taken analytically, g_mu = grad_vec and
    the C blocks' part v(grad_vec s') + v(C^{-T}), scaled by dweight into C*."""
    out = np.empty(s.shape[:-1] + state.params.shape)
    g_mu, g_loc, g_glob = state.views(out)
    g_mu[...] = grad_vec
    for g, o, z, c in zip((g_loc, g_glob), state.split(grad_vec), state.split(s), blocks):
        v = matcalc.halfvec(o[..., :, None] * z[..., None, :])
        # only the diagonal of C^{-T} lies on the lower support
        v[..., matcalc.diag_positions(c.shape[-1])] += 1.0 / np.diagonal(c, axis1=-2, axis2=-1)
        g[...] = v * matcalc.dweight(c)
    return out


def estimator_l3(state, s, grad_vec, blocks):
    """The L3 gradient estimate: the score form g_mu = grad_vec - C^{-T} s,
    the noisier one, with the C blocks' part of engine.estimator (L2)."""
    out = engine.estimator(state, s, grad_vec, blocks)
    loc, glob = state.cinv_t(s, blocks)
    state.views(out)[0][...] = grad_vec - np.concatenate(
        [loc.reshape(loc.shape[:-2] + (-1,)), glob], axis=-1)
    return out


def apply_transform(transforms, b):
    """b~ = L^{-1}(b - lambda), by triangular solve."""
    return matcalc.solve_lower(transforms.L, b - transforms.lam)


def a2_objective(data, Xbeta, Omega, b, eta=None):
    """The mode search's objective at b (..., n, r), from reparam._evaluate,
    which works observation-major: the oracle takes the same accept and
    halving decisions as the loop it checks."""
    t = np.swapaxes
    return reparam._evaluate(data, data._obs_major(), t(Xbeta, -1, -2), Omega, t(b, -1, -2),
                             None if eta is None else t(eta, -1, -2))[0]


def transform_a2(data, gp, start=None):
    """Reference a2 transforms: Newton-Raphson with per-subject step halving
    that recomputes eta, h'(eta) and h''(eta) at every accepted point, the
    log-likelihood at every candidate (minus infinity where its eta exceeds
    the family's eta_max), and the precision by a three-operand
    contraction. Starts from start, or from a1's lambda when None, and
    reads the reparam.NR_* settings at call time."""
    fam = data.family
    Omega = gp.Omega
    Xbeta = np.einsum("njp,...p->...nj", data.X, gp.beta)
    b0 = reparam.transform_a1(data, gp).lam if start is None else start
    b = np.broadcast_to(b0, np.broadcast_shapes(Xbeta.shape[:-1] + (data.r,),
                                                Omega.shape[:-2] + (data.n, data.r))).copy()
    f = a2_objective(data, Xbeta, Omega, b)
    for it in range(reparam.NR_MAX_ITER + 1):
        eta = Xbeta + np.einsum("njr,...nr->...nj", data.Z, b)
        Om_b = np.einsum("...rs,...ns->...nr", Omega, b)
        _, h1, h2 = fam.derivs(eta, data.trials, 2)
        grad = np.einsum("njr,...nj->...nr", data.Z, data.mask * (data.y - h1)) - Om_b
        P = Omega[..., None, :, :] + np.einsum(
            "njr,...nj,njs->...nrs", data.Z, data.mask * h2, data.Z)
        scale = 1.0 + np.abs(Om_b).max(axis=-1)
        gnorm = np.abs(grad).max(axis=-1)
        active = gnorm > reparam.NR_TOL * scale
        if it == reparam.NR_MAX_ITER or not active.any():
            break
        step = np.linalg.solve(P, grad[..., None])[..., 0]
        t = active.astype(float)
        for _ in range(reparam.NR_MAX_HALVINGS + 1):
            cand = b + t[..., None] * step
            # a candidate beyond the family's eta_max is no ascent
            eta_c = Xbeta + np.einsum("njr,...nr->...nj", data.Z, cand)
            over = (eta_c > fam.eta_max).any(axis=-1)
            f_new = np.where(over, -np.inf, a2_objective(
                data, Xbeta, Omega, cand, np.where(over[..., None], 0.0, eta_c)))
            bad = active & (f_new < f - 1e-10 * (np.abs(f) + 1.0)) & (t > 0)
            if not bad.any():
                break
            t = np.where(bad, 0.5 * t, t)
        else:
            t = np.where(bad, 0.0, t)
        moved = active & (t > 0)
        if not moved.any():
            break
        b = b + t[..., None] * step
        f = np.where(moved, f_new, f)
    if np.any(gnorm > reparam.NR_TOL_ACCEPT * scale):
        raise ModeSearchFailedError("Newton-Raphson mode search did not reach stationarity")
    Lam, L = matcalc.spd_inv_cholesky(P)
    return reparam.Transforms("a2", b, L, Lam, base_eta=eta)


def far_prediction(seed, draw, shift=3.0, scale=0.4):
    """Poisson r = 2 data (random_dataset, n = 5, p = 2) of that seed, its
    draw-th random theta_G (random_gp of that scale) and an anchor whose
    omega diagonal is shift lower, from which the modes there are predicted
    far off."""
    from conftest import random_dataset, random_gp  # conftest imports this module
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, families.POISSON, r=2, n=5, p=2)
    for _ in range(draw):
        gp = random_gp(rng, 2, 2, scale)
    omega = gp.omega.copy()
    omega[matcalc.diag_positions(2)] -= shift
    far = model.GlobalParams(gp.beta, omega, 2)
    return data, gp, reparam.transform_a2(data, far)


def predicted_start_failures(shift, pairs=None, scale=0.4):
    """Outcomes of the a2 search from the modes predicted from the anchor of
    far_prediction(seed, draw, shift, scale) over pairs (seed, draw), by
    default seeds 100-159 and draws 1-10:
    counts by the name of the error the search raises, or "succeeded"."""
    counts = collections.Counter()
    for seed, draw in pairs or itertools.product(range(100, 160), range(1, 11)):
        data, gp, anchor = far_prediction(seed, draw, shift, scale)
        try:
            with np.errstate(all="ignore"):
                reparam.transform_a2(data, gp, reparam.predict_modes(data, anchor, gp))
            counts["succeeded"] += 1
        except RECOVERABLE as err:
            counts[type(err).__name__] += 1
    return dict(counts)


def pooled_glm_flat(data, tol=1e-8, max_iter=25):
    """model.fit_pooled_glm with no prior on beta, written without its ridge
    terms: at sigma_beta2 = inf the package must return this bit for bit."""
    sel = data.mask.ravel() > 0
    X = data.X.reshape(-1, data.p)[sel]
    y = data.y.ravel()[sel]
    m = data.trials.ravel()[sel]
    fam = data.family
    if np.linalg.matrix_rank(X) < data.p:
        raise RankDeficientError("pooled design is rank deficient")
    beta = np.zeros(data.p)
    ones_col = np.flatnonzero(np.all(np.abs(X - 1.0) < 1e-12, axis=0))
    if ones_col.size and fam.name == "poisson":
        beta[ones_col[0]] = math.log(y.mean() + 0.5)

    def evaluate(bvec):
        eta = X @ bvec
        h, h1, w = fam.derivs(eta, m, 2)
        return -2.0 * (y * eta - h).sum(), h1, w

    dev, h1, w = evaluate(beta)
    for _ in range(max_iter):
        score = X.T @ (y - h1)
        fisher = X.T @ (w[:, None] * X)
        try:
            step = np.linalg.solve(fisher, score)
        except np.linalg.LinAlgError:
            raise RankDeficientError("singular weighted normal equations") from None
        t = 1.0
        for _ in range(30):
            cand = beta + t * step
            dev_new, h1, w = evaluate(cand)
            if dev_new <= dev + 1e-12 * (abs(dev) + 1.0):
                break
            t *= 0.5
        else:
            raise IrlsDivergedError("half-stepping failed to decrease deviance")
        beta = cand
        if abs(dev - dev_new) <= tol * (abs(dev_new) + 1.0):
            return beta
        dev = dev_new
    raise IrlsDivergedError(f"no convergence in {max_iter} iterations")


def pooled_glm_penalized_score(data, beta, sigma_beta2):
    """(score, Fisher matrix) at beta of the pooled GLM's log likelihood
    plus a N(0, sigma_beta2 I) log prior on beta."""
    sel = data.mask.ravel() > 0
    X = data.X.reshape(-1, data.p)[sel]
    _, h1, w = data.family.derivs(X @ beta, data.trials.ravel()[sel], 2)
    return (X.T @ (data.y.ravel()[sel] - h1) - beta / sigma_beta2,
            X.T @ (w[:, None] * X) + np.eye(data.p) / sigma_beta2)


def gaussian_unit_log_marginal(data, gp, prior):
    """log p(y, theta_G) of the gaussian-unit model, b integrated out exactly:
    y_i ~ N(X_i beta, I + Z_i Omega^{-1} Z_i'). The constants the package's
    log densities drop, y^2/2 + log(2 pi)/2 per observation, are added back."""
    cov_b = np.linalg.inv(gp.Omega)
    total = -gp.beta @ gp.beta / (2.0 * prior.sigma_beta2) + prior.log_omega(gp)
    for i in range(data.n):
        k = data.n_obs[i]
        X, Z, y = data.X[i, :k], data.Z[i, :k], data.y[i, :k]
        total += scipy.stats.multivariate_normal.logpdf(y, X @ gp.beta,
                                                        np.eye(k) + Z @ cov_b @ Z.T)
        total += 0.5 * (y @ y) + 0.5 * k * math.log(2.0 * math.pi)
    return total
