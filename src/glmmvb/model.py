"""Two-level GLMM specification.

Subjects are stored in padded rectangular arrays (ragged cluster sizes are
masked) so that everything downstream can batch across subjects, and across
Monte Carlo draws via leading broadcast dimensions.

The global parameter vector is theta_G = [beta, omega], where omega is the
half-vec of the lower Cholesky factor W of the random-effects precision
Omega = W W^T, with log-transformed diagonal so omega is unconstrained.

Additive constants that do not depend on any parameter are dropped from all
log densities (one convention shared by likelihood, priors and entropy, so
lower-bound differences are meaningful).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcalc
from .exceptions import (
    ConfigError,
    DataError,
    IrlsDivergedError,
    NotPositiveDefiniteError,
    RankDeficientError,
)

DEFAULT_SIGMA_BETA2 = 100.0


# ---------------------------------------------------------------------------
# dataset


class Dataset:
    """Grouped responses with per-subject fixed/random effect designs.

    Parameters
    ----------
    family : families.Family
    y : (n, J) responses, padded with zeros beyond each subject's n_i
    X : (n, J, p) fixed-effect designs, padded rows zero
    Z : (n, J, r) random-effect designs, padded rows zero
    trials : (n, J) binomial trial counts (ones elsewhere)
    n_obs : (n,) observations per subject
    lines : (n, J) file line of each observation, named in response errors
        (by default the observation's position among the unpadded rows)
    """

    def __init__(self, family, y, X, Z, trials=None, n_obs=None,
                 x_names=None, z_names=None, group_labels=None, lines=None):
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        Z = np.asarray(Z, dtype=float)
        n, J = y.shape
        if X.shape[:2] != (n, J) or Z.shape[:2] != (n, J):
            raise DataError("X, Z, y must agree on (n subjects, max cluster size)")
        if trials is None:
            trials = np.ones((n, J))
        trials = np.asarray(trials, dtype=float)
        if n_obs is None:
            n_obs = np.full(n, J, dtype=int)
        n_obs = np.asarray(n_obs, dtype=int)
        if np.any(n_obs < 1):
            raise DataError("every subject needs at least one observation")
        mask = (np.arange(J)[None, :] < n_obs[:, None]).astype(float)
        obs = mask > 0
        family.validate(y[obs], trials[obs], None if lines is None else np.asarray(lines)[obs])
        for name, arr in (("X", X), ("Z", Z)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in {name}")
        self.family = family
        self.y = y
        self.X = X
        self.Z = Z
        self.trials = trials
        self.n_obs = n_obs
        self.mask = mask
        self.x_names = list(x_names) if x_names else [f"x{k}" for k in range(X.shape[2])]
        self.z_names = list(z_names) if z_names else [f"z{k}" for k in range(Z.shape[2])]
        self.group_labels = list(group_labels) if group_labels else [str(i) for i in range(n)]
        self.cache = {}

    # -- shapes ------------------------------------------------------------
    @property
    def n(self):
        return self.y.shape[0]

    @property
    def J(self):
        return self.y.shape[1]

    @property
    def p(self):
        return self.X.shape[2]

    @property
    def r(self):
        return self.Z.shape[2]

    @property
    def g2(self):
        return matcalc.half_len(self.r)

    @property
    def g(self):
        return self.p + self.g2

    @property
    def total_obs(self):
        return int(self.n_obs.sum())

    @classmethod
    def from_lists(cls, family, y_list, X_list, Z_list, trials_list=None, **kw):
        """Build a padded Dataset from per-subject sequences."""
        n = len(y_list)
        n_obs = np.array([len(yi) for yi in y_list], dtype=int)
        J = int(n_obs.max())
        p = np.asarray(X_list[0], dtype=float).shape[1]
        r = np.asarray(Z_list[0], dtype=float).shape[1]
        y = np.zeros((n, J))
        X = np.zeros((n, J, p))
        Z = np.zeros((n, J, r))
        trials = np.ones((n, J))
        for i in range(n):
            k = n_obs[i]
            y[i, :k] = np.asarray(y_list[i], dtype=float)
            X[i, :k] = np.asarray(X_list[i], dtype=float)
            Z[i, :k] = np.asarray(Z_list[i], dtype=float)
            if trials_list is not None:
                trials[i, :k] = np.asarray(trials_list[i], dtype=float)
        return cls(family, y, X, Z, trials, n_obs, **kw)

    def subset(self, indices):
        """View of a subset of subjects (used by the divide step)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.family, self.y[idx], self.X[idx], self.Z[idx],
                       self.trials[idx], self.n_obs[idx],
                       x_names=self.x_names, z_names=self.z_names,
                       group_labels=[self.group_labels[i] for i in idx])

    def eta(self, beta, b):
        """Linear predictors X beta + Z b, broadcasting over leading dims."""
        return (np.einsum("njp,...p->...nj", self.X, beta)
                + np.einsum("njr,...nr->...nj", self.Z, b))

    def eta_hat_reg(self):
        """Per-observation regularized natural-parameter estimates (cached)."""
        key = "eta_hat_reg"
        if key not in self.cache:
            self.cache[key] = self.family.eta_hat_reg(self.y, self.trials)
        return self.cache[key]

    def _z_outer(self, name):
        """Per-observation outer products Z_ij A_ij' for A = Z or X (by
        name), flattened to (n, J, r * columns of A) (cached)."""
        key = "z" + name
        if key not in self.cache:
            A = getattr(self, name)
            self.cache[key] = (self.Z[..., :, None] * A[..., None, :]).reshape(
                self.n, self.J, -1)
        return self.cache[key]

    def zwz(self, w):
        """sum_j w_ij Z_ij Z_ij' per subject, (..., n, r, r), for weights w (..., n, J)."""
        return (w[..., None, :] @ self._z_outer("Z"))[..., 0, :].reshape(
            w.shape[:-1] + (self.r, self.r))

    def zwx(self, w):
        """sum_j w_ij Z_ij X_ij' per subject, (..., n, r, p), for weights w (..., n, J)."""
        return (w[..., None, :] @ self._z_outer("X"))[..., 0, :].reshape(
            w.shape[:-1] + (self.r, self.p))

    def zmz(self, M):
        """Z_ij' M_i Z_ij per observation, (..., n, J), for matrices M (..., n, r, r)."""
        return (self._z_outer("Z") @ M.reshape(M.shape[:-2] + (self.r * self.r, 1)))[..., 0]


# ---------------------------------------------------------------------------
# global parameters


@dataclass
class GlobalParams:
    """Fixed effects and the unconstrained precision parameterization."""

    beta: np.ndarray  # (..., p)
    omega: np.ndarray  # (..., r(r+1)/2)
    r: int

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.shape[-1] != matcalc.half_len(self.r):
            raise ConfigError("omega length does not match r")

    def w_matrix(self):
        """Lower Cholesky factor W of Omega (diagonal exponentiated)."""
        return matcalc.unpack_log_diag(self.omega, self.r)

    def omega_matrix(self):
        return self.W @ np.swapaxes(self.W, -1, -2)

    # computed once per parameter value, shared by transforms, joint and prior
    @cached_property
    def W(self):
        return self.w_matrix()

    @cached_property
    def Omega(self):
        return self.omega_matrix()

    @cached_property
    def W_inv_t(self):
        """W^{-T}: row k solves W x = e_k."""
        return matcalc.solve_lower(self.W[..., None, :, :], np.eye(self.r))

    def log_diag_sum(self):
        """sum_i log W_ii = half of log|Omega|."""
        return self.omega[..., matcalc.diag_positions(self.r)].sum(axis=-1)


def global_names(data, prior):
    """Names of the theta_G coordinates: beta.<x name>, then omega.<ij> over
    the lower triangle when the prior learns omega."""
    names = [f"beta.{nm}" for nm in data.x_names]
    if prior.learns_omega:
        rows, cols = matcalc.tri_indices(data.r)
        names += [f"omega.{i}{j}" for i, j in zip(rows, cols)]
    return names


# ---------------------------------------------------------------------------
# priors


def _check_sigma_beta2(sigma_beta2):
    if not (math.isfinite(sigma_beta2) and sigma_beta2 > 0):
        raise ConfigError(f"sigma_beta2 must be positive and finite, got {sigma_beta2}")


@dataclass
class WishartPrior:
    """N(0, sigma_beta2 I) on beta, Wishart(nu, S) on Omega (induced on omega)."""

    sigma_beta2: float
    nu: float
    S: np.ndarray
    learns_omega: bool = field(default=True, init=False)

    def __post_init__(self):
        _check_sigma_beta2(self.sigma_beta2)
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        matcalc.cholesky(self.S)  # must be SPD
        self.S_inv = matcalc.spd_inv(self.S)
        r = self.S.shape[0]
        if not (math.isfinite(self.nu) and self.nu > r - 1):
            raise ConfigError("Wishart degrees of freedom must be finite and exceed r - 1")
        self.u = np.arange(r + 1, 1, -1, dtype=float)  # u_i = r - i + 2

    def log_omega(self, gp):
        r = gp.r
        diag = gp.omega[..., matcalc.diag_positions(r)]
        logdet = 2.0 * diag.sum(axis=-1)
        trace = np.einsum("ij,...ij->...", self.S_inv, gp.Omega)
        return (0.5 * (self.nu - r - 1) * logdet - 0.5 * trace
                + r * math.log(2.0) + (self.u * diag).sum(axis=-1))

    def grad_omega(self, gp):
        r = gp.r
        raw = (self.nu - r - 1) * gp.W_inv_t - self.S_inv @ gp.W
        out = matcalc.dweight(gp.W) * matcalc.halfvec(raw)
        out[..., matcalc.diag_positions(r)] += self.u
        return out


@dataclass
class NormalOmegaPrior:
    """N(0, sigma_beta2 I) on beta, independent normals directly on omega.

    Used by the divide-and-recombine path, which needs the whole theta_G
    prior to be Gaussian.
    """

    sigma_beta2: float
    mean: np.ndarray
    sd: np.ndarray
    learns_omega: bool = field(default=True, init=False)

    def __post_init__(self):
        _check_sigma_beta2(self.sigma_beta2)
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.sd = np.broadcast_to(np.asarray(self.sd, dtype=float), self.mean.shape).copy()
        # grad_omega divides by var = sd^2, so it must not underflow: sd >= 2^-511,
        # the square root of the smallest normal number, is exactly sd^2 >= it
        if not (np.isfinite(self.mean).all()
                and np.all((self.sd >= 2.0 ** -511) & (self.sd < np.inf))):
            raise ConfigError("omega prior means must be finite and sds finite and "
                              "at least 2^-511, so that sd^2 does not underflow")
        with np.errstate(over="ignore"):  # an infinite variance is a flat prior
            self.var = self.sd * self.sd

    def log_omega(self, gp):
        z = (gp.omega - self.mean) / self.sd
        return -0.5 * (z * z).sum(axis=-1)

    def grad_omega(self, gp):
        return -(gp.omega - self.mean) / self.var


def normal_omega_prior(r, sigma_beta2=DEFAULT_SIGMA_BETA2, mean=0.0, sd=10.0):
    g2 = matcalc.half_len(r)
    return NormalOmegaPrior(sigma_beta2, np.full(g2, float(mean)), np.full(g2, float(sd)))


# ---------------------------------------------------------------------------
# log joints


def log_joint(data, gp, b, prior, eta=None, h=None):
    """Log joint density of data, random effects and global parameters.

    sum_i [ sum_j {y eta - h(eta)} - b_i' Omega b_i / 2 ] + (n/2) log|Omega|
    - beta'beta/(2 sigma_beta^2) + log p(omega); broadcasts over leading
    dims of gp.beta / gp.omega / b. eta = X beta + Z b and h(eta), if
    already known.
    """
    if eta is None:
        eta = data.eta(gp.beta, b)
    if h is None:
        h = data.family.derivs(eta, data.trials, 0)[0]
    ll = (data.mask * (data.y * eta - h)).sum(axis=(-1, -2))
    quad = np.einsum("...nr,...rs,...ns->...", b, gp.Omega, b)
    pen = (gp.beta * gp.beta).sum(axis=-1) / (2.0 * prior.sigma_beta2)
    return (ll - 0.5 * quad + data.n * gp.log_diag_sum() - pen
            + prior.log_omega(gp))


def log_joint_reparam(data, b_tilde, transforms, prior):
    """Log joint of the reparametrized model at theta_G = transforms.gp:
    log_joint at b = L b~ + lambda plus the Jacobian term sum_i log|L_i|."""
    b = transforms.invert(b_tilde)
    return log_joint(data, transforms.gp, b, prior) + transforms.log_det_l()


# ---------------------------------------------------------------------------
# pooled GLM + default conjugate prior


def fit_pooled_glm(data, tol=1e-8, max_iter=25):
    """IRLS fit of the GLM pooling all subjects with b_i = 0.

    Canonical links only, so Fisher scoring and Newton coincide. Damped
    half-steps guard against deviance increases.
    """
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
        """The deviance at bvec, and h' and h'' for the next step from there."""
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


def default_prior(data, sigma_beta2=DEFAULT_SIGMA_BETA2):
    """Default conjugate Wishart prior from pooled-GLM weights.

    nu = r for r = 1 and r + 1 otherwise; S = (1/(nu n)) sum_i Z_i' W_i Z_i
    with the GLM weight matrices evaluated at the pooled fit. For r = 1 this
    is the Gamma(nu/2, S^{-1}/2) prior on the precision.
    """
    beta_hat = fit_pooled_glm(data)
    eta = np.einsum("njp,p->nj", data.X, beta_hat)
    w = data.mask * data.family.derivs(eta, data.trials, 2)[2]
    A = np.einsum("njr,nj,njs->rs", data.Z, w, data.Z) / data.n
    rho = data.r if data.r == 1 else data.r + 1
    try:
        return WishartPrior(sigma_beta2, float(rho), A / rho)
    except NotPositiveDefiniteError:
        raise RankDeficientError("pooled random-effect crossproduct is singular") from None
