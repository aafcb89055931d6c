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
IRLS_TOL = 1e-8  # the pooled GLM's IRLS stops at this relative deviance change
IRLS_MAX_ITER = 25


# ---------------------------------------------------------------------------
# dataset


def _scatter(group):
    """(n_obs, pad) for rows of subjects group[t]: pad(fill, rows) puts row t
    at (group[t], its rank among its subject's rows) of an (n, J, ...) array
    holding fill elsewhere. Subjects need be neither contiguous nor in order."""
    n_obs = np.bincount(group)
    order = np.argsort(group, kind="stable")
    pos = np.empty_like(group)
    pos[order] = np.arange(group.size) - np.repeat(np.cumsum(n_obs) - n_obs, n_obs)
    shape = (n_obs.size, int(n_obs.max()))

    def pad(fill, rows):
        out = np.full(shape + rows.shape[1:], fill)
        out[group, pos] = rows
        return out

    return n_obs, pad


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
        if y.ndim != 2:
            raise DataError(f"y must be (n subjects, max cluster size), got shape {y.shape}")
        n, J = y.shape
        trials = np.ones((n, J)) if trials is None else np.asarray(trials, dtype=float)
        n_obs = np.full(n, J, dtype=int) if n_obs is None else np.asarray(n_obs, dtype=int)
        for name, arr, ndim, lead in (("X", X, 3, (n, J)), ("Z", Z, 3, (n, J)),
                                      ("trials", trials, 2, (n, J)), ("n_obs", n_obs, 1, (n,))):
            if arr.ndim != ndim or arr.shape[:2] != lead:
                raise DataError(f"{name} must be {ndim}-D with leading shape {lead} "
                                f"from y, got shape {arr.shape}")
        if lines is not None and np.shape(lines) != (n, J):
            raise DataError(f"lines must have y's shape {(n, J)}, got shape {np.shape(lines)}")
        if np.any(n_obs < 1):
            raise DataError("every subject needs at least one observation")
        if np.any(n_obs > J):
            raise DataError(f"n_obs exceeds the {J} observations a subject has room for in y")
        mask = (np.arange(J)[None, :] < n_obs[:, None]).astype(float)
        obs = mask > 0
        if not obs.all():  # zero the padding (one in trials) on copies, whatever it held
            y, trials = np.where(obs, y, 0.0), np.where(obs, trials, 1.0)
            X, Z = np.where(obs[..., None], X, 0.0), np.where(obs[..., None], Z, 0.0)
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
        # names default only when absent: a given list, an empty one too, must fit
        self.x_names = [f"x{k}" for k in range(self.p)] if x_names is None else list(x_names)
        self.z_names = [f"z{k}" for k in range(self.r)] if z_names is None else list(z_names)
        self.group_labels = list(map(str, range(n)) if group_labels is None else group_labels)
        for name, size in (("x_names", self.p), ("z_names", self.r), ("group_labels", n)):
            if len(getattr(self, name)) != size:
                raise DataError(f"{name} has {len(getattr(self, name))} entries for {size}")
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
        sizes = [len(yi) for yi in y_list]
        if not sizes:
            raise DataError("no subjects: p and r come from the subjects' designs")
        if min(sizes) < 1:
            raise DataError("every subject needs at least one observation")

        def rows(parts):  # the subjects' rows, one after another
            return np.concatenate([np.asarray(a, dtype=float) for a in parts])

        n_obs, pad = _scatter(np.repeat(np.arange(len(sizes)), sizes))
        trials = None if trials_list is None else pad(1.0, rows(trials_list))
        return cls(family, pad(0.0, rows(y_list)), pad(0.0, rows(X_list)),
                   pad(0.0, rows(Z_list)), trials, n_obs, **kw)

    def subset(self, indices):
        """View of a subset of subjects (used by the divide step)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.family, self.y[idx], self.X[idx], self.Z[idx],
                       self.trials[idx], self.n_obs[idx],
                       x_names=self.x_names, z_names=self.z_names,
                       group_labels=[self.group_labels[i] for i in idx])

    # The contraction kernels below broadcast over leading (draw) dims and
    # never fold a leading axis into one BLAS product: a row of a batch
    # equals that row computed alone, whatever the batch.
    def xbeta(self, beta):
        """X beta per observation, (..., n, J), for beta (..., p): one
        matrix-vector product per draw."""
        return matcalc.matvec_fixed(self.X, beta)

    def zb(self, b):
        """Z_ij' b_i per observation, (..., n, J), for b (..., n, r): each
        subject's Z_i as a block of matcalc.matvec, r elementwise multiply-adds."""
        return matcalc.matvec(self.Z, b)

    def zt(self, v):
        """Z_i' v_i per subject, (..., n, r), for v (..., n, J)."""
        return (v[..., None, :] @ self.Z)[..., 0, :]

    def xt(self, v):
        """sum_i X_i' v_i, (..., p), for v (..., n, J)."""
        rows = (v.reshape(v.shape[:-2] + (1, self.n * self.J))
                @ self.X.reshape(self.n * self.J, self.p))
        return rows[..., 0, :]

    def eta(self, beta, b):
        """Linear predictors X beta + Z b, broadcasting over leading dims."""
        return self.xbeta(beta) + self.zb(b)

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
                self.n, self.J, self.r * A.shape[-1])
        return self.cache[key]

    def zwx(self, w):
        """sum_j w_ij Z_ij X_ij' per subject, (..., n, r, p), for weights w (..., n, J)."""
        return (w[..., None, :] @ self._z_outer("X"))[..., 0, :].reshape(
            w.shape[:-1] + (self.r, self.p))

    def zmz(self, M):
        """Z_ij' M_i Z_ij per observation, (..., n, J), for matrices M (..., n, r, r)."""
        return (self._z_outer("Z") @ M.reshape(M.shape[:-2] + (self.r * self.r, 1)))[..., 0]

    def _obs_major(self):
        """The observation-major layout of the data (_ObsMajor), built at the
        first call and cached."""
        if "obs" not in self.cache:
            self.cache["obs"] = _ObsMajor(self)
        return self.cache["obs"]


class _ObsMajor:
    """A Dataset's arrays observation-major, for the a2 mode search: y and
    trials (J, n), X (J, n, p), Z's columns Z_k (r, J, n) and their
    products Z_k Z_l, one per lower-triangle entry (k, l) in half-vec order
    (r(r+1)/2, J, n). Arrays per observation are then (..., J, n), vectors
    per subject (..., r, n) and symmetric blocks per subject half-vec
    columns (..., r(r+1)/2, n) (matcalc.sym_blocks). The subjects lie along
    the last axis, so elementwise work and every sum over a subject's
    observations (over axis -2) run inner loops of length n, for one draw
    and for a block of draws alike. There is no mask: Dataset zeroes the
    padded cells' y, X and Z.
    """

    def __init__(self, data):
        self.y = np.ascontiguousarray(data.y.T)
        self.trials = np.ascontiguousarray(data.trials.T)
        self.X = np.ascontiguousarray(data.X.transpose(1, 0, 2))
        self.Z = np.ascontiguousarray(data.Z.transpose(2, 1, 0))
        rows, cols = matcalc.tri_indices(data.r)
        self.ZZ = self.Z[rows] * self.Z[cols]
        self.ones = np.ones(data.J)

    def xbeta(self, beta):
        """X beta per observation, (..., J, n), for beta (..., p)."""
        return matcalc.matvec_fixed(self.X, beta)

    def eta(self, Xbeta, b):
        """X beta + Z_ij' b_i per observation, (..., J, n), for X beta
        (..., J, n) and b (..., r, n): r products added in column order."""
        tmp = self.Z[0] * b[..., None, 0, :]
        out = Xbeta + tmp
        for k in range(1, len(self.Z)):
            out += np.multiply(self.Z[k], b[..., None, k, :], out=tmp)
        return out

    def sum_obs(self, v, out=None):
        """sum_j v_ij per subject, (..., n), for v (..., J, n): one product
        of a vector of ones with each draw's (J, n) array."""
        return np.matmul(self.ones, v, out=out)

    def _contract(self, A, v):
        """sum_j A_kj v_j per subject for each A_k of A (K, J, n), (..., K, n),
        for v (..., J, n): per k one product into a (..., J, n) temporary,
        summed over the observations into row k of the output."""
        out = np.empty(v.shape[:-2] + (len(A), A.shape[-1]))
        tmp = np.empty(v.shape)
        for k, a in enumerate(A):
            self.sum_obs(np.multiply(a, v, out=tmp), out=out[..., k, :])
        return out

    def zt(self, v):
        """Z_i' v_i per subject, (..., r, n), for v (..., J, n)."""
        return self._contract(self.Z, v)

    def zwz(self, w):
        """Half-vecs of sum_j w_ij Z_ij Z_ij' per subject, (..., r(r+1)/2, n),
        for weights w (..., J, n)."""
        return self._contract(self.ZZ, w)


# ---------------------------------------------------------------------------
# global parameters


class _cached:
    """functools.cached_property without its lock: the value is computed at
    the first access and stored in the instance's __dict__, which later
    accesses read directly. Before Python 3.12 cached_property takes a lock
    at each first access, and a fit step makes five of them on a fresh
    GlobalParams; no GlobalParams is shared between threads."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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
        return self.W @ self.W.swapaxes(-1, -2)

    # computed once per parameter value, shared by transforms, joint and prior
    @_cached
    def W(self):
        return self.w_matrix()

    @_cached
    def Omega(self):
        return self.omega_matrix()

    @_cached
    def W_inv_t(self):
        """W^{-T}: row k solves W x = e_k."""
        return matcalc.solve_lower(self.W[..., None, :, :], matcalc.eye(self.r))

    @_cached
    def W_dweight(self):
        """matcalc.dweight(W): the log-diagonal chain rule of omega's gradients."""
        return matcalc.dweight(self.W)

    @_cached
    def log_diag_sum(self):
        """sum_i log W_ii = half of log|Omega|."""
        return self.omega[..., matcalc.diag_positions(self.r)].sum(axis=-1)

    def omega_b(self, b):
        """Omega b_i per subject, (..., n, r), for b (..., n, r)."""
        return matcalc.matvec_rows(self.Omega, b)


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
        self.g2 = matcalc.half_len(r)  # the length of the omega it is a prior on
        # u_i = r - i + 2 at omega's diagonal positions (log W_ii), 0 elsewhere
        self.u = np.zeros(self.g2)
        self.u[matcalc.diag_positions(r)] = np.arange(r + 1, 1, -1)

    def log_omega(self, gp):
        r = gp.r
        trace = (self.S_inv * gp.Omega).sum(axis=(-1, -2))
        # (nu - r - 1) / 2 log|Omega|, log|Omega| being twice the log-diagonal sum
        return ((self.nu - r - 1) * gp.log_diag_sum - 0.5 * trace
                + r * math.log(2.0) + (self.u * gp.omega).sum(axis=-1))

    def grad_omega(self, gp):
        raw = (self.nu - gp.r - 1) * gp.W_inv_t - self.S_inv @ gp.W
        return gp.W_dweight * matcalc.halfvec(raw) + self.u


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
        self.g2 = self.mean.size

    def log_omega(self, gp):
        z = (gp.omega - self.mean) / self.sd
        return -0.5 * (z * z).sum(axis=-1)

    def grad_omega(self, gp):
        return -(gp.omega - self.mean) / self.var


def normal_omega_prior(r, sigma_beta2=DEFAULT_SIGMA_BETA2, sd=10.0):
    """N(0, sd^2) on each of the r(r+1)/2 coordinates of omega."""
    g2 = matcalc.half_len(r)
    return NormalOmegaPrior(sigma_beta2, np.zeros(g2), np.full(g2, float(sd)))


# ---------------------------------------------------------------------------
# log joints


def log_joint(data, gp, b, prior, eta=None, h=None, omega_b=None):
    """Log joint density of data, random effects and global parameters.

    sum_i [ sum_j {y eta - h(eta)} - b_i' Omega b_i / 2 ] + (n/2) log|Omega|
    - beta'beta/(2 sigma_beta^2) + log p(omega); broadcasts over leading
    dims of gp.beta / gp.omega / b. eta = X beta + Z b, h(eta) and
    gp.omega_b(b), if already known.
    """
    if eta is None:
        eta = data.eta(gp.beta, b)
    if h is None:
        h = data.family.derivs(eta, data.trials, 0)[0]
    if omega_b is None:
        omega_b = gp.omega_b(b)
    ll = (data.mask * (data.y * eta - h)).sum(axis=(-1, -2))
    quad = (b * omega_b).sum(axis=(-1, -2))
    pen = (gp.beta * gp.beta).sum(axis=-1) / (2.0 * prior.sigma_beta2)
    return (ll - 0.5 * quad + data.n * gp.log_diag_sum - pen
            + prior.log_omega(gp))


def log_joint_reparam(data, b_tilde, transforms, prior):
    """Log joint of the reparametrized model at theta_G = transforms.gp:
    log_joint at b = L b~ + lambda plus the Jacobian term sum_i log|L_i|."""
    b = transforms.invert(b_tilde)
    return log_joint(data, transforms.gp, b, prior) + transforms.log_det_l()


# ---------------------------------------------------------------------------
# pooled GLM + default conjugate prior


def fit_pooled_glm(data, sigma_beta2=math.inf):
    """IRLS fit of the GLM pooling all subjects with b_i = 0: the mode of its
    likelihood times a N(0, sigma_beta2 I) prior on beta (flat by default).

    Canonical links only, so Fisher scoring and Newton coincide. Damped
    half-steps guard against deviance increases. A finite sigma_beta2 keeps
    the mode finite under (quasi-)separation.
    """
    if not 0 < sigma_beta2 <= math.inf:
        raise ConfigError(f"need 0 < sigma_beta2 <= inf (inf: flat), got {sigma_beta2}")
    sel = data.mask.ravel() > 0
    X = data.X.reshape(-1, data.p)[sel]
    y = data.y.ravel()[sel]
    m = data.trials.ravel()[sel]
    fam = data.family
    if np.linalg.matrix_rank(X) < data.p:
        raise RankDeficientError("pooled design is rank deficient")

    prec = np.eye(data.p) / sigma_beta2  # the prior's precision; zeros for a flat prior
    beta = np.zeros(data.p)
    ones_col = np.flatnonzero(np.all(np.abs(X - 1.0) < 1e-12, axis=0))
    if ones_col.size and fam.name == "poisson":
        beta[ones_col[0]] = math.log(y.mean() + 0.5)

    def evaluate(bvec):
        """The penalized deviance at bvec, and h' and h'' for the next step."""
        eta = X @ bvec
        h, h1, w = fam.derivs(eta, m, 2)
        return -2.0 * (y * eta - h).sum() + bvec @ prec @ bvec, h1, w

    dev, h1, w = evaluate(beta)
    for _ in range(IRLS_MAX_ITER):
        score = X.T @ (y - h1) - prec @ beta
        fisher = X.T @ (w[:, None] * X) + prec
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
        if abs(dev - dev_new) <= IRLS_TOL * (abs(dev_new) + 1.0):
            return beta
        dev = dev_new
    raise IrlsDivergedError(f"no convergence in {IRLS_MAX_ITER} iterations")


def default_prior(data, sigma_beta2=DEFAULT_SIGMA_BETA2):
    """Default conjugate Wishart prior from pooled-GLM weights.

    nu = r for r = 1 and r + 1 otherwise; S = (1/(nu n)) sum_i Z_i' W_i Z_i
    with the GLM weight matrices evaluated at the pooled fit, under the
    N(0, sigma_beta2 I) prior on beta where the flat IRLS diverges (a
    separable design). For r = 1 this is the Gamma(nu/2, S^{-1}/2) prior on
    the precision.
    """
    try:
        beta_hat = fit_pooled_glm(data)
    except IrlsDivergedError:
        beta_hat = fit_pooled_glm(data, sigma_beta2)
    w = data.family.derivs(data.xbeta(beta_hat), data.trials, 2)[2]
    Z = data.Z.reshape(-1, data.r)
    A = (w.reshape(-1, 1) * Z).T @ Z / data.n  # sum_i Z_i' W_i Z_i / n
    rho = data.r if data.r == 1 else data.r + 1
    try:
        return WishartPrior(sigma_beta2, float(rho), A / rho)
    except NotPositiveDefiniteError:
        raise RankDeficientError("pooled random-effect crossproduct is singular") from None
