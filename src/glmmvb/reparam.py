"""Per-subject affine transforms b~_i = L_i^{-1}(b_i - lambda_i).

(lambda_i, Lambda_i = L_i L_i^T) come from a Gaussian approximation of the
conditional posterior of b_i given the global parameters:

* method "a1": second-order Taylor expansion of the likelihood about a
  regularized per-observation natural-parameter estimate (finite even on
  the support boundary), combined with the random-effects prior;
* method "a2": expansion about the conditional posterior mode, found by
  Newton-Raphson with step halving, started from a1's lambda.

Everything broadcasts over leading batch dimensions of the global
parameters (one global draw during fitting, many during posterior
simulation). The per-dataset pieces that do not depend on the global
parameters are cached on the dataset.
"""

from dataclasses import dataclass

import numpy as np

from . import matcalc
from .exceptions import ConfigError, ModeSearchFailedError, NotPositiveDefiniteError

NR_MAX_ITER = 100
NR_TOL = 1e-11
NR_TOL_ACCEPT = 1e-8  # guaranteed stationarity level
NR_MAX_HALVINGS = 20

METHODS = ("a1", "a2")


@dataclass
class Transforms:
    """Affine transforms for all subjects at one (batch of) theta_G."""

    method: str
    lam: np.ndarray      # (..., n, r)
    L: np.ndarray        # (..., n, r, r) lower, positive diagonal
    Lambda: np.ndarray   # (..., n, r, r) SPD
    base_eta: np.ndarray | None = None  # (..., n, J) Taylor expansion point

    def invert(self, b_tilde):
        """b = L b~ + lambda."""
        return np.einsum("...nrs,...ns->...nr", self.L, b_tilde) + self.lam

    def log_det_l(self):
        """sum_i log|L_i| = sum of log diagonal entries."""
        diag = np.diagonal(self.L, axis1=-2, axis2=-1)
        return np.log(diag).sum(axis=(-1, -2))


# ---------------------------------------------------------------------------
# method a1


def _assemble(precision):
    """Lambda = precision^{-1} (symmetrized) and its Cholesky factor."""
    Lam = np.linalg.inv(precision)
    Lam = 0.5 * (Lam + np.swapaxes(Lam, -1, -2))
    return Lam, matcalc.cholesky(Lam)


def transform_a1(data, gp):
    """Transforms from the Taylor expansion about the regularized estimates
    eta_hat, H = mask * h''(eta_hat); the parts that do not depend on
    theta_G are cached on the dataset.

    Lambda_i = (Omega + Z'H(eta_hat)Z)^{-1},
    lambda_i = Lambda_i Z'{y - g(eta_hat) + H(eta_hat)(eta_hat - X beta)}.
    """
    if "a1" not in data.cache:
        # the parts free of theta_G: Z'HZ, Z'{y - g + H eta_hat} and Z'HX
        fam, eta_hat = data.family, data.eta_hat_reg()
        w = data.mask * fam.h2(eta_hat, data.trials)
        resid = data.mask * (data.y - fam.h1(eta_hat, data.trials)) + w * eta_hat
        data.cache["a1"] = (np.einsum("njr,nj,njs->nrs", data.Z, w, data.Z),
                            np.einsum("njr,nj->nr", data.Z, resid),
                            np.einsum("njr,nj,njp->nrp", data.Z, w, data.X))
    K, c, ZWX = data.cache["a1"]
    Lam, L = _assemble(gp.Omega[..., None, :, :] + K)
    rhs = c - np.einsum("...nrp,...p->...nr", ZWX, gp.beta)
    lam = np.einsum("...nrs,...ns->...nr", Lam, rhs)
    return Transforms("a1", lam, L, Lam, base_eta=data.eta_hat_reg())


# ---------------------------------------------------------------------------
# method a2


def _eta(data, Xbeta, b):
    return Xbeta + np.einsum("njr,...nr->...nj", data.Z, b)


def _conditional_objective(data, Xbeta, Omega, b, eta=None, h=None):
    """Per-subject log p(y_i, b_i | theta_G) up to constants:
    sum_j {y eta - h(eta)} - b'Omega b / 2, with eta = X beta + Z b and
    h(eta) computed here unless the caller has them."""
    if eta is None:
        eta = _eta(data, Xbeta, b)
    if h is None:
        h = data.family.h(eta, data.trials)
    ll = (data.mask * (data.y * eta - h)).sum(axis=-1)
    quad = np.einsum("...nr,...rs,...ns->...n", b, Omega, b)
    return ll - 0.5 * quad


def _evaluate(data, Xbeta, b):
    """eta = X beta + Z b and (h, h', h'') at eta: the one evaluation of a point."""
    eta = _eta(data, Xbeta, b)
    return (eta,) + data.family.h_derivs(eta, data.trials)


def transform_a2(data, gp, start=None):
    """Transforms from the expansion about the conditional posterior mode.

    The mode solves Z'(y - g(X beta + Z b)) = Omega b; Newton-Raphson with
    per-subject step halving, iterated essentially to stationarity (the
    global-parameter gradient formulas differentiate the mode implicitly,
    which requires the stationarity equation to hold tightly). The search
    starts from start, (n, r) or broadcastable to the batch, when given
    (a fit passes the previous step's modes), and otherwise from a1's
    lambda, the mean of the same Gaussian approximation taken about the
    regularized estimates instead of the mode.
    Each point is evaluated once: the accepted candidate's h' and h'' give
    the next gradient and precision.
    """
    Omega = gp.Omega
    Xbeta = np.einsum("njp,...p->...nj", data.X, gp.beta)
    b = np.broadcast_to(transform_a1(data, gp).lam if start is None else start,
                        np.broadcast_shapes(Xbeta.shape[:-1] + (data.r,),
                                            Omega.shape[:-2] + (data.n, data.r))).copy()
    eta, h, h1, h2 = _evaluate(data, Xbeta, b)
    f = _conditional_objective(data, Xbeta, Omega, b, eta, h)
    for it in range(NR_MAX_ITER + 1):
        Om_b = np.einsum("...rs,...ns->...nr", Omega, b)
        grad = np.einsum("njr,...nj->...nr", data.Z, data.mask * (data.y - h1)) - Om_b
        P = Omega[..., None, :, :] + data.zwz(data.mask * h2)
        eta = h = h1 = h2 = None  # free this point's (..., n, J) arrays before the next
        scale = 1.0 + np.abs(Om_b).max(axis=-1)
        gnorm = np.abs(grad).max(axis=-1)
        active = gnorm > NR_TOL * scale
        if it == NR_MAX_ITER or not active.any():
            break
        step = np.linalg.solve(P, grad[..., None])[..., 0]
        t = active.astype(float)
        for _ in range(NR_MAX_HALVINGS + 1):
            cand = b + t[..., None] * step
            eta, h, h1, h2 = _evaluate(data, Xbeta, cand)
            f_new = _conditional_objective(data, Xbeta, Omega, cand, eta, h)
            bad = active & (f_new < f - 1e-10 * (np.abs(f) + 1.0)) & (t > 0)
            if not bad.any():
                break
            t = np.where(bad, 0.5 * t, t)
        else:
            t = np.where(bad, 0.0, t)  # no ascent found: freeze those subjects
        moved = active & (t > 0)
        if not moved.any():
            break
        # the last candidate is the new b of every subject but the frozen ones
        b = b + t[..., None] * step
        f = np.where(moved, f_new, f)
        if bad.any():
            eta, h, h1, h2 = _evaluate(data, Xbeta, b)
    if np.any(gnorm > NR_TOL_ACCEPT * scale):
        raise ModeSearchFailedError("Newton-Raphson mode search did not reach stationarity")
    Lam, L = _assemble(P)
    return Transforms("a2", b, L, Lam, base_eta=_eta(data, Xbeta, b))


def build_transforms(data, gp, method, start=None):
    """Transforms of the given method at theta_G; start is the a2 mode
    search's starting point (see transform_a2), unused by a1."""
    if method not in METHODS:
        raise ConfigError(f"unknown transform method {method!r}")
    try:
        return transform_a1(data, gp) if method == "a1" else transform_a2(data, gp, start)
    except np.linalg.LinAlgError as err:
        # overflowed omega / corrupted theta_G: same recoverable category
        raise NotPositiveDefiniteError(str(err)) from None
