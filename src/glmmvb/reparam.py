"""Per-subject affine transforms b~_i = L_i^{-1}(b_i - lambda_i).

(lambda_i, Lambda_i = L_i L_i^T) come from a Gaussian approximation of the
conditional posterior of b_i given the global parameters:

* method "a1": second-order Taylor expansion of the likelihood about a
  regularized per-observation natural-parameter estimate (finite even on
  the support boundary), combined with the random-effects prior;
* method "a2": expansion about the conditional posterior mode, found by
  Newton-Raphson with step halving, started from a1's lambda or from the
  modes predicted from an anchor (predict_modes), and from a1's lambda
  again when the search from the prediction fails.

Everything broadcasts over leading batch dimensions of the global
parameters (one global draw during fitting, many during posterior
simulation). The per-dataset pieces that do not depend on the global
parameters are cached on the dataset.
"""

from dataclasses import dataclass

import numpy as np

from . import matcalc
from .exceptions import RECOVERABLE, ConfigError, ModeSearchFailedError

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
    weight: np.ndarray | None = None    # (..., n, J) mask * h''(base_eta)
    gp: object = None                   # the GlobalParams they were built at

    def invert(self, b_tilde):
        """b = L b~ + lambda."""
        return np.einsum("...nrs,...ns->...nr", self.L, b_tilde) + self.lam

    def log_det_l(self):
        """sum_i log|L_i| = sum of log diagonal entries."""
        diag = np.diagonal(self.L, axis1=-2, axis2=-1)
        return np.log(diag).sum(axis=(-1, -2))


# ---------------------------------------------------------------------------
# method a1


def transform_a1(data, gp):
    """Transforms from the Taylor expansion about the regularized estimates
    eta_hat, H = mask * h''(eta_hat); the parts that do not depend on
    theta_G are cached on the dataset, among them the weight
    mask * h''(eta_hat), which the transforms carry for the gradient.

    Lambda_i = (Omega + Z'H(eta_hat)Z)^{-1},
    lambda_i = Lambda_i Z'{y - g(eta_hat) + H(eta_hat)(eta_hat - X beta)}.
    """
    if "a1" not in data.cache:
        # the parts free of theta_G: Z'HZ, Z'{y - g + H eta_hat} and Z'HX
        fam, eta_hat = data.family, data.eta_hat_reg()
        _, h1, h2 = fam.derivs(eta_hat, data.trials, 2)
        w = data.mask * h2
        resid = data.mask * (data.y - h1) + w * eta_hat
        data.cache["a1"] = (np.einsum("njr,nj,njs->nrs", data.Z, w, data.Z),
                            np.einsum("njr,nj->nr", data.Z, resid),
                            np.einsum("njr,nj,njp->nrp", data.Z, w, data.X), w)
    K, c, ZWX, w = data.cache["a1"]
    Lam, L = matcalc.spd_inv_cholesky(gp.Omega[..., None, :, :] + K)
    rhs = c - np.einsum("...nrp,...p->...nr", ZWX, gp.beta)
    lam = np.einsum("...nrs,...ns->...nr", Lam, rhs)
    return Transforms("a1", lam, L, Lam, base_eta=data.eta_hat_reg(), weight=w, gp=gp)


# ---------------------------------------------------------------------------
# method a2


def _eta(data, Xbeta, b):
    return Xbeta + np.einsum("njr,...nr->...nj", data.Z, b)


def _conditional_objective(data, Xbeta, Omega, b, eta=None, h=None, Om_b=None):
    """Per-subject log p(y_i, b_i | theta_G) up to constants:
    sum_j {y eta - h(eta)} - b'Omega b / 2, with eta = X beta + Z b, h(eta)
    and Omega b computed here unless the caller has them."""
    if eta is None:
        eta = _eta(data, Xbeta, b)
    if h is None:
        h = data.family.derivs(eta, data.trials, 0)[0]
    if Om_b is None:
        Om_b = _omega_b(Omega, b)
    ll = data.y * eta  # the one (..., n, J) temporary
    ll -= h
    ll *= data.mask
    ll = ll.sum(axis=-1)
    return ll - 0.5 * (b * Om_b).sum(axis=-1)


def _omega_b(Omega, b):
    """Omega b_i per subject, (..., n, r)."""
    return b @ np.swapaxes(Omega, -1, -2)


def _evaluate(data, Xbeta, Omega, b, eta=None):
    """The one evaluation of a point b: (objective, h', h'', eta, Omega b),
    with eta = X beta + Z b unless given and h, h', h'' from one family
    call. The loop keeps all but h: the gradient and the precision come
    from h' and h'', the gradient and its scale from Omega b, and the
    expansion point from eta."""
    if eta is None:
        eta = _eta(data, Xbeta, b)
    h, h1, h2 = data.family.derivs(eta, data.trials, 2)
    Om_b = _omega_b(Omega, b)
    return _conditional_objective(data, Xbeta, Omega, b, eta, h, Om_b), h1, h2, eta, Om_b


def transform_a2(data, gp, start=None):
    """Transforms from the expansion about the conditional posterior mode.

    The mode solves Z'(y - g(X beta + Z b)) = Omega b; Newton-Raphson with
    per-subject step halving, iterated essentially to stationarity (the
    global-parameter gradient formulas differentiate the mode implicitly,
    which requires the stationarity equation to hold tightly). The search
    starts from start, (n, r) or broadcastable to the batch, when given
    (build_transforms passes the modes predicted from an anchor), and
    otherwise from a1's lambda, the mean of the same Gaussian approximation
    taken about the regularized estimates instead of the mode.
    Each point is evaluated once (_evaluate): an accepted candidate is the
    next point, with its eta, Omega b, h' and h'', which give the next
    gradient and precision; the last point's eta is the expansion point
    and mask * h'' there the weight the gradient takes (Transforms.weight).
    A candidate whose linear predictor exceeds the family's eta_max counts
    as a failed ascent and is halved, evaluated meanwhile at its subject's
    current eta, so the family never sees it; a start beyond eta_max
    raises OverflowGuardError.
    """
    Omega = gp.Omega
    eta_max = data.family.eta_max
    Xbeta = np.einsum("njp,...p->...nj", data.X, gp.beta)
    b = transform_a1(data, gp).lam if start is None else np.asarray(start, dtype=float)
    shape = np.broadcast_shapes(Xbeta.shape[:-1] + (data.r,), Omega.shape[:-2] + (data.n, data.r))
    # each step rebinds b and none writes into it, so a full-shaped start is
    # not copied (the modes are start itself if no step moves them)
    if b.shape != shape:
        b = np.broadcast_to(b, shape).copy()
    f, h1, h2, eta, Om_b = _evaluate(data, Xbeta, Omega, b)
    for it in range(NR_MAX_ITER + 1):
        grad = np.einsum("njr,...nj->...nr", data.Z, data.mask * (data.y - h1)) - Om_b
        w = data.mask * h2
        P = data.zwz(w)
        P += Omega[..., None, :, :]  # in place, while w is still held
        h1 = h2 = None  # free this point's (..., n, J) arrays before the next
        scale = 1.0 + np.abs(Om_b).max(axis=-1)
        gnorm = np.abs(grad).max(axis=-1)
        active = gnorm > NR_TOL * scale
        if it == NR_MAX_ITER or not active.any():
            break
        step = np.einsum("...nrs,...ns->...nr", matcalc.spd_inv(P), grad)
        if not np.isfinite(step).all():
            raise ModeSearchFailedError("non-finite Newton step")
        t = active.astype(float)
        for _ in range(NR_MAX_HALVINGS + 1):
            cand = b + t[..., None] * step
            eta_new = _eta(data, Xbeta, cand)
            over = (eta_new > eta_max).any(axis=-1)
            if over.any():
                eta_new = np.where(over[..., None], eta, eta_new)
            f_new, h1, h2, eta_new, Om_new = _evaluate(data, Xbeta, Omega, cand, eta_new)
            bad = active & (over | (f_new < f - 1e-10 * (np.abs(f) + 1.0))) & (t > 0)
            if not bad.any():
                break
            t = np.where(bad, 0.5 * t, t)
        else:
            t = np.where(bad, 0.0, t)  # no ascent found: freeze those subjects
        moved = active & (t > 0)
        if not moved.any():
            break
        # the last candidate is the new point of every subject but the frozen ones
        f = np.where(moved, f_new, f)
        if bad.any():
            b = np.where(bad[..., None], b, cand)
            _, h1, h2, eta, Om_b = _evaluate(data, Xbeta, Omega, b)
        else:
            b, eta, Om_b = cand, eta_new, Om_new
    if np.any(gnorm > NR_TOL_ACCEPT * scale):
        raise ModeSearchFailedError("Newton-Raphson mode search did not reach stationarity")
    Lam, L = matcalc.spd_inv_cholesky(P)
    return Transforms("a2", b, L, Lam, base_eta=eta, weight=w, gp=gp)


def predict_modes(data, anchor, gp):
    """First-order prediction of the a2 modes at theta_G = gp (any leading
    dims) from an anchor, a2 transforms built at anchor.gp.

    Differentiating the mode equation Z'(y - g(X beta + Z lam)) = Omega lam
    gives d lam = -Lambda {Z'WX d beta + d Omega lam}, with W the anchor's
    weight. Z'WX is contracted to (n, r, p) first, so a prediction for a
    batch makes no (B, n, J) array.
    """
    lam, at = anchor.lam, anchor.gp
    shift = (np.einsum("nrp,...p->...nr", data.zwx(anchor.weight), gp.beta - at.beta)
             + np.einsum("...rs,ns->...nr", gp.Omega - at.Omega, lam))
    return lam - np.einsum("nrs,...ns->...nr", anchor.Lambda, shift)


def build_transforms(data, gp, method, anchor=None):
    """Transforms of the given method at theta_G. An a2 mode search starts
    from the modes predicted from anchor (predict_modes), when given, and
    from a1's lambda otherwise, or when the search from the prediction
    fails recoverably; a1 ignores the anchor."""
    if method not in METHODS:
        raise ConfigError(f"unknown transform method {method!r}")
    if method == "a1":
        return transform_a1(data, gp)
    if anchor is not None:
        try:
            # a far-off start can overflow on its way to a recoverable
            # failure; its warnings belong to the discarded attempt
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return transform_a2(data, gp, predict_modes(data, anchor, gp))
        except RECOVERABLE:
            pass
    return transform_a2(data, gp)
