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

The a2 mode search works on the dataset's observation-major layout
(model._ObsMajor): (..., J, n) per observation, (..., r, n) per subject,
so its inner loops run over the n subjects. The Transforms it returns
read its arrays as (..., n, r) and (..., n, J) views, every other
module's layout.
"""

from dataclasses import dataclass

import numpy as np

from . import matcalc
from .exceptions import RECOVERABLE, ConfigError, ModeSearchFailedError, OverflowGuardError

NR_MAX_ITER = 100
NR_TOL = 1e-11
NR_TOL_ACCEPT = 1e-8  # guaranteed stationarity level
NR_MAX_HALVINGS = 20
# a block of draws searches on its rows with an active subject alone once
# at most this share of its rows have one: on epilepsy II's 2,000-draw
# simulate_b, shares of 0.25 to 0.75 evaluated the same 8,199 rows (10,006
# without gathering), and a share of 1, a gather at every pass, ran 20% slower
NR_GATHER = 0.5

METHODS = ("a1", "a2")


@dataclass
class Transforms:
    """Affine transforms for all subjects at one (batch of) theta_G."""

    method: str
    lam: np.ndarray      # (..., n, r)
    L: np.ndarray        # (..., n, r, r) lower, positive diagonal
    Lambda: np.ndarray   # (..., n, r, r) SPD
    base_eta: np.ndarray | None = None  # (..., n, J) Taylor expansion point
    weight: np.ndarray | None = None    # (..., n, J) h''(base_eta), padded cells too
    gp: object = None                   # the GlobalParams they were built at

    def invert(self, b_tilde):
        """b = L b~ + lambda."""
        return matcalc.matvec(self.L, b_tilde) + self.lam

    def log_det_l(self):
        """sum_i log|L_i| = sum of log diagonal entries."""
        return np.log(self.L.diagonal(0, -2, -1)).sum(axis=(-1, -2))


# ---------------------------------------------------------------------------
# method a1


def transform_a1(data, gp):
    """Transforms from the Taylor expansion about the regularized estimates
    eta_hat, H = h''(eta_hat); the parts that do not depend on theta_G are
    cached on the dataset, among them the weight h''(eta_hat), unmasked
    (Dataset's zero Z and X drop padding), which the transforms carry.

    Lambda_i = (Omega + Z'H(eta_hat)Z)^{-1},
    lambda_i = Lambda_i Z'{y - g(eta_hat) + H(eta_hat)(eta_hat - X beta)}.
    """
    if "a1" not in data.cache:
        # the parts free of theta_G: Z'HZ, Z'{y - g + H eta_hat} and Z'HX
        fam, eta_hat = data.family, data.eta_hat_reg()
        _, h1, h2 = fam.derivs(eta_hat, data.trials, 2)
        data.cache["a1"] = (matcalc.sym_blocks(data._obs_major().zwz(h2.T)),
                            data.zt(data.y - h1 + h2 * eta_hat), data.zwx(h2), h2)
    K, c, ZWX, w = data.cache["a1"]
    Lam, L = matcalc.spd_inv_cholesky(gp.Omega[..., None, :, :] + K)
    rhs = c - matcalc.matvec_fixed(ZWX, gp.beta)
    lam = matcalc.matvec(Lam, rhs)
    return Transforms("a1", lam, L, Lam, base_eta=data.eta_hat_reg(), weight=w, gp=gp)


# ---------------------------------------------------------------------------
# method a2


def _conditional_objective(obs, b, eta, h, Om_b):
    """Per-subject log p(y_i, b_i | theta_G) up to constants, (..., n):
    sum_j {y eta - h(eta)} - b'Omega b / 2, from eta = X beta + Z b, h(eta)
    and Omega b, in obs's (model._ObsMajor) layout. Padded cells are summed
    too: Dataset zeroes their y, X and Z, so each adds -h(0) at every b of
    its subject, and the search only compares values within a subject."""
    ll = obs.y * eta  # the one (..., J, n) temporary
    ll -= h
    quad = np.add.reduce(b * Om_b, axis=-2)
    return obs.sum_obs(ll) - 0.5 * quad


def _evaluate(data, obs, Xbeta, Omega, b, eta=None):
    """The one evaluation of a point b (..., r, n): (objective, h', h'', eta,
    Omega b), with eta = X beta + Z b unless given and h, h', h'' from one
    family call, all in obs's layout. The loop keeps all but h: the
    gradient and the precision come from h' and h'', the gradient and its
    scale from Omega b, and the expansion point from eta."""
    if eta is None:
        eta = obs.eta(Xbeta, b)
    h, h1, h2 = data.family.derivs(eta, obs.trials, 2)
    Om_b = Omega @ b
    return _conditional_objective(obs, b, eta, h, Om_b), h1, h2, eta, Om_b


def _put_rows(kept, rows, arrays):
    """Write arrays, the rows of a block still searched, into kept, the
    block's outputs, at their block rows `rows`."""
    for out, a in zip(kept, arrays):
        out[rows] = a


def transform_a2(data, gp, start=None):
    """Transforms from the expansion about the conditional posterior mode.

    The mode solves Z'(y - g(X beta + Z b)) = Omega b; Newton-Raphson with
    per-subject step halving, iterated essentially to stationarity (the
    global-parameter gradient formulas differentiate the mode implicitly,
    which requires the stationarity equation to hold tightly). The search
    starts from start, full-shaped (..., n, r), when given (build_transforms
    passes the modes predicted from an anchor), and otherwise from a1's
    lambda, the mean of the same Gaussian approximation taken about the
    regularized estimates. No step writes into b, so start is not copied
    (the modes are start itself if no step moves them).

    The loop works observation-major (model._ObsMajor): eta, h' and h''
    are (..., J, n), b, Omega b, the gradient and the step (..., r, n), and
    P the half-vec columns (..., r(r+1)/2, n) that matcalc.spd_solve takes.

    Each point is evaluated once (_evaluate): an accepted candidate is the
    next point, with its eta, Omega b, h' and h'' for the next gradient and
    precision; the last point's eta is the expansion point and h'' there
    the weight (Transforms.weight). No step reads the mask: Dataset zeroes
    padded y, X and Z (_conditional_objective). A candidate whose linear
    predictor exceeds the family's eta_max, which the family's one scan
    reports by raising OverflowGuardError, is a failed ascent: halved, and
    evaluated meanwhile at its subject's current eta; a start beyond
    eta_max raises OverflowGuardError.

    A block of draws (one leading axis) drops its finished rows: once at
    most NR_GATHER of the rows it searches have an active subject, the
    search goes on with those rows' state gathered, and the others' point,
    weight, precision and stationarity figures wait in the outputs. Every
    kernel computes a row from that row's entries alone, so the result is
    the whole block's, byte for byte.
    """
    obs = data._obs_major()
    Omega = gp.Omega
    Om_h = matcalc.halfvec(Omega)[..., None]
    Xbeta = obs.xbeta(gp.beta)
    b = (transform_a1(data, gp).lam if start is None else start).swapaxes(-1, -2)
    f, h1, h2, eta, Om_b = _evaluate(data, obs, Xbeta, Omega, b)
    kept = rows = None  # a block's outputs and its rows still searched, once gathered
    for it in range(NR_MAX_ITER + 1):
        grad = obs.zt(obs.y - h1) - Om_b
        P = obs.zwz(h2)
        P += Om_h  # in place, while h2 is still held
        w, h1 = h2, None  # h'' for the weight; free h' before the next point
        scale = 1.0 + matcalc.absmax(Om_b)
        gnorm = matcalc.absmax(grad)
        active = gnorm > NR_TOL * scale
        n_active = 0 if it == NR_MAX_ITER else np.count_nonzero(active)
        if not n_active:
            break
        step = matcalc.spd_solve(P, grad)
        if np.count_nonzero(np.isfinite(step)) != step.size:
            raise ModeSearchFailedError("non-finite Newton step")
        if b.ndim == 3:  # a block of draws: its finished rows leave the search
            live = active.any(axis=-1)
            if np.count_nonzero(live) <= NR_GATHER * len(live):
                if rows is None:  # the outputs; b may be start, and w is the family's
                    kept, rows = [b.copy(), eta, w.copy(), P, gnorm, scale], np.arange(len(live))
                else:
                    _put_rows(kept, rows, (b, eta, w, P, gnorm, scale))
                rows = rows[live]
                Xbeta, Omega, Om_h = (np.broadcast_to(a, live.shape + a.shape[-2:])
                                      for a in (Xbeta, Omega, Om_h))
                b, f, w, eta, P, gnorm, scale, active, step, Xbeta, Omega, Om_h = (
                    a[live] for a in (b, f, w, eta, P, gnorm, scale, active, step,
                                      Xbeta, Omega, Om_h))
        floor = f - 1e-10 * (np.abs(f) + 1.0)  # a candidate below it is no ascent
        t = active.astype(float)  # inactive subjects stay where they are
        for _ in range(NR_MAX_HALVINGS + 1):
            cand = b + t[..., None, :] * step
            eta_new = obs.eta(Xbeta, cand)
            over = None
            try:
                f_new, h1, h2, eta_new, Om_new = _evaluate(data, obs, Xbeta, Omega, cand, eta_new)
            except OverflowGuardError:  # the family's guard: some eta_new > eta_max
                over = (eta_new > data.family.eta_max).any(axis=-2)
                eta_new = np.where(over[..., None, :], eta, eta_new)
                f_new, h1, h2, eta_new, Om_new = _evaluate(data, obs, Xbeta, Omega, cand, eta_new)
            bad = f_new < floor
            bad &= active
            if over is not None:  # only where active: b itself is within eta_max
                bad |= over
            n_bad = np.count_nonzero(bad)
            if not n_bad:
                break
            t = np.where(bad, 0.5 * t, t)
        else:
            if n_bad == n_active:  # no ascent found for any subject
                break
        if n_bad:  # freeze the subjects without ascent, move the others
            f = np.where(bad, f, f_new)
            b = np.where(bad[..., None, :], b, cand)
            _, h1, h2, eta, Om_b = _evaluate(data, obs, Xbeta, Omega, b)
        else:  # an inactive subject's candidate is its point, with its value
            f, b, eta, Om_b = f_new, cand, eta_new, Om_new
    if rows is not None:
        _put_rows(kept, rows, (b, eta, w, P, gnorm, scale))
        b, eta, w, P, gnorm, scale = kept
    if np.count_nonzero(gnorm > NR_TOL_ACCEPT * scale):
        raise ModeSearchFailedError("Newton-Raphson mode search did not reach stationarity")
    Lam, L = matcalc.spd_inv_cholesky(matcalc.sym_blocks(P))
    return Transforms("a2", b.swapaxes(-1, -2), L, Lam, base_eta=eta.swapaxes(-1, -2),
                      weight=w.swapaxes(-1, -2), gp=gp)


def predict_modes(data, anchor, gp):
    """First-order prediction of the a2 modes at theta_G = gp (any leading
    dims) from an anchor, a2 transforms built at anchor.gp.

    Differentiating the mode equation Z'(y - g(X beta + Z lam)) = Omega lam
    gives d lam = -Lambda {Z'WX d beta + d Omega lam}, with W the anchor's
    weight. Z'WX is contracted to (n, r, p) first, so a prediction for a
    batch makes no (B, n, J) array.
    """
    lam, at = anchor.lam, anchor.gp
    shift = (matcalc.matvec_fixed(data.zwx(anchor.weight), gp.beta - at.beta)
             + matcalc.matvec_rows(gp.Omega - at.Omega, lam))
    return lam - matcalc.matvec(anchor.Lambda, shift)


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
