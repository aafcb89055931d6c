"""Analytic gradient of the reparametrized log joint density.

The parameter vector is theta~ = [b~_1, ..., b~_n, beta, omega]. Because
(lambda_i, L_i) are functions of theta_G, the beta/omega blocks carry extra
terms from differentiating the transforms; the omega block additionally
carries the log-diagonal chain rule (dweight scaling applied last, so the
raw half-vec gradient in v(W) coordinates is available for checks).

Both transform methods share one routine: a1 is a2 with the expansion point
fixed at the regularized estimates instead of the conditional mode, which
does not move with theta_G, so a1 has no third-derivative correction
alpha_i. The family is evaluated once: derivs gives h and h' at
eta = X beta + Z b for the value and the residuals. Under a2, h''' at the
modes comes from the transforms' weight, h'' there (h3_from_h2). Only the
value (model.log_joint) reads the mask: Dataset zeroes X and Z on padding.
All functions broadcast over leading batch dimensions of theta_G and b~.
"""

from functools import lru_cache

import numpy as np

from . import matcalc, model


def _score(data, gp, b, h1):
    """Residuals y - g(eta), a_i = Z_i'(y_i - g(eta_i)) - Omega b_i and
    Omega b_i, from g(eta) = h'(eta)."""
    resid = data.y - h1
    omega_b = gp.omega_b(b)
    return resid, data.zt(resid) - omega_b, omega_b


def grad_local(transforms, a):
    """Gradient with respect to each b~_i: L_i' a_i."""
    return matcalc.matvec(transforms.L.swapaxes(-1, -2), np.asarray(a))


@lru_cache(maxsize=None)
def _lower_mask(r):
    tri = np.tri(r, dtype=bool)
    tri.setflags(write=False)
    return tri


def _sym_lower(B):
    """bar(B) + bar(B)' - dg(B): the symmetric matrix with B's lower triangle."""
    return np.where(_lower_mask(B.shape[-1]), B, B.swapaxes(-1, -2))


def value_and_grad(data, b_tilde, transforms, prior):
    """Reparametrized log joint (equal to model.log_joint_reparam) and its
    full gradient at (b~, theta_G), theta_G being transforms.gp, from one
    pass: b, eta and the residuals are computed once and shared. The
    gradient is one (..., n*r + p + g2) vector in theta~ order: b~ (n, r)
    flattened, beta, omega.
    """
    gp, L, lam, Lam = transforms.gp, transforms.L, transforms.lam, transforms.Lambda
    b = transforms.invert(b_tilde)
    eta = data.eta(gp.beta, b)
    h, h1 = data.family.derivs(eta, data.trials, 1)
    resid, a, omega_b = _score(data, gp, b, h1)
    value = (model.log_joint(data, gp, b, prior, eta=eta, h=h, omega_b=omega_b)
             + transforms.log_det_l())

    local = grad_local(transforms, a)
    LBL = L @ _sym_lower(local[..., :, None] * b_tilde[..., None, :]) @ L.swapaxes(-1, -2)
    Lam_LBL = Lam + LBL
    alpha = 0.0  # a2 only: the mode moves with theta_G, so a = a - Z'alpha
    if transforms.method == "a2":
        # h''' at the modes from the weight, h'' there: no second family call
        h3 = data.family.h3_from_h2(transforms.base_eta, transforms.weight)
        alpha = 0.5 * h3 * data.zmz(Lam_LBL)
        a = a - data.zt(alpha)
    t1 = matcalc.matvec(Lam, a)

    zt1 = data.zb(t1)
    beta_grad = (data.xt(resid - transforms.weight * zt1 - alpha)
                 - gp.beta / prior.sigma_beta2)

    # sum_i b_i b_i' + t1_i lam_i' + lam_i t1_i' + Lambda_i + L_i B~_i L_i'
    t1_lam = t1.swapaxes(-1, -2) @ lam
    M = (b.swapaxes(-1, -2) @ b + t1_lam + t1_lam.swapaxes(-1, -2)
         + Lam_LBL.sum(axis=-3))
    raw = data.n * gp.W_inv_t - M @ gp.W
    omega_grad = gp.W_dweight * matcalc.halfvec(raw) + prior.grad_omega(gp)
    flat_local = local.reshape(local.shape[:-2] + (-1,))
    return value, np.concatenate([flat_local, beta_grad, omega_grad], axis=-1)


def grad_full(data, b_tilde, transforms, prior):
    """Full gradient of the reparametrized log joint at (b~, transforms.gp)."""
    return value_and_grad(data, b_tilde, transforms, prior)[1]
