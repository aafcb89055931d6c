"""Analytic gradient of the reparametrized log joint density.

The parameter vector is theta~ = [b~_1, ..., b~_n, beta, omega]. Because
(lambda_i, L_i) are functions of theta_G, the beta/omega blocks carry extra
terms from differentiating the transforms; the omega block additionally
carries the log-diagonal chain rule (dweight scaling applied last, so the
raw half-vec gradient in v(W) coordinates is available for checks).

Both transform methods share one routine: a1 is a2 with the expansion point
fixed at the regularized estimates instead of the conditional mode, which
does not move with theta_G, so a1 has no third-derivative correction
alpha_i. The family is called once per point: derivs gives h and h' at
eta = X beta + Z b for the value and the residuals and, under a2, h''' at
the modes (h'' there is the transforms' weight). All functions broadcast
over leading batch dimensions of theta_G and b~.
"""

from dataclasses import dataclass

import numpy as np

from . import matcalc, model


@dataclass
class JointGradient:
    """Gradient blocks in theta~ order: locals, then beta, then omega."""

    local: np.ndarray  # (..., n, r)
    beta: np.ndarray   # (..., p)
    omega: np.ndarray  # (..., g2)

    def concat(self, include_omega=True):
        flat_local = self.local.reshape(self.local.shape[:-2] + (-1,))
        parts = [flat_local, self.beta] + ([self.omega] if include_omega else [])
        leads = {a.shape[:-1] for a in parts}
        if len(leads) > 1:
            lead = np.broadcast_shapes(*leads)
            parts = [np.broadcast_to(a, lead + a.shape[-1:]) for a in parts]
        return np.concatenate(parts, axis=-1)


def _score(data, gp, b, h1):
    """Masked residuals y - g(eta) and a_i = Z_i'(y_i - g(eta_i)) - Omega b_i,
    from g(eta) = h'(eta)."""
    resid = data.mask * (data.y - h1)
    return resid, (np.einsum("njr,...nj->...nr", data.Z, resid)
                   - np.einsum("...rs,...ns->...nr", gp.Omega, b))


def grad_local(transforms, a):
    """Gradient with respect to each b~_i: L_i' a_i."""
    return np.einsum("...nsr,...ns->...nr", transforms.L, a)


def _sym_lower(B):
    """bar(B) + bar(B)' - dg(B): the symmetric matrix with B's lower triangle."""
    return np.where(np.tri(B.shape[-1], dtype=bool), B, np.swapaxes(B, -1, -2))


def value_and_grad(data, b_tilde, transforms, prior):
    """Reparametrized log joint (equal to model.log_joint_reparam) and its
    full gradient at (b~, theta_G), theta_G being transforms.gp, from one
    pass: b, eta and the residuals are computed once and shared.
    """
    gp, L, lam, Lam = transforms.gp, transforms.L, transforms.lam, transforms.Lambda
    b = transforms.invert(b_tilde)
    eta = data.eta(gp.beta, b)
    h, h1 = data.family.derivs(eta, data.trials, 1)
    resid, a = _score(data, gp, b, h1)
    value = model.log_joint(data, gp, b, prior, eta=eta, h=h) + transforms.log_det_l()

    local = grad_local(transforms, a)
    LBL = L @ _sym_lower(local[..., :, None] * b_tilde[..., None, :]) @ np.swapaxes(L, -1, -2)
    alpha = 0.0  # a2 only: the mode moves with theta_G, so a = a - Z'alpha
    if transforms.method == "a2":
        h3 = data.family.derivs(transforms.base_eta, data.trials, 3)[3]
        alpha = 0.5 * data.mask * h3 * data.zmz(Lam + LBL)
        a = a - np.einsum("njr,...nj->...nr", data.Z, alpha)
    t1 = np.einsum("...nrs,...ns->...nr", Lam, a)

    zt1 = np.einsum("njr,...nr->...nj", data.Z, t1)
    beta_grad = (np.einsum("njp,...nj->...p", data.X, resid - transforms.weight * zt1 - alpha)
                 - gp.beta / prior.sigma_beta2)

    M = (b[..., :, None] * b[..., None, :]
         + t1[..., :, None] * lam[..., None, :]
         + lam[..., :, None] * t1[..., None, :]
         + Lam + LBL).sum(axis=-3)
    raw = data.n * gp.W_inv_t - M @ gp.W
    omega_grad = matcalc.dweight(gp.W) * matcalc.halfvec(raw) + prior.grad_omega(gp)
    return value, JointGradient(local, beta_grad, omega_grad)


def grad_full(data, b_tilde, transforms, prior):
    """Full gradient of the reparametrized log joint at (b~, transforms.gp)."""
    return value_and_grad(data, b_tilde, transforms, prior)[1]
