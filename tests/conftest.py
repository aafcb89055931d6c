"""Shared test helpers: random model configurations and finite differences."""

import zlib

import numpy as np
import pytest

from glmmvb import families, matcalc, model, reparam

import oracles


def random_spd(rng, r, scale=1.0):
    a = rng.standard_normal((r, r))
    return scale * (a @ a.T + r * np.eye(r))


def random_dataset(rng, family, r=1, n=3, p=2, ni_max=5, beta_scale=0.4):
    """Small random dataset with responses drawn from the family."""
    n_obs = rng.integers(1, ni_max + 1, size=n)
    beta = beta_scale * rng.standard_normal(p)
    b = 0.6 * rng.standard_normal((n, r))
    y_list, X_list, Z_list, m_list = [], [], [], []
    for i in range(n):
        k = int(n_obs[i])
        X = np.hstack([np.ones((k, 1)), 0.5 * rng.standard_normal((k, p - 1))])
        Z = np.hstack([np.ones((k, 1)), 0.5 * rng.standard_normal((k, r - 1))])
        eta = X @ beta + Z @ b[i]
        m = rng.integers(1, 11, size=k).astype(float)
        if family.name == "poisson":
            y = rng.poisson(np.exp(np.clip(eta, -20, 3))).astype(float)
            m = np.ones(k)
        elif family.name == "binomial":
            y = rng.binomial(m.astype(int), 1 / (1 + np.exp(-eta))).astype(float)
        elif family.name == "bernoulli":
            y = (rng.random(k) < 1 / (1 + np.exp(-eta))).astype(float)
            m = np.ones(k)
        else:
            y = eta + rng.standard_normal(k)
            m = np.ones(k)
        y_list.append(y)
        X_list.append(X)
        Z_list.append(Z)
        m_list.append(m)
    return model.Dataset.from_lists(family, y_list, X_list, Z_list, trials_list=m_list)


def separable_bernoulli(n=20, k=5, seed=0):
    """Bernoulli responses y = 1 exactly where the covariate x is positive,
    with an intercept in X and Z: the pooled GLM's likelihood has no mode."""
    x = np.random.default_rng(seed).standard_normal((n, k))
    X = np.stack([np.ones((n, k)), x], axis=-1)
    return model.Dataset(families.BERNOULLI, (x > 0).astype(float), X, np.ones((n, k, 1)))


def random_gp(rng, p, r, scale=0.4):
    g2 = matcalc.half_len(r)
    return model.GlobalParams(scale * rng.standard_normal(p),
                              scale * rng.standard_normal(g2), r)


def random_wishart_prior(rng, r, nu_extra=1.0):
    return model.WishartPrior(100.0, r - 1 + nu_extra, random_spd(rng, r))


def reparam_value(data, theta, method, prior):
    """log_joint_reparam as a function of theta~ (..., n r + g), one value per
    leading index, transforms rebuilt from the contained theta_G (the
    finite-difference oracle path)."""
    n, r, p = data.n, data.r, data.p
    b_tilde = theta[..., : n * r].reshape(theta.shape[:-1] + (n, r))
    beta = theta[..., n * r: n * r + p]
    omega = theta[..., n * r + p:]
    transforms = reparam.build_transforms(data, model.GlobalParams(beta, omega, r), method)
    return model.log_joint_reparam(data, b_tilde, transforms, prior)


def grad_blocks(data, grad):
    """(b~ (..., n, r), beta, omega) blocks of a value_and_grad gradient."""
    nr = data.n * data.r
    local = grad[..., :nr].reshape(grad.shape[:-1] + (data.n, data.r))
    return local, grad[..., nr:nr + data.p], grad[..., nr + data.p:]


def fd_gradient(f, x, h=1e-5):
    """Central finite differences at the vector x of f, a function of a
    leading axis of points: f is called once, on the 2 x.size points
    x + h e_k, then x - h e_k, and row k of the result is
    (f(x + h e_k) - f(x - h e_k)) / 2h. A vector-valued f gives the
    transposed Jacobian."""
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.size)
    values = np.asarray(f(np.concatenate([x + step, x - step])))
    return (values[: x.size] - values[x.size:]) / (2 * h)


def max_rel_err(approx, exact):
    """Max |approx - exact| / (1 + |exact|)."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))))


def case_seed(*names):
    """A seed fixed by the names of a case: a failure replays in any process,
    where hash() of a str would change with the process's salt."""
    return zlib.crc32(repr(names).encode())


ALL_FAMILIES = [families.POISSON, families.BINOMIAL, families.BERNOULLI,
                oracles.GAUSSIAN_UNIT]


# ---------------------------------------------------------------------------
# Gauss-Hermite evidence oracle for the known-omega gaussian-unit micro model.
# Written from scratch against the joint density definition; independent of
# the package's transform/gradient/ELBO code paths.


def gh_integral(logf, center, scale, n_nodes=80):
    """integral of exp(logf(b)) db by probabilists' Gauss-Hermite."""
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    b = center + scale * x
    vals = np.array([logf(float(bi)) for bi in b])
    return scale * float(np.sum(w * np.exp(vals + 0.5 * x * x)))


def _subject_log_factor(data, i, beta, omega_mat):
    k = int(data.n_obs[i])
    yv, Xv, Zv = data.y[i, :k], data.X[i, :k], data.Z[i, :k, 0]
    om = float(np.asarray(omega_mat).item())

    def logf(b):
        eta = Xv @ beta + Zv * b
        return float((yv * eta - 0.5 * eta * eta).sum()) - 0.5 * om * b * b

    return logf


def _gh_log_integral(logf, center, scale, n_nodes=80):
    """log of integral exp(logf(b)) db, log-domain for stability."""
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    vals = np.array([logf(float(center + scale * xi)) for xi in x])
    vals = vals + 0.5 * x * x + np.log(w)
    mx = vals.max()
    return float(np.log(scale) + mx + np.log(np.exp(vals - mx).sum()))


def _fd_mode_and_scale(logf, start=0.0):
    """Mode and curvature scale of a smooth unimodal log-integrand, found by
    finite-difference Newton (independent of any library gradient code)."""
    b = start
    h = 1e-4
    g2 = -1.0
    for _ in range(100):
        g1 = (logf(b + h) - logf(b - h)) / (2 * h)
        g2 = (logf(b + h) - 2 * logf(b) + logf(b - h)) / (h * h)
        step = -g1 / g2
        b += step
        if abs(step) < 1e-11:
            break
    return b, 1.0 / np.sqrt(-g2)


def gh_log_marginal_beta(data, beta, omega0, sigma_beta2):
    """log integral over all b of the (constant-dropped) joint at fixed beta."""
    gp = model.GlobalParams(beta, omega0, 1)
    om = gp.omega_matrix().item()
    total = data.n * 0.5 * np.log(om) - float(beta @ beta) / (2 * sigma_beta2)
    for i in range(data.n):
        logf = _subject_log_factor(data, i, beta, om)
        center, scale = _fd_mode_and_scale(logf)
        total += _gh_log_integral(logf, center, scale)
    return float(total)


def exact_elbo_known_omega_micro(data, omega0, sigma_beta2, n_nodes=80):
    """The value a perfectly fit ELBO must reach on the known-omega
    gaussian-unit model (p = r = 1), under the package's dropped-constant
    convention: log evidence minus (d/2) log 2pi for d = n r + p."""
    assert data.p == 1 and data.r == 1

    def g(b):
        return gh_log_marginal_beta(data, np.array([b]), omega0, sigma_beta2)

    center, scale = _fd_mode_and_scale(g)
    log_evidence = _gh_log_integral(g, center, scale, n_nodes)
    d = data.n * data.r + data.p
    return log_evidence - 0.5 * d * np.log(2 * np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
