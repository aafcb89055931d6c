import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import engine, families, gradients, matcalc, model, reparam

import oracles
from conftest import (
    ALL_FAMILIES,
    fd_gradient,
    max_rel_err,
    random_dataset,
    random_gp,
    random_wishart_prior,
    reparam_value,
)


def full_fd(data, gp, b_tilde, method, prior, h=1e-5):
    theta = np.concatenate([b_tilde.ravel(), gp.beta, gp.omega])
    return fd_gradient(lambda th: float(reparam_value(data, th, method, prior)),
                       theta, h=h)


def analytic(data, gp, b_tilde, method, prior):
    return gradients.grad_full(data, b_tilde, reparam.build_transforms(data, gp, method),
                               prior).concat()


class TestAVec:
    def test_hand_case(self):
        data = model.Dataset.from_lists(families.POISSON, [[1.0, 2.0]],
                                        [[[0.0], [0.0]]], [[[1.0], [1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        a = oracles.a_vec(data, gp, np.array([[0.5]]))
        # eta = 0.5 each: Z'(y - e^eta) - Omega b
        expect = (1.0 - np.exp(0.5)) + (2.0 - np.exp(0.5)) - 0.5
        np.testing.assert_allclose(a, [[expect]], rtol=1e-12)

    def test_zero_at_mode(self, rng):
        data = random_dataset(rng, families.BERNOULLI, r=2, n=3)
        gp = random_gp(rng, 2, 2)
        t = reparam.transform_a2(data, gp)
        a = oracles.a_vec(data, gp, t.lam)
        assert np.abs(a).max() < 1e-7

    def test_matches_fd_in_b(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=2)
        gp = random_gp(rng, 2, 2)
        b = 0.4 * rng.standard_normal((2, 2))

        def conditional(bflat):
            bb = bflat.reshape(2, 2)
            eta = data.eta(gp.beta, bb)
            h = data.family.derivs(eta, data.trials, 0)[0]
            ll = (data.mask * (data.y * eta - h)).sum()
            quad = np.einsum("nr,rs,ns->", bb, gp.omega_matrix(), bb)
            return float(ll - 0.5 * quad)

        fd = fd_gradient(conditional, b.ravel()).reshape(2, 2)
        assert max_rel_err(oracles.a_vec(data, gp, b), fd) < 1e-6


class TestLocalBlocks:
    def test_identity_and_scalar(self):
        t = reparam.Transforms("a1", np.zeros((1, 2)), np.eye(2)[None],
                               np.eye(2)[None])
        a = np.array([[1.5, -0.5]])
        np.testing.assert_array_equal(gradients.grad_local(t, a), a)
        t1 = reparam.Transforms("a1", np.zeros((1, 1)), np.full((1, 1, 1), 2.0),
                                np.full((1, 1, 1), 4.0))
        np.testing.assert_array_equal(gradients.grad_local(t1, [[3.0]]), [[6.0]])

    def test_btilde_strictly_upper_vanishes(self):
        t = reparam.Transforms("a1", np.zeros((1, 2)), np.eye(2)[None],
                               np.eye(2)[None])
        a = np.array([[1.0, 0.0]])
        bt = np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(oracles.btilde_mat(t, a, bt),
                                      np.zeros((1, 2, 2)))

    def test_btilde_zero_b(self, rng):
        data = random_dataset(rng, families.POISSON, r=2, n=2)
        gp = random_gp(rng, 2, 2)
        t = reparam.transform_a1(data, gp)
        a = rng.standard_normal((2, 2))
        np.testing.assert_array_equal(oracles.btilde_mat(t, a, np.zeros((2, 2))),
                                      np.zeros((2, 2, 2)))

    def test_local_gradient_zero_at_mode(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=4)
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        t = reparam.build_transforms(data, gp, "a2")
        g = gradients.grad_full(data, np.zeros((4, 1)), t, pr)
        assert np.abs(g.local).max() < 1e-7


class TestGlobalBlocks:
    def test_no_subjects_prior_only(self, rng):
        data = model.Dataset(families.POISSON, np.zeros((0, 1)), np.zeros((0, 1, 2)),
                             np.zeros((0, 1, 1)))
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        t = reparam.build_transforms(data, gp, "a1")
        g = gradients.grad_full(data, np.zeros((0, 1)), t, pr)
        np.testing.assert_allclose(g.beta, -gp.beta / pr.sigma_beta2, atol=1e-14)
        np.testing.assert_allclose(g.omega, pr.grad_omega(gp), atol=1e-14)

    def test_gaussian_methods_agree(self, rng):
        for _ in range(10):
            r = int(rng.integers(1, 4))
            data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=r, n=3)
            gp = random_gp(rng, 2, r)
            pr = random_wishart_prior(rng, r)
            bt = rng.standard_normal((3, r))
            g1 = gradients.grad_full(data, bt, reparam.build_transforms(data, gp, "a1"), pr)
            g2 = gradients.grad_full(data, bt, reparam.build_transforms(data, gp, "a2"), pr)
            np.testing.assert_allclose(g1.beta, g2.beta, atol=1e-10)
            np.testing.assert_allclose(g1.omega, g2.omega, atol=1e-10)

    def test_bernoulli_alpha_hand_assembly(self, rng):
        # single subject, single observation: alpha has one entry
        data = model.Dataset.from_lists(families.BERNOULLI, [[1.0]], [[[1.0]]],
                                        [[[1.0]]])
        gp = model.GlobalParams([0.3], [0.1], 1)
        pr = random_wishart_prior(rng, 1)
        t = reparam.transform_a2(data, gp)
        bt = np.array([[0.7]])
        a = oracles.a_vec(data, gp, t.invert(bt))
        Bt = oracles.btilde_mat(t, a, bt)
        S = t.Lambda + t.L @ Bt @ np.swapaxes(t.L, -1, -2)
        base = float(gp.beta[0] + t.lam[0, 0])
        sig = 1.0 / (1.0 + np.exp(-base))
        alpha_hand = 0.5 * sig * (1 - sig) * (1 - 2 * sig) * float(S[0, 0, 0])
        w = data.mask * data.family.derivs(t.base_eta, data.trials, 2)[2]
        alpha_code = 0.5 * data.mask * data.family.derivs(t.base_eta, data.trials, 3)[3] * \
            np.einsum("njr,nrs,njs->nj", data.Z, S, data.Z)
        np.testing.assert_allclose(alpha_code[0, 0], alpha_hand, rtol=1e-12)
        assert w.shape == (1, 1)

    def test_permutation_equivariance(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=5)
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        bt = rng.standard_normal((5, 1))
        g = gradients.grad_full(data, bt, reparam.build_transforms(data, gp, "a1"), pr)
        perm = rng.permutation(5)
        sub = data.subset(perm)
        gperm = gradients.grad_full(sub, bt[perm], reparam.build_transforms(sub, gp, "a1"), pr)
        np.testing.assert_allclose(gperm.local, g.local[perm], atol=1e-12)
        np.testing.assert_allclose(gperm.beta, g.beta, atol=1e-12)
        np.testing.assert_allclose(gperm.omega, g.omega, atol=1e-12)


ALL_COMBOS = [(f, m, r) for f in ["poisson", "binomial", "bernoulli", "gaussian-unit"]
              for m in ("a1", "a2") for r in (1, 2, 3)]


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("famname,method,r", ALL_COMBOS,
                             ids=[f"{f}-{m}-r{r}" for f, m, r in ALL_COMBOS])
    def test_full_gradient(self, famname, method, r):
        # the acceptance suite sweeps 100 configurations; this is a fast
        # per-combination smoke version of the same oracle
        rng = np.random.default_rng(hash((famname, method, r)) % 2 ** 32)
        fam = oracles.family(famname)
        worst = 0.0
        for _ in range(5):
            data = random_dataset(rng, fam, r=r, n=2, p=2, ni_max=4)
            gp = random_gp(rng, 2, r)
            pr = random_wishart_prior(rng, r)
            bt = 0.8 * rng.standard_normal((data.n, r))
            got = analytic(data, gp, bt, method, pr)
            fd = full_fd(data, gp, bt, method, pr)
            worst = max(worst, max_rel_err(got, fd))
        assert worst < 1e-5

    def test_normal_omega_prior_gradient(self, rng):
        data = random_dataset(rng, families.BERNOULLI, r=1, n=3)
        pr = model.normal_omega_prior(1, sd=10.0)
        gp = random_gp(rng, 2, 1)
        bt = rng.standard_normal((3, 1))
        for method in reparam.METHODS:
            got = analytic(data, gp, bt, method, pr)
            fd = full_fd(data, gp, bt, method, pr)
            assert max_rel_err(got, fd) < 1e-5

    def test_omega_gradient_sign_is_negative_sum(self, rng):
        # the transform/likelihood sum enters with a minus sign; flipping it
        # must break the finite-difference agreement
        data = random_dataset(rng, families.POISSON, r=2, n=3)
        gp = random_gp(rng, 2, 2)
        pr = random_wishart_prior(rng, 2)
        bt = rng.standard_normal((3, 2))
        got = analytic(data, gp, bt, "a1", pr)
        fd = full_fd(data, gp, bt, "a1", pr)
        assert max_rel_err(got, fd) < 1e-5
        t = reparam.transform_a1(data, gp)
        b = t.invert(bt)
        a = oracles.a_vec(data, gp, b)
        Bt = oracles.btilde_mat(t, a, bt)
        LBL = t.L @ Bt @ np.swapaxes(t.L, -1, -2)
        t1 = np.einsum("nrs,ns->nr", t.Lambda, a)
        M = (b[:, :, None] * b[:, None, :] + t1[:, :, None] * t.lam[:, None, :]
             + t.lam[:, :, None] * t1[:, None, :] + t.Lambda + LBL).sum(axis=0)
        W = gp.w_matrix()
        W_invT = np.linalg.inv(W).T
        flipped = (matcalc.dweight(W) * matcalc.halfvec(data.n * W_invT + M @ W)
                   + pr.grad_omega(gp))
        fd_omega = fd[-data.g2:]
        assert max_rel_err(flipped, fd_omega) > 1e-2


PRIOR_KINDS = ("wishart", "normal-omega", "known-omega")


def make_prior(rng, kind, r):
    if kind == "wishart":
        return random_wishart_prior(rng, r)
    if kind == "normal-omega":
        return model.normal_omega_prior(r, sd=2.0)
    return oracles.KnownOmega(100.0, 0.3 * rng.standard_normal(matcalc.half_len(r)))


def random_case(famname, r, prior_kind, seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, oracles.family(famname), r=r, n=2, p=2, ni_max=4)
    gp = random_gp(rng, 2, r)
    pr = make_prior(rng, prior_kind, r)
    return data, gp, pr, 0.8 * rng.standard_normal((data.n, r))


CASES = dict(famname=st.sampled_from([f.name for f in ALL_FAMILIES]),
             method=st.sampled_from(reparam.METHODS), r=st.integers(1, 3),
             prior_kind=st.sampled_from(PRIOR_KINDS), seed=st.integers(0, 2 ** 32 - 1))


class TestValueAndGradProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**CASES)
    def test_gradient_matches_finite_differences(self, famname, method, r, prior_kind, seed):
        data, gp, pr, bt = random_case(famname, r, prior_kind, seed)
        assert max_rel_err(analytic(data, gp, bt, method, pr),
                           full_fd(data, gp, bt, method, pr)) < 1e-5

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**CASES)
    def test_value_is_log_joint_reparam(self, famname, method, r, prior_kind, seed):
        data, gp, pr, bt = random_case(famname, r, prior_kind, seed)
        t = reparam.build_transforms(data, gp, method)
        value, _ = gradients.value_and_grad(data, bt, t, pr)
        assert value == model.log_joint_reparam(data, bt, t, pr)


def _count_family_calls(monkeypatch, fam):
    """Record the eta of every fam.derivs call from here on."""
    calls, derivs = [], fam.derivs

    def counted(eta, trials, k):
        calls.append(eta)
        return derivs(eta, trials, k)

    monkeypatch.setattr(fam, "derivs", counted)
    return calls


class TestOneFamilyCallPerPoint:
    """h and its derivatives at one eta come from one derivs call: an a1
    step evaluates the family once, at the draw's eta (h'' at the
    regularized estimates is cached), and an a2 gradient twice, at the
    draw's eta and at the modes (h''' there; the transforms carry h'')."""

    def test_a1_step(self, rng, monkeypatch):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4, p=2)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a1", seed=5)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        adam = engine.AdamState.zeros(state.params.size)
        engine.step(data, prior, cfg, state, adam, 1)  # fills the a1 cache
        calls = _count_family_calls(monkeypatch, data.family)
        for t in range(2, 6):
            engine.step(data, prior, cfg, state, adam, t)
        assert len(calls) == 4

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    def test_a2_gradient(self, rng, monkeypatch, lead):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4, p=2)
        gp = model.GlobalParams(0.4 * rng.standard_normal(lead + (2,)),
                                0.4 * rng.standard_normal(lead + (3,)), 2)
        prior = random_wishart_prior(rng, 2)
        t = reparam.build_transforms(data, gp, "a2")
        b_tilde = rng.standard_normal(lead + (data.n, 2))
        calls = _count_family_calls(monkeypatch, data.family)
        gradients.value_and_grad(data, b_tilde, t, prior)
        assert len(calls) == 2
        assert sum(eta is t.base_eta for eta in calls) == 1
