import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import datasets, engine, families, gradients, matcalc, model, reparam

import oracles
from conftest import (
    ALL_FAMILIES,
    case_seed,
    fd_gradient,
    grad_blocks,
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
                               prior)


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
        local, _, _ = grad_blocks(data, gradients.grad_full(data, np.zeros((4, 1)), t, pr))
        assert np.abs(local).max() < 1e-7


class TestGlobalBlocks:
    @pytest.mark.parametrize("method", reparam.METHODS)
    def test_no_subjects_prior_only(self, rng, method):
        data = model.Dataset(families.POISSON, np.zeros((0, 1)), np.zeros((0, 1, 2)),
                             np.zeros((0, 1, 1)))
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        t = reparam.build_transforms(data, gp, method)
        _, beta, omega = grad_blocks(data, gradients.grad_full(data, np.zeros((0, 1)), t, pr))
        np.testing.assert_allclose(beta, -gp.beta / pr.sigma_beta2, atol=1e-14)
        np.testing.assert_allclose(omega, pr.grad_omega(gp), atol=1e-14)

    def test_gaussian_methods_agree(self, rng):
        for _ in range(10):
            r = int(rng.integers(1, 4))
            data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=r, n=3)
            gp = random_gp(rng, 2, r)
            pr = random_wishart_prior(rng, r)
            bt = rng.standard_normal((3, r))
            g1 = grad_blocks(data, gradients.grad_full(
                data, bt, reparam.build_transforms(data, gp, "a1"), pr))
            g2 = grad_blocks(data, gradients.grad_full(
                data, bt, reparam.build_transforms(data, gp, "a2"), pr))
            np.testing.assert_allclose(g1[1], g2[1], atol=1e-10)
            np.testing.assert_allclose(g1[2], g2[2], atol=1e-10)

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
        h2 = data.family.derivs(t.base_eta, data.trials, 2)[2]
        w = data.mask * h2
        alpha_code = 0.5 * data.mask * data.family.h3_from_h2(t.base_eta, h2) * \
            np.einsum("njr,nrs,njs->nj", data.Z, S, data.Z)
        np.testing.assert_allclose(alpha_code[0, 0], alpha_hand, rtol=1e-12)
        assert w.shape == (1, 1)

    def test_permutation_equivariance(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=5)
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        bt = rng.standard_normal((5, 1))
        g = grad_blocks(data, gradients.grad_full(
            data, bt, reparam.build_transforms(data, gp, "a1"), pr))
        perm = rng.permutation(5)
        sub = data.subset(perm)
        gperm = grad_blocks(sub, gradients.grad_full(
            sub, bt[perm], reparam.build_transforms(sub, gp, "a1"), pr))
        np.testing.assert_allclose(gperm[0], g[0][perm], atol=1e-12)
        np.testing.assert_allclose(gperm[1], g[1], atol=1e-12)
        np.testing.assert_allclose(gperm[2], g[2], atol=1e-12)


ALL_COMBOS = [(f, m, r) for f in ["poisson", "binomial", "bernoulli", "gaussian-unit"]
              for m in ("a1", "a2") for r in (1, 2, 3)]


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("famname,method,r", ALL_COMBOS,
                             ids=[f"{f}-{m}-r{r}" for f, m, r in ALL_COMBOS])
    def test_full_gradient(self, famname, method, r):
        # the acceptance suite sweeps 100 configurations; this is a fast
        # per-combination smoke version of the same oracle
        rng = np.random.default_rng(case_seed(famname, method, r))
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


def _widened(data):
    """data with one more observation column, padding in every subject."""
    def pad(a, value=0.0):
        return np.pad(a, [(0, 0), (0, 1)] + [(0, 0)] * (a.ndim - 2), constant_values=value)
    return model.Dataset(data.family, pad(data.y), pad(data.X), pad(data.Z),
                         pad(data.trials, 1.0), data.n_obs)


class TestPaddingIsInvisible:
    """The mask enters only the value sums: a ragged dataset and the same
    dataset with an all-padding column added give the same value, gradient
    and transforms."""

    @pytest.mark.parametrize("method", reparam.METHODS)
    @pytest.mark.parametrize("fam", [families.POISSON, families.BINOMIAL, families.BERNOULLI],
                             ids=lambda f: f.name)
    def test_an_all_padding_column_changes_nothing(self, fam, method):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, fam, r=2, n=4, ni_max=5)
        wide = _widened(data)
        assert not data.mask.all() and wide.J == data.J + 1
        gp, pr = random_gp(rng, 2, 2), random_wishart_prior(rng, 2)
        bt = rng.standard_normal((4, 2))
        t, t_wide = (reparam.build_transforms(d, gp, method) for d in (data, wide))
        for got, want in zip(gradients.value_and_grad(wide, bt, t_wide, pr)
                             + (t_wide.lam, t_wide.L),
                             gradients.value_and_grad(data, bt, t, pr) + (t.lam, t.L)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
    regularized estimates is cached), and so does an a2 gradient: it takes
    h''' at the modes from the transforms' weight, h'' there."""

    def test_a1_step(self, rng, monkeypatch):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4, p=2)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a1", seed=5)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        adam = engine.AdamState.zeros(state.params.size)
        draws = engine.LaneStream(cfg.seed, engine.LANE_FIT)
        engine.step(data, prior, cfg, state, adam, 1, draws)  # fills the a1 cache
        calls = _count_family_calls(monkeypatch, data.family)
        for t in range(2, 6):
            engine.step(data, prior, cfg, state, adam, t, draws)
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
        third, h3_from_h2 = [], data.family.h3_from_h2

        def recorded(eta, h2):
            third.append((eta, h2))
            return h3_from_h2(eta, h2)

        monkeypatch.setattr(data.family, "h3_from_h2", recorded)
        gradients.value_and_grad(data, b_tilde, t, prior)
        assert len(calls) == 1 and calls[0] is not t.base_eta
        assert len(third) == 1 and third[0][0] is t.base_eta and third[0][1] is t.weight


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from here on."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEachQuantityOncePerStep:
    """A step computes Omega and dweight(W) once each, for the transforms,
    the joint, its gradient and the Wishart prior together, and calls no
    np.einsum: the step runs on the contraction kernels alone. One warm-up
    step fills the dataset's caches (a1's among them) and gives the a2 step
    its anchor."""

    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_step(self, rng, monkeypatch, method):
        if method == "a1":
            data = datasets.seeds_dataset()
        else:
            data = random_dataset(rng, families.POISSON, r=2, n=5, p=2)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method=method, seed=3)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        adam = engine.AdamState.zeros(state.params.size)
        draws = engine.LaneStream(cfg.seed, engine.LANE_FIT)
        _, anchor = engine.step(data, prior, cfg, state, adam, 1, draws)
        omega = _count_calls(monkeypatch, model.GlobalParams, "omega_matrix")
        dweight = _count_calls(monkeypatch, matcalc, "dweight")

        def no_einsum(*args, **kwargs):
            raise AssertionError("np.einsum on the step path")

        monkeypatch.setattr(np, "einsum", no_einsum)
        for t in range(2, 5):
            omega.clear()
            dweight.clear()
            _, anchor = engine.step(data, prior, cfg, state, adam, t, draws, anchor)
            assert (len(omega), len(dweight)) == (1, 1)
