import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import families, gradients, matcalc, model, reparam
from glmmvb.exceptions import (
    RECOVERABLE,
    ModeSearchFailedError,
    NotPositiveDefiniteError,
    OverflowGuardError,
)

import oracles
from conftest import ALL_FAMILIES, random_dataset, random_gp, random_wishart_prior

import scipy.special as sc


def closed_form_lmm(data, gp):
    """Exact conditional posterior moments for the unit-variance Gaussian
    family: Lambda = (Omega + Z'Z)^{-1}, lambda = Lambda Z'(y - X beta)."""
    Omega = gp.omega_matrix()
    lams, Lams = [], []
    for i in range(data.n):
        k = int(data.n_obs[i])
        Z = data.Z[i, :k]
        X = data.X[i, :k]
        y = data.y[i, :k]
        Lam = np.linalg.inv(Omega + Z.T @ Z)
        lams.append(Lam @ Z.T @ (y - X @ gp.beta))
        Lams.append(Lam)
    return np.array(lams), np.array(Lams)


def assert_stationary(data, gp, lam):
    """The modes lam solve Z'(y - g(X beta + Z b)) = Omega b, subject by subject."""
    fam, Omega = data.family, gp.omega_matrix()
    for i in range(data.n):
        k = int(data.n_obs[i])
        Z, X, y = data.Z[i, :k], data.X[i, :k], data.y[i, :k]
        m = data.trials[i, :k]
        eta = X @ gp.beta + Z @ lam[i]
        resid = Z.T @ (y - fam.derivs(eta, m, 1)[1]) - Omega @ lam[i]
        scale = 1.0 + np.abs(Omega @ lam[i]).max()
        assert np.abs(resid).max() < 1e-8 * scale


class TestTransformA1:
    def test_gaussian_reduces_to_closed_form(self):
        data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, [[1.0, 3.0]],
                                        [[[0.0], [0.0]]], [[[1.0], [1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        t = reparam.transform_a1(data, gp)
        np.testing.assert_allclose(t.Lambda[0], [[1 / 3]], atol=1e-14)
        np.testing.assert_allclose(t.lam[0], [4 / 3], atol=1e-14)

    def test_poisson_single_zero_observation(self):
        data = model.Dataset.from_lists(families.POISSON, [[0.0]], [[[0.0]]], [[[1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        t = reparam.transform_a1(data, gp)
        eta_hat = sc.digamma(0.5)
        h2 = math.exp(eta_hat)
        lam_expect = (0.0 - h2 + h2 * eta_hat) / (1.0 + h2)
        np.testing.assert_allclose(t.Lambda[0, 0, 0], 1.0 / (1.0 + h2), rtol=1e-12)
        np.testing.assert_allclose(t.lam[0, 0], lam_expect, rtol=1e-12)
        assert abs(t.lam[0, 0] + 0.365) < 1e-3

    def test_beta_shift_moves_lambda_linearly(self, rng):
        # lambda(beta + delta) - lambda(beta) = -Lambda Z'H X delta exactly
        data = random_dataset(rng, families.POISSON, r=1, n=3, p=2)
        gp = random_gp(rng, 2, 1)
        delta = np.array([0.3, -0.2])
        t0 = reparam.transform_a1(data, gp)
        t1 = reparam.transform_a1(data, model.GlobalParams(gp.beta + delta, gp.omega, 1))
        w = data.mask * data.family.derivs(data.eta_hat_reg(), data.trials, 2)[2]
        pred = -np.einsum("nrs,njs,nj,njp,p->nr", t0.Lambda, data.Z, w, data.X, delta)
        np.testing.assert_allclose(t1.lam - t0.lam, pred, atol=1e-12)

    def test_gaussian_shift_is_partial_noncentering(self, rng):
        # with Z = X the shift equals -Lambda X'X delta: the optimal
        # location interpolation between centered and noncentered forms
        k = 4
        X = np.ones((k, 1))
        y = rng.standard_normal(k)
        data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, [y], [X], [X])
        gp = model.GlobalParams([0.2], [0.1], 1)
        delta = np.array([0.7])
        t0 = reparam.transform_a1(data, gp)
        t1 = reparam.transform_a1(data, model.GlobalParams(gp.beta + delta, gp.omega, 1))
        pred = -t0.Lambda[0] @ X.T @ X @ delta
        np.testing.assert_allclose(t1.lam[0] - t0.lam[0], pred, atol=1e-12)


class TestTransformA2:
    def test_poisson_mode_at_zero(self):
        data = model.Dataset.from_lists(families.POISSON, [[1.0]], [[[0.0]]], [[[1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        t = reparam.transform_a2(data, gp)
        np.testing.assert_allclose(t.lam[0], [0.0], atol=1e-12)
        np.testing.assert_allclose(t.Lambda[0], [[0.5]], rtol=1e-12)

    def test_poisson_zero_observation_mode(self):
        # stationarity -e^b = b; bisection oracle for the root
        data = model.Dataset.from_lists(families.POISSON, [[0.0]], [[[0.0]]], [[[1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        t = reparam.transform_a2(data, gp)
        lo, hi = -1.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if -math.exp(mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root + 0.56714) < 1e-5
        np.testing.assert_allclose(t.lam[0, 0], root, atol=1e-10)
        np.testing.assert_allclose(t.Lambda[0, 0, 0], 1.0 / (math.exp(root) + 1.0),
                                   rtol=1e-9)

    def test_gaussian_single_newton_step(self):
        data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, [[1.0, 3.0]],
                                        [[[0.0], [0.0]]], [[[1.0], [1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        t = reparam.transform_a2(data, gp)
        np.testing.assert_allclose(t.lam[0], [4 / 3], atol=1e-12)
        np.testing.assert_allclose(t.Lambda[0], [[1 / 3]], atol=1e-14)

    def test_stationarity_residual(self, rng):
        for fam in (families.POISSON, families.BERNOULLI):
            data = random_dataset(rng, fam, r=2, n=4, p=2)
            gp = random_gp(rng, 2, 2)
            assert_stationary(data, gp, reparam.transform_a2(data, gp).lam)

    # subjects whose Z'Z is singular: Omega + Z'HZ is still SPD, so the
    # search from a1's lambda needs no special case for them
    @pytest.mark.parametrize("fam", [families.POISSON, families.BINOMIAL],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("kind", ["fewer-observations-than-effects", "collinear-columns"])
    def test_singular_design_subjects(self, rng, fam, kind):
        x = rng.standard_normal(4)
        if kind == "fewer-observations-than-effects":
            # one observation for r = 2, beside a subject with four
            Z_list = [[[1.0, 0.5]], np.column_stack([np.ones(4), x])]
        else:
            # the second column is twice the first
            Z_list = [np.column_stack([np.ones(3), 2.0 * np.ones(3)]),
                      np.column_stack([x, 2.0 * x])]
        y_list = [rng.integers(0, 4, len(z)).astype(float) for z in Z_list]
        X_list = [np.column_stack([np.ones(len(z)), rng.standard_normal(len(z))])
                  for z in Z_list]
        trials = [np.full(len(z), 4.0) for z in Z_list]
        data = model.Dataset.from_lists(fam, y_list, X_list, Z_list, trials)
        for lead in ((), (3,)):
            gp = model.GlobalParams(0.5 * rng.standard_normal(lead + (2,)),
                                    0.5 * rng.standard_normal(lead + (3,)), 2)
            t = reparam.transform_a2(data, gp)
            want = oracles.transform_a2(data, gp)
            for field in ("lam", "L", "Lambda", "base_eta"):
                np.testing.assert_allclose(getattr(t, field), getattr(want, field),
                                           rtol=REFERENCE_TOL, atol=REFERENCE_TOL)
            for k in np.ndindex(lead):
                gp_k = model.GlobalParams(gp.beta[k], gp.omega[k], 2)
                assert_stationary(data, gp_k, t.lam[k])

    def test_objective_monotone_over_iterations(self, rng):
        # re-run the mode search manually with the public pieces and check
        # each accepted step does not decrease the conditional objective
        data = random_dataset(rng, families.BERNOULLI, r=2, n=6, p=2)
        gp = random_gp(rng, 2, 2)
        Omega = gp.omega_matrix()
        Xbeta = np.einsum("njp,p->nj", data.X, gp.beta)
        b = reparam.transform_a1(data, gp).lam
        prev = oracles.a2_objective(data, Xbeta, Omega, b)
        t = reparam.transform_a2(data, gp)
        final = oracles.a2_objective(data, Xbeta, Omega, t.lam)
        assert np.all(final >= prev - 1e-9 * (np.abs(prev) + 1))


# the loop differs from oracles.transform_a2 only in the order of the
# precision's products, so the two agree to round-off; the bound is set a
# priori, well above float64 round-off, not from observed differences
REFERENCE_TOL = 1e-10


def _outcome(transform, data, gp, start):
    try:
        return transform(data, gp, start)
    except (ModeSearchFailedError, OverflowGuardError) as err:
        return type(err)


class TestModeSearchAgainstReference:
    @pytest.mark.parametrize("halvings", [reparam.NR_MAX_HALVINGS, 1, 0])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(famname=st.sampled_from(["poisson", "bernoulli", "binomial"]),
           r=st.integers(1, 3), batched=st.booleans(),
           start_kind=st.sampled_from(["default", "warm", "perturbed", "predicted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_loop(self, halvings, famname, r, batched, start_kind, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, families.by_name(famname), r=r, n=4, p=2)
        lead = (3,) if batched else ()
        gp = model.GlobalParams(0.5 * rng.standard_normal(lead + (2,)),
                                0.5 * rng.standard_normal(lead + (matcalc.half_len(r),)), r)
        start = None
        if start_kind != "default":
            # the mode at a nearby theta_G, as a fit's previous step leaves it
            # (one theta_G, so batched cases broadcast it)
            beta, omega = gp.beta.reshape(-1, 2)[0], gp.omega.reshape(-1, gp.omega.shape[-1])[0]
            near = model.GlobalParams(beta + 0.05 * rng.standard_normal(2),
                                      omega + 0.05 * rng.standard_normal(omega.shape), r)
            if start_kind == "predicted":
                # from the transforms there to each theta_G of gp
                start = reparam.predict_modes(data, reparam.transform_a2(data, near), gp)
            else:
                start = np.broadcast_to(oracles.transform_a2(data, near).lam,
                                        lead + (data.n, r))
            if start_kind == "perturbed":
                start = start + 3.0 * rng.standard_normal(start.shape)
        with mock.patch.object(reparam, "NR_MAX_HALVINGS", halvings):
            want = _outcome(oracles.transform_a2, data, gp, start)
            got = _outcome(reparam.transform_a2, data, gp, start)
        if isinstance(want, type) or isinstance(got, type):
            assert got == want
            return
        for field in ("lam", "L", "Lambda", "base_eta"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                       rtol=REFERENCE_TOL, atol=REFERENCE_TOL)

    # cases whose frozen subjects (out of halvings) reach stationarity only
    # when their gradient is taken at the wrong point: the loop must re-evaluate
    # them where they stay, as the reference does, and so fail as it does
    @pytest.mark.parametrize("seed", [508, 1335, 1502])
    def test_frozen_subjects_are_evaluated_where_they_stay(self, seed):
        rng = np.random.default_rng(seed)
        fam = [families.POISSON, families.BERNOULLI, families.BINOMIAL][seed % 3]
        r = 1 + seed % 2
        data = random_dataset(rng, fam, r=r, n=3, p=2)
        gp = model.GlobalParams(0.5 * rng.standard_normal(2),
                                0.5 * rng.standard_normal(matcalc.half_len(r)), r)
        start = 4.0 * rng.standard_normal((data.n, r))
        with mock.patch.object(reparam, "NR_MAX_HALVINGS", seed % 2):
            assert (_outcome(reparam.transform_a2, data, gp, start)
                    == _outcome(oracles.transform_a2, data, gp, start)
                    == ModeSearchFailedError)


def _shifted(gp, h, d_beta, d_omega):
    return model.GlobalParams(gp.beta + h * d_beta, gp.omega + h * d_omega, gp.r)


PREDICTED_FAMILIES = [families.POISSON, families.BERNOULLI, families.BINOMIAL]


class TestModePredictor:
    @pytest.mark.parametrize("fam", PREDICTED_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_error_is_second_order(self, fam, r, seed):
        # a first-order prediction errs by O(h^2): halving the step cuts
        # the error about four times; a wrong sign or a missing term would
        # leave an O(h) error, cut only twice
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, fam, r=r, n=5, p=2)
        gp = random_gp(rng, 2, r)
        anchor = reparam.transform_a2(data, gp)
        d_beta, d_omega = rng.standard_normal(2), rng.standard_normal(matcalc.half_len(r))
        errs = []
        for h in (0.04, 0.02):
            near = _shifted(gp, h, d_beta, d_omega)
            errs.append(np.abs(reparam.predict_modes(data, anchor, near)
                               - reparam.transform_a2(data, near).lam).max())
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_predicts_a_batch_as_one_theta_at_a_time(self, rng):
        data = random_dataset(rng, families.POISSON, r=2, n=4, p=2)
        gp = random_gp(rng, 2, 2)
        anchor = reparam.transform_a2(data, gp)
        batch = model.GlobalParams(gp.beta + 0.1 * rng.standard_normal((2, 3, 2)),
                                   gp.omega + 0.1 * rng.standard_normal((2, 3, 3)), 2)
        got = reparam.predict_modes(data, anchor, batch)
        assert got.shape == (2, 3, data.n, 2)
        for k in np.ndindex(2, 3):
            one = model.GlobalParams(batch.beta[k], batch.omega[k], 2)
            np.testing.assert_allclose(got[k], reparam.predict_modes(data, anchor, one),
                                       rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("fam", PREDICTED_FAMILIES, ids=lambda f: f.name)
    def test_far_off_prediction_reaches_the_default_starts_mode(self, fam):
        # predicted from a much smaller Omega: the prediction lies far from
        # the mode, and step halving still takes the search there
        rng = np.random.default_rng(100)
        data = random_dataset(rng, fam, r=2, n=5, p=2)
        gp = random_gp(rng, 2, 2)
        d_beta, d_omega = rng.standard_normal(2), rng.standard_normal(3)
        far = _shifted(gp, 1.5, d_beta, -np.abs(d_omega))
        start = reparam.predict_modes(data, reparam.transform_a2(data, far), gp)
        want = reparam.transform_a2(data, gp)
        assert np.abs(start - want.lam).max() > 1.0
        got = reparam.transform_a2(data, gp, start)
        for field in ("lam", "L", "Lambda", "base_eta", "weight"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                       rtol=REFERENCE_TOL, atol=REFERENCE_TOL)

    # predicted from an Omega e^-6 times the target's: the search from the
    # prediction overflows (seed 101) or meets a singular precision (102),
    # while the search from a1's lambda reaches the mode
    @pytest.mark.parametrize("seed,draws,error", [(101, 1, OverflowGuardError),
                                                  (102, 6, NotPositiveDefiniteError)])
    def test_failed_predicted_start_is_searched_again_from_a1(self, seed, draws, error):
        data, gp, anchor = oracles.far_prediction(seed, draws)
        with np.errstate(all="ignore"):
            with pytest.raises(error):
                reparam.transform_a2(data, gp, reparam.predict_modes(data, anchor, gp))
            got = reparam.build_transforms(data, gp, "a2", anchor)
        want = reparam.transform_a2(data, gp)
        for field in ("lam", "L", "Lambda", "base_eta", "weight"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    # the same recipe at seeds 105 and 113: on its way to a singular
    # precision the search from the prediction overflows in the 2 x 2
    # determinant, and those warnings stay inside the discarded attempt
    @pytest.mark.parametrize("seed,draws", [(105, 3), (113, 9)])
    def test_failed_predicted_search_leaves_no_warning(self, seed, draws):
        data, gp, anchor = oracles.far_prediction(seed, draws)
        start = reparam.predict_modes(data, anchor, gp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((RuntimeWarning,) + RECOVERABLE):
                reparam.transform_a2(data, gp, start)
            got = reparam.build_transforms(data, gp, "a2", anchor)
        want = reparam.transform_a2(data, gp)
        for field in ("lam", "L", "Lambda", "base_eta", "weight"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    # the recipe with targets of scale 2.0, whose Omega can be small: from
    # these three starts a Newton candidate's eta exceeds POISSON_ETA_MAX,
    # and halving it leads to the mode the search from a1's lambda finds
    CANDIDATE_OVERFLOWS = [(102, 3), (115, 1), (129, 9)]

    def test_overflowing_candidate_is_halved(self):
        assert oracles.predicted_start_failures(
            3.0, self.CANDIDATE_OVERFLOWS, scale=2.0) == {"succeeded": 3}
        for seed, draw in self.CANDIDATE_OVERFLOWS:
            data, gp, anchor = oracles.far_prediction(seed, draw, 3.0, scale=2.0)
            start = reparam.predict_modes(data, anchor, gp)
            assert np.all(data.eta(gp.beta, start) <= families.POISSON_ETA_MAX)
            with np.errstate(all="ignore"):
                got = reparam.transform_a2(data, gp, start)
            want = reparam.transform_a2(data, gp)
            np.testing.assert_allclose(got.lam, want.lam, rtol=0, atol=REFERENCE_TOL)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    def test_weight_is_h2_at_the_modes_draw_by_draw(self, rng, lead):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4, p=2)
        gp = model.GlobalParams(0.4 * rng.standard_normal(lead + (2,)),
                                0.4 * rng.standard_normal(lead + (3,)), 2)
        t = reparam.transform_a2(data, gp)
        assert t.weight.shape == lead + (data.n, data.J)
        for k in np.ndindex(lead):
            np.testing.assert_array_equal(
                t.weight[k], data.family.derivs(t.base_eta[k], data.trials, 2)[2])


class TestApplyInvert:
    def test_identity_transform(self, rng):
        t = reparam.Transforms("a1", np.zeros((2, 3)), np.tile(np.eye(3), (2, 1, 1)),
                               np.tile(np.eye(3), (2, 1, 1)))
        b = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(oracles.apply_transform(t, b), b)
        np.testing.assert_array_equal(t.invert(b), b)

    def test_scalar_example(self):
        t = reparam.Transforms("a1", np.full((1, 1), 2.0), np.full((1, 1, 1), 3.0),
                               np.full((1, 1, 1), 9.0))
        np.testing.assert_allclose(oracles.apply_transform(t, np.array([[5.0]])), [[1.0]])

    def test_roundtrip(self, rng):
        data = random_dataset(rng, families.POISSON, r=3, n=4, p=2)
        gp = random_gp(rng, 2, 3)
        t = reparam.transform_a1(data, gp)
        b = rng.standard_normal((4, 3))
        np.testing.assert_allclose(t.invert(oracles.apply_transform(t, b)), b, atol=1e-12)
        np.testing.assert_allclose(oracles.apply_transform(t, t.invert(b)), b, atol=1e-12)


class TestStructuralProperties:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("method", reparam.METHODS)
    def test_lambda_spd_random_sweep(self, rng, fam, method):
        for _ in range(125):
            r = int(rng.integers(1, 4))
            data = random_dataset(rng, fam, r=r, n=2, p=2)
            gp = random_gp(rng, 2, r, scale=0.6)
            t = reparam.build_transforms(data, gp, method)
            diag = np.diagonal(t.L, axis1=-2, axis2=-1)
            assert np.all(diag > 0)
            np.testing.assert_allclose(t.L @ np.swapaxes(t.L, -1, -2), t.Lambda,
                                       atol=1e-10)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(famname=st.sampled_from([f.name for f in ALL_FAMILIES]), r=st.integers(1, 3),
           method=st.sampled_from(reparam.METHODS), batched=st.booleans(),
           few_obs=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_lambda_is_spd_with_its_cholesky_factor(self, famname, r, method, batched,
                                                    few_obs, seed):
        # few_obs: every subject has fewer observations than random effects (r > 1)
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, oracles.family(famname), r=r, n=3, p=2,
                              ni_max=max(r - 1, 1) if few_obs else 5)
        lead = (4,) if batched else ()
        gp = model.GlobalParams(0.6 * rng.standard_normal(lead + (2,)),
                                0.6 * rng.standard_normal(lead + (matcalc.half_len(r),)), r)
        t = reparam.build_transforms(data, gp, method)
        assert t.Lambda.shape == t.L.shape == lead + (data.n, r, r)
        np.testing.assert_array_equal(t.Lambda, np.swapaxes(t.Lambda, -1, -2))
        np.testing.assert_array_equal(t.L, np.tril(t.L))
        assert np.all(np.diagonal(t.L, axis1=-2, axis2=-1) > 0)
        np.testing.assert_allclose(t.L @ np.swapaxes(t.L, -1, -2), t.Lambda, rtol=1e-10)

    def test_gaussian_methods_coincide(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 4))
            data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=r, n=3, p=2)
            gp = random_gp(rng, 2, r)
            t1 = reparam.transform_a1(data, gp)
            t2 = reparam.transform_a2(data, gp)
            lam_e, Lam_e = closed_form_lmm(data, gp)
            for t in (t1, t2):
                np.testing.assert_allclose(t.lam, lam_e, atol=1e-10)
                np.testing.assert_allclose(t.Lambda, Lam_e, atol=1e-10)

    def test_boundary_limit_recovers_prior(self, rng):
        # Poisson y_i = 0 with the expansion point pushed to -30: lambda -> 0
        # and Lambda -> Omega^{-1}
        data = model.Dataset.from_lists(families.POISSON, [[0.0, 0.0]],
                                        [[[0.3], [0.4]]], [[[1.0], [0.7]]])
        gp = model.GlobalParams([0.25], [0.2], 1)
        data.cache["eta_hat_reg"] = np.full((1, 2), -30.0)
        t = reparam.transform_a1(data, gp)
        Om_inv = np.linalg.inv(gp.omega_matrix())
        assert np.abs(t.lam).max() < 1e-10
        assert np.abs(t.Lambda[0] - Om_inv).max() < 1e-10

    def test_batched_construction_matches_loop(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=3, p=2)
        betas = 0.3 * rng.standard_normal((4, 2))
        omegas = 0.3 * rng.standard_normal((4, 3))
        for method in reparam.METHODS:
            batch = reparam.build_transforms(
                data, model.GlobalParams(betas, omegas, 2), method)
            for k in range(4):
                single = reparam.build_transforms(
                    data, model.GlobalParams(betas[k], omegas[k], 2), method)
                np.testing.assert_allclose(batch.lam[k], single.lam, atol=1e-11)
                np.testing.assert_allclose(batch.L[k], single.L, atol=1e-11)


class TestBuildFailures:
    def test_singular_precision_is_not_positive_definite(self):
        # Z rows all zero and W = exp(-800) = 0: the a1 precision is the zero
        # matrix, whose inversion fails
        data = model.Dataset.from_lists(families.POISSON, [[1.0, 2.0]],
                                        [[[1.0], [0.5]]], [[[0.0], [0.0]]])
        gp = model.GlobalParams([0.1], [-800.0], 1)
        with pytest.raises(NotPositiveDefiniteError):
            reparam.build_transforms(data, gp, "a1")

    # r = 2, a subject with one observation (n_i < r) and Omega = exp(-800)
    # W W' = 0: that subject's precision z z' h'' is singular, its computed
    # determinant zero or a round-off multiple of eps
    @pytest.mark.parametrize("fam", [families.POISSON, families.BERNOULLI], ids=lambda f: f.name)
    @pytest.mark.parametrize("z", [[1.0, 0.5], [1.0, 0.3], [1.0, 1.0], [1.0, 0.0], [1.0, -0.7]])
    @pytest.mark.parametrize("method,start", [("a1", None), ("a2", None), ("a2", "zeros")])
    def test_underflowed_omega_with_fewer_observations_than_effects(self, fam, z, method, start):
        data = model.Dataset.from_lists(fam, [[1.0], [1.0, 0.0]], [[[1.0]], [[1.0], [1.0]]],
                                        [[z], [[1.0, 0.2], [1.0, -0.4]]])
        gp = model.GlobalParams([0.1], [-400.0, 0.0, -400.0], 2)
        # an anchor at gp itself, from which the predicted start is zeros
        zeros_anchor = reparam.Transforms("a2", np.zeros((2, 2)), None, np.zeros((2, 2, 2)),
                                          weight=np.zeros((2, data.J)), gp=gp)
        with pytest.raises(NotPositiveDefiniteError):
            reparam.build_transforms(data, gp, method, None if start is None else zeros_anchor)

    @pytest.mark.parametrize("fam", [families.POISSON, families.BERNOULLI], ids=lambda f: f.name)
    @pytest.mark.parametrize("r", [1, 2])
    def test_non_finite_newton_step_is_recoverable(self, rng, monkeypatch, fam, r):
        # a Newton step that is not finite ends the search in a recoverable
        # error, which a step retries and a draw rejects
        data = random_dataset(rng, fam, r=r, n=3, p=2)
        gp = random_gp(rng, 2, r)
        monkeypatch.setattr(matcalc, "spd_solve", lambda s, g: np.full(np.shape(g), np.inf))
        with pytest.raises(ModeSearchFailedError, match="non-finite Newton step"), \
                np.errstate(all="ignore"):
            reparam.transform_a2(data, gp, np.zeros((data.n, r)))


def _no_lapack(*args, **kwargs):
    raise AssertionError("LAPACK called on a block of order r <= 2")


class TestSmallBlocksStayOffLapack:
    """Builds and gradients at r <= 2 use matcalc's closed forms, and an a1
    gradient takes h''(eta_hat) from the cache instead of recomputing it."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("method", reparam.METHODS)
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["single", "batched"])
    def test_build_and_gradient(self, rng, r, method, lead):
        data = random_dataset(rng, families.POISSON, r=r, n=4, p=2)
        gp = model.GlobalParams(0.4 * rng.standard_normal(lead + (2,)),
                                0.4 * rng.standard_normal(lead + (matcalc.half_len(r),)), r)
        prior = random_wishart_prior(rng, r)
        b_tilde = rng.standard_normal(lead + (data.n, r))
        reparam.build_transforms(data, gp, "a1")  # fills the a1 cache
        h2 = mock.Mock()  # called by each family call that asks for h''

        def derivs(eta, trials, k, derivs=data.family.derivs):
            if k >= 2:
                h2()
            return derivs(eta, trials, k)

        with mock.patch.multiple(np.linalg, inv=_no_lapack, cholesky=_no_lapack,
                                 solve=_no_lapack), \
                mock.patch.object(data.family, "derivs", derivs):
            t = reparam.build_transforms(data, gp, method)
            assert t.L.shape == lead + (data.n, r, r)
            gradients.value_and_grad(data, b_tilde, t, prior)
        if method == "a1":
            assert h2.call_count == 0
