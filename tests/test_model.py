import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import datasets, engine, families, matcalc, model, reparam
from glmmvb.exceptions import (
    ConfigError,
    DataError,
    GlmmVbError,
    IrlsDivergedError,
    RankDeficientError,
)

import oracles
from conftest import (
    fd_gradient,
    max_rel_err,
    random_dataset,
    random_gp,
    random_spd,
    random_wishart_prior,
    separable_bernoulli,
)


def naive_log_joint(data, gp, b, prior):
    """Straightforward per-observation re-implementation (oracle)."""
    fam = data.family
    W = gp.w_matrix()
    Omega = W @ W.T
    total = 0.0
    for i in range(data.n):
        for j in range(int(data.n_obs[i])):
            eta = float(data.X[i, j] @ gp.beta + data.Z[i, j] @ b[i])
            total += float(data.y[i, j]) * eta - float(fam.derivs(eta, data.trials[i, j], 0)[0])
        total -= 0.5 * float(b[i] @ Omega @ b[i])
    total += data.n * math.log(np.linalg.det(Omega)) / 2.0
    total -= float(gp.beta @ gp.beta) / (2.0 * prior.sigma_beta2)
    return total + float(prior.log_omega(gp))


class TestDatasetContainer:
    def test_ragged_padding(self, rng):
        data = random_dataset(rng, families.POISSON, r=2, n=4, ni_max=5)
        assert data.mask.sum() == data.total_obs
        assert np.all(data.y[data.mask == 0] == 0)

    # Poisson, n = 5, J = 4, n_obs = [4, 2, 3, 4, 1], and the binomial
    # counterpart, whose padded trials the dataset sets to one
    @pytest.mark.parametrize("fam", [families.POISSON, families.BINOMIAL], ids=lambda f: f.name)
    @pytest.mark.parametrize("junk", [1e3, np.nan])
    def test_garbage_padding_is_zeroed_on_copies(self, fam, junk):
        rng = np.random.default_rng(11)
        n_obs = np.array([4, 2, 3, 4, 1])
        obs = np.arange(4) < n_obs[:, None]
        trials = np.where(obs, rng.integers(1, 6, (5, 4)), 1.0) if fam is families.BINOMIAL \
            else np.ones((5, 4))
        y = np.where(obs, rng.binomial(trials.astype(int), 0.4), 0.0)
        X = np.dstack([np.ones((5, 4)), 0.5 * rng.standard_normal((5, 4))])
        Z = np.dstack([np.ones((5, 4)), 0.5 * rng.standard_normal((5, 4))])
        X, Z = (np.where(obs[..., None], a, 0.0) for a in (X, Z))
        clean = model.Dataset(fam, y, X, Z, trials, n_obs)
        dirty_args = [np.where(obs[..., None], X, junk), np.where(obs[..., None], Z, junk),
                      np.where(obs, y, junk), np.where(obs, trials, junk)]
        given = [a.copy() for a in dirty_args]
        dirty = model.Dataset(fam, dirty_args[2], dirty_args[0], dirty_args[1],
                              dirty_args[3], n_obs)
        for a, b in zip(dirty_args, given):  # the caller's arrays stay as they were
            assert a.tobytes() == b.tobytes()
        for name in ("y", "X", "Z", "trials", "mask"):
            assert getattr(dirty, name).tobytes() == getattr(clean, name).tobytes(), name

        gp = model.GlobalParams([0.3, -0.2], [0.1, 0.2, -0.1], 2)
        for method in reparam.METHODS:
            got, want = (reparam.build_transforms(d, gp, method) for d in (dirty, clean))
            for field in ("lam", "L", "Lambda", "base_eta", "weight"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            config = engine.FitConfig(method=method, seed=3, max_iter=200, window=100,
                                      final_elbo_draws=0)
            got, want = (engine.fit(d, model.default_prior(d), config) for d in (dirty, clean))
            assert got.state.params.tobytes() == want.state.params.tobytes()

    # n = 2 subjects, J = 3: each case gets one array wrong and names it
    @pytest.mark.parametrize("name,bad", [
        ("n_obs", dict(n_obs=[3, 4])),
        ("y", dict(y=np.zeros(3))),
        ("X", dict(X=np.zeros((2, 3)))),
        ("trials", dict(trials=np.ones((2, 4)))),
        ("n_obs", dict(n_obs=[3, 3, 3])),
        ("lines", dict(lines=np.ones((2, 4)))),
    ], ids=["n_obs above J", "1-D y", "2-D X", "trials shape", "n_obs length", "lines shape"])
    def test_malformed_arrays_are_data_errors(self, name, bad):
        args = dict(y=np.zeros((2, 3)), X=np.ones((2, 3, 1)), Z=np.ones((2, 3, 1)),
                    trials=np.ones((2, 3)), n_obs=[3, 2])
        with pytest.raises(DataError, match=f"^{name} "):
            model.Dataset(families.POISSON, **{**args, **bad})

    # n = 6 subjects, p = 2 fixed effects, r = 1: names of the wrong length
    # used to label beta_1's row omega.00 in summary.csv and drop subjects
    # from subjects.csv, and empty lists were taken for absent ones and
    # given default names
    @pytest.mark.parametrize("name,bad", [
        ("x_names", dict(x_names=["intercept"])),
        ("x_names", dict(x_names=["intercept", "x", "extra"])),
        ("z_names", dict(z_names=["intercept", "x"])),
        ("group_labels", dict(group_labels=["a", "b"])),
        ("x_names", dict(x_names=[])),
        ("z_names", dict(z_names=[])),
        ("group_labels", dict(group_labels=[])),
    ], ids=["x_names short", "x_names long", "z_names long", "group_labels short",
            "x_names empty", "z_names empty", "group_labels empty"])
    def test_names_of_the_wrong_length_are_data_errors(self, name, bad):
        x = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
        args = dict(y=np.ones((6, 2)), X=np.stack([np.ones((6, 2)), x], axis=-1),
                    Z=np.ones((6, 2, 1)))
        model.Dataset(families.POISSON, **args, x_names=["intercept", "x"],
                      z_names=["intercept"], group_labels=list("abcdef"))
        with pytest.raises(DataError, match=f"^{name} "):
            model.Dataset(families.POISSON, **args, **bad)

    def test_n_obs_below_one_is_a_data_error(self):
        with pytest.raises(DataError, match="every subject needs at least one observation"):
            model.Dataset(families.POISSON, np.ones((2, 3)), np.ones((2, 3, 1)),
                          np.ones((2, 3, 1)), n_obs=[3, 0])

    # a non-finite entry in an observed row; padded rows are zeroed instead
    @pytest.mark.parametrize("name", ["X", "Z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_design_is_a_data_error(self, name, value):
        args = dict(y=np.ones((2, 3)), X=np.ones((2, 3, 1)), Z=np.ones((2, 3, 1)))
        args[name][1, 0, 0] = value
        with pytest.raises(DataError, match=f"^non-finite entries in {name}$"):
            model.Dataset(families.POISSON, **args)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 1))], ids=["list", "array"])
    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
    def test_subject_without_observations_is_a_data_error(self, where, empty):
        y = [[1.0], [2.0, 3.0], [4.0]]
        X = [np.ones((len(yi), 1)) for yi in y]
        y[where], X[where] = [], empty
        with pytest.raises(DataError, match="every subject needs at least one observation"):
            model.Dataset.from_lists(families.POISSON, y, X, X)

    def test_no_subjects_is_a_data_error(self):
        with pytest.raises(DataError, match="^no subjects"):
            model.Dataset.from_lists(families.POISSON, [], [], [])

    def test_invalid_response_rejected(self):
        with pytest.raises(DataError):
            model.Dataset.from_lists(families.POISSON, [[-1.0]], [[[1.0]]], [[[1.0]]])

    def test_subset_preserves_columns(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=1, n=5)
        sub = data.subset([3, 1])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.y[0, : sub.n_obs[0]],
                                      data.y[3, : data.n_obs[3]])


class TestLogPOmega:
    def test_scalar_example(self):
        gp = model.GlobalParams([], [0.0], 1)
        pr = model.WishartPrior(100.0, 1.0, [[1.0]])
        assert abs(float(pr.log_omega(gp)) - (math.log(2) - 0.5)) < 1e-14

    def test_jacobian_term_scalar(self):
        # d(e^{2 omega})/d omega = 2 e^{2 omega}; its log is log 2 + 2 log w
        for omega in (-0.7, 0.0, 1.3):
            h = 1e-6
            fd = (math.exp(2 * (omega + h)) - math.exp(2 * (omega - h))) / (2 * h)
            assert abs(math.log(fd) - (math.log(2) + 2 * omega)) < 1e-8

    def test_difference_to_wishart_density_constant(self, rng):
        # log p(omega) - log p(Omega) - log|d v(Omega)/d omega| does not
        # depend on omega (numerical Jacobian oracle)
        r = 3
        k = matcalc.half_len(r)
        pr = random_wishart_prior(rng, r, nu_extra=2.0)

        def v_of_omega(om):
            gp = model.GlobalParams([], om, r)
            return matcalc.halfvec(gp.omega_matrix())

        diffs = []
        for _ in range(5):
            om = 0.4 * rng.standard_normal(k)
            gp = model.GlobalParams([], om, r)
            Omega = gp.omega_matrix()
            log_p_Om = (0.5 * (pr.nu - r - 1) * np.linalg.slogdet(Omega)[1]
                        - 0.5 * np.trace(pr.S_inv @ Omega))
            J_t = fd_gradient(v_of_omega, om, h=1e-6)  # |J'| = |J|
            diffs.append(float(pr.log_omega(gp)) - log_p_Om
                         - np.linalg.slogdet(J_t)[1])
        assert np.ptp(diffs) < 1e-6


class TestLogJoint:
    def test_minimal_poisson_case(self):
        data = model.Dataset.from_lists(families.POISSON, [[0.0]], [[[0.0]]], [[[1.0]]])
        gp = model.GlobalParams([0.0], [0.0], 1)
        pr = model.WishartPrior(100.0, 1.0, [[1.0]])
        val = model.log_joint(data, gp, np.zeros((1, 1)), pr)
        assert abs(float(val) - (math.log(2) - 1.5)) < 1e-14

    def test_zero_column_invariance(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=3, p=2)
        gp = random_gp(rng, 2, 1)
        b = 0.3 * rng.standard_normal((3, 1))
        pr = random_wishart_prior(rng, 1)
        v1 = model.log_joint(data, gp, b, pr)
        X2 = np.concatenate([data.X, np.zeros_like(data.X[..., :1])], axis=-1)
        data2 = model.Dataset(data.family, data.y, X2, data.Z, data.trials, data.n_obs)
        gp2 = model.GlobalParams(np.append(gp.beta, 0.0), gp.omega, 1)
        v2 = model.log_joint(data2, gp2, b, pr)
        assert abs(float(v1) - float(v2)) < 1e-12

    @pytest.mark.parametrize("famname", ["poisson", "binomial", "gaussian-unit"])
    def test_matches_naive_evaluator(self, rng, famname):
        fam = oracles.family(famname)
        for _ in range(5):
            r = int(rng.integers(1, 3))
            data = random_dataset(rng, fam, r=r, n=4, p=2)
            gp = random_gp(rng, 2, r)
            b = 0.5 * rng.standard_normal((4, r))
            pr = random_wishart_prior(rng, r)
            got = float(model.log_joint(data, gp, b, pr))
            assert abs(got - naive_log_joint(data, gp, b, pr)) < 1e-10 * (1 + abs(got))

    def test_subject_permutation_invariance(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=5)
        gp = random_gp(rng, 2, 2)
        b = 0.4 * rng.standard_normal((5, 2))
        pr = random_wishart_prior(rng, 2)
        perm = rng.permutation(5)
        v1 = float(model.log_joint(data, gp, b, pr))
        v2 = float(model.log_joint(data.subset(perm), gp, b[perm], pr))
        assert abs(v1 - v2) < 1e-10


class TestLogJointReparam:
    def test_identity_transform_equals_log_joint(self, rng):
        data = random_dataset(rng, families.POISSON, r=2, n=3)
        gp = random_gp(rng, 2, 2)
        pr = random_wishart_prior(rng, 2)
        from glmmvb import reparam
        t = reparam.Transforms("a1", np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1)),
                               np.tile(np.eye(2), (3, 1, 1)), gp=gp)
        bt = rng.standard_normal((3, 2))
        assert abs(float(model.log_joint_reparam(data, bt, t, pr))
                   - float(model.log_joint(data, gp, bt, pr))) < 1e-12

    def test_scaling_adds_log_determinant(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=1)
        gp = random_gp(rng, 2, 1)
        pr = random_wishart_prior(rng, 1)
        from glmmvb import reparam
        lam = np.array([[0.3]])
        t = reparam.Transforms("a1", lam, np.full((1, 1, 1), 2.0),
                               np.full((1, 1, 1), 4.0), gp=gp)
        bt = np.array([[0.7]])
        lhs = float(model.log_joint_reparam(data, bt, t, pr))
        rhs = float(model.log_joint(data, gp, 2.0 * bt + lam, pr)) + math.log(2.0)
        assert abs(lhs - rhs) < 1e-12

    def test_random_transform_identity(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4)
        gp = random_gp(rng, 2, 2)
        pr = random_wishart_prior(rng, 2)
        from glmmvb import reparam
        t = reparam.transform_a1(data, gp)
        bt = rng.standard_normal((4, 2))
        lhs = float(model.log_joint_reparam(data, bt, t, pr))
        logdet = float(np.log(np.diagonal(t.L, axis1=-2, axis2=-1)).sum())
        rhs = float(model.log_joint(data, gp, t.invert(bt), pr)) + logdet
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


class TestPriorGradOmega:
    def test_scalar_case_value(self):
        # D^W v{(nu-r-1) W^{-T} - S^{-1} W} + v(diag(u)) at r=1, nu=1, S=1,
        # omega=0 gives 1*(-1 - 1) + 2 = 0, confirmed by finite differences.
        gp = model.GlobalParams([], [0.0], 1)
        pr = model.WishartPrior(100.0, 1.0, [[1.0]])
        got = pr.grad_omega(gp)
        np.testing.assert_allclose(got, [0.0], atol=1e-14)
        fd = fd_gradient(lambda om: pr.log_omega(model.GlobalParams([], om, 1)),
                         np.array([0.0]))
        np.testing.assert_allclose(got, fd, atol=1e-9)

    def test_subject_part_at_identity(self):
        gp = model.GlobalParams([], np.zeros(3), 2)
        got = oracles.subject_grad_omega(gp, np.zeros((1, 2)))
        np.testing.assert_allclose(got[0], [1.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_finite_differences(self, rng, r):
        for _ in range(34):
            pr = random_wishart_prior(rng, r)
            om = 0.4 * rng.standard_normal(matcalc.half_len(r))
            gp = model.GlobalParams([], om, r)
            got = pr.grad_omega(gp)
            fd = fd_gradient(lambda o: pr.log_omega(model.GlobalParams([], o, r)),
                             om, h=1e-6)
            assert max_rel_err(got, fd) < 1e-6

    def test_joint_omega_pieces_match_fd(self, rng):
        # prior plus per-subject terms against FD of the omega-dependent
        # part of the log joint
        r = 2
        n = 3
        pr = random_wishart_prior(rng, r)
        b = 0.7 * rng.standard_normal((n, r))
        om = 0.3 * rng.standard_normal(matcalc.half_len(r))

        def omega_part(o):
            gp = model.GlobalParams([], o, r)
            quad = np.einsum("nr,...rs,ns->...", b, gp.omega_matrix(), b)
            return pr.log_omega(gp) + n * gp.log_diag_sum - 0.5 * quad

        gp = model.GlobalParams([], om, r)
        got = pr.grad_omega(gp) + oracles.subject_grad_omega(gp, b).sum(axis=0)
        fd = fd_gradient(omega_part, om, h=1e-6)
        assert max_rel_err(got, fd) < 1e-6

    def test_normal_omega_prior_grad(self, rng):
        pr = model.normal_omega_prior(2, sd=10.0)
        om = rng.standard_normal(3)
        gp = model.GlobalParams([], om, 2)
        fd = fd_gradient(lambda o: pr.log_omega(model.GlobalParams([], o, 2)), om)
        np.testing.assert_allclose(pr.grad_omega(gp), fd, atol=1e-8)


class TestGaussianMarginalOracle:
    def test_quadrature_matches_closed_form(self, rng):
        # gaussian-unit, r = 1, known Omega: integrating exp(log_joint) over
        # each b_i by Gauss-Hermite reproduces the closed-form Gaussian
        # marginal to relative 1e-8
        from conftest import _subject_log_factor, gh_integral

        data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=1, n=3, p=1)
        beta = np.array([0.4])
        omega0 = np.array([0.3])
        gp = model.GlobalParams(beta, omega0, 1)
        Omega = gp.omega_matrix().item()
        for i in range(data.n):
            k = int(data.n_obs[i])
            yv, Xv, Zv = data.y[i, :k], data.X[i, :k], data.Z[i, :k, 0]
            logf = _subject_log_factor(data, i, beta, Omega)
            q = Omega + float(Zv @ Zv)
            lin = float(Zv @ (yv - Xv @ beta))
            const = float((yv * (Xv @ beta) - 0.5 * (Xv @ beta) ** 2).sum())
            closed = math.exp(const + lin ** 2 / (2 * q)) * math.sqrt(2 * math.pi / q)
            quad = gh_integral(logf, lin / q, 1.0 / math.sqrt(q))
            assert abs(quad - closed) / closed < 1e-8

    def test_log_joint_consistent_with_oracle_integrand(self, rng):
        # the oracle's independently written integrand agrees with log_joint
        # at random points (known-omega prior contributes nothing for omega)
        from conftest import _subject_log_factor

        data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=1, n=3, p=1)
        beta = np.array([-0.2])
        omega0 = np.array([0.1])
        pr = oracles.KnownOmega(100.0, omega0)
        gp = model.GlobalParams(beta, omega0, 1)
        Omega = gp.omega_matrix().item()
        b = rng.standard_normal((data.n, 1))
        direct = sum(_subject_log_factor(data, i, beta, Omega)(float(b[i, 0]))
                     for i in range(data.n))
        direct += data.n * 0.5 * math.log(Omega) - float(beta @ beta) / (2 * pr.sigma_beta2)
        assert abs(float(model.log_joint(data, gp, b, pr)) - direct) < 1e-10


class TestPooledGlmAndDefaultPrior:
    def test_epilepsy_model_i_prior(self):
        pr = model.default_prior(datasets.epilepsy_dataset("I"))
        assert pr.nu == 1.0
        rate = 0.5 / pr.S[0, 0]
        assert abs(rate - 0.0151) < 0.0005

    def test_epilepsy_model_ii_prior(self):
        # its S is asymmetric in the last bit, within WishartPrior's symmetry check
        pr = model.default_prior(datasets.epilepsy_dataset("II"))
        assert pr.nu == 3.0
        assert abs(pr.S[0, 0] - 11.0169) < 0.01
        assert abs(pr.S[0, 1] + 0.1616) < 0.01
        assert abs(pr.S[1, 1] - 0.5516) < 0.01

    def test_seeds_prior(self):
        pr = model.default_prior(datasets.seeds_dataset())
        assert pr.nu == 1.0
        assert abs(0.5 / pr.S[0, 0] - 0.0544) < 0.001

    def test_rank_deficient_design(self):
        y = [[1.0, 2.0]]
        X = [[[1.0, 1.0], [1.0, 1.0]]]  # duplicated column
        Z = [[[1.0], [1.0]]]
        data = model.Dataset.from_lists(families.POISSON, y, X, Z)
        with pytest.raises(RankDeficientError):
            model.fit_pooled_glm(data)
        with pytest.raises(RankDeficientError):
            model.default_prior(data)

    def test_singular_random_effect_crossproduct(self):
        # Z's two columns are equal, so sum_i Z_i' W_i Z_i has rank one; X is full rank
        x = np.array([[0.0, 1.0, 2.0], [1.0, -1.0, 0.5]])
        X = np.stack([np.ones((2, 3)), x], axis=-1)
        data = model.Dataset(families.POISSON, [[1.0, 3.0, 6.0], [2.0, 0.0, 1.0]], X,
                             np.ones((2, 3, 2)))
        assert np.all(np.isfinite(model.fit_pooled_glm(data)))
        with pytest.raises(RankDeficientError, match="random-effect crossproduct"):
            model.default_prior(data)

    def test_step_halving_reaches_the_mode(self):
        # from the start (log(mean y + 1/2), 0) the full Newton step raises
        # the deviance, so the IRLS halves it
        x = np.array([4.0, 1.0, -3.5, -0.5, -1.0, -0.5])
        y = np.array([68.0, 5.0, 0.0, 1.0, 0.0, 0.0])
        X = np.stack([np.ones(6), x], axis=-1)
        data = model.Dataset(families.POISSON, y[None], X[None], np.ones((1, 6, 1)))

        def deviance(beta):
            eta = X @ beta
            return -2.0 * (y * eta - data.family.derivs(eta, np.ones(6), 0)[0]).sum()

        start = np.array([math.log(y.mean() + 0.5), 0.0])
        score, fisher = oracles.pooled_glm_penalized_score(data, start, math.inf)
        assert deviance(start + np.linalg.solve(fisher, score)) > deviance(start)
        beta = model.fit_pooled_glm(data)
        np.testing.assert_array_equal(beta, oracles.pooled_glm_flat(data))
        score, fisher = oracles.pooled_glm_penalized_score(data, beta, math.inf)
        assert np.abs(np.linalg.solve(fisher, score)).max() < 1e-6

    def test_pooled_fit_matches_score_equations(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=1, n=10, p=2, ni_max=6)
        beta = model.fit_pooled_glm(data)
        sel = data.mask.ravel() > 0
        X = data.X.reshape(-1, 2)[sel]
        y = data.y.ravel()[sel]
        m = data.trials.ravel()[sel]
        score = X.T @ (y - data.family.derivs(X @ beta, m, 1)[1])
        assert np.abs(score).max() < 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(famname=st.sampled_from(["poisson", "binomial", "bernoulli"]),
           n=st.integers(1, 8), p=st.integers(1, 3), ni_max=st.integers(1, 6),
           beta_scale=st.floats(0.0, 3.0), log_sigma_beta2=st.floats(-2.0, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ridge_irls_solves_the_penalized_score_equations(
            self, famname, n, p, ni_max, beta_scale, log_sigma_beta2, seed):
        data = random_dataset(np.random.default_rng(seed), families.by_name(famname),
                              n=n, p=p, ni_max=ni_max, beta_scale=beta_scale)
        # the flat prior adds exact zeros: the IRLS without ridge terms, bit
        # for bit, or the same error
        try:
            flat = oracles.pooled_glm_flat(data)
        except GlmmVbError as err:
            with pytest.raises(type(err)):
                model.fit_pooled_glm(data)
        else:
            np.testing.assert_array_equal(model.fit_pooled_glm(data, sigma_beta2=math.inf),
                                          flat)
        sigma_beta2 = 10.0 ** log_sigma_beta2
        sel = data.mask.ravel() > 0
        if np.linalg.matrix_rank(data.X.reshape(-1, p)[sel]) < p:
            with pytest.raises(RankDeficientError):
                model.fit_pooled_glm(data, sigma_beta2=sigma_beta2)
            return
        # a finite prior always has a finite mode, and IRLS reaches it: the
        # Newton step left from the result is negligible
        beta = model.fit_pooled_glm(data, sigma_beta2=sigma_beta2)
        score, fisher = oracles.pooled_glm_penalized_score(data, beta, sigma_beta2)
        assert np.abs(np.linalg.solve(fisher, score)).max() < 1e-5 * (1.0 + np.abs(beta).max())

    # -1 used to return a mode under a negative prior variance, and 0, -0.001
    # and nan raised IrlsDivergedError
    @pytest.mark.parametrize("sigma_beta2", [0.0, -0.001, -1.0, -math.inf, math.nan])
    def test_sigma_beta2_outside_zero_to_inf_is_a_configuration_error(self, sigma_beta2):
        data = datasets.seeds_dataset()
        with pytest.raises(ConfigError, match="sigma_beta2"):
            model.fit_pooled_glm(data, sigma_beta2=sigma_beta2)

    def test_ridge_keeps_a_separable_design_finite(self):
        data = separable_bernoulli()
        with pytest.raises(IrlsDivergedError):
            model.fit_pooled_glm(data)
        beta = model.fit_pooled_glm(data, sigma_beta2=100.0)
        score, _ = oracles.pooled_glm_penalized_score(data, beta, 100.0)
        assert np.all(np.isfinite(beta)) and np.abs(score).max() < 1e-8

    @pytest.mark.parametrize("sigma_beta2", [100.0, 10.0])
    def test_default_prior_of_a_separable_design_takes_the_ridge_mode(self, sigma_beta2):
        # the flat IRLS diverges; the weights come from the mode under the
        # prior's own N(0, sigma_beta2 I) on beta (r = 1: nu = 1, S = sum w / n)
        data = separable_bernoulli()
        beta = model.fit_pooled_glm(data, sigma_beta2=sigma_beta2)
        w = data.mask * data.family.derivs(data.X @ beta, data.trials, 2)[2]
        prior = model.default_prior(data, sigma_beta2=sigma_beta2)
        assert prior.nu == 1.0 and prior.sigma_beta2 == sigma_beta2
        np.testing.assert_allclose(prior.S, [[w.sum() / data.n]], rtol=1e-12)


class TestPriorSettings:
    @pytest.mark.parametrize("sigma_beta2", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda sb2: model.WishartPrior(sb2, 2.0, np.eye(1)),
        lambda sb2: model.NormalOmegaPrior(sb2, np.zeros(1), np.ones(1)),
        lambda sb2: oracles.KnownOmega(sb2, np.zeros(1)),
    ], ids=["wishart", "normal-omega", "known-omega"])
    def test_sigma_beta2_must_be_positive_and_finite(self, make, sigma_beta2):
        with pytest.raises(ConfigError, match="sigma_beta2"):
            make(sigma_beta2)
        make(0.5)

    @pytest.mark.parametrize("mean,sd", [(0.0, 0.0), (0.0, -1.0), (0.0, math.nan),
                                         (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                         (0.0, 1e-200)])
    def test_normal_omega_needs_finite_means_and_positive_finite_sds(self, mean, sd):
        with pytest.raises(ConfigError, match="omega prior"):
            model.NormalOmegaPrior(1.0, np.array([0.0, mean]), np.array([1.0, sd]))
        model.NormalOmegaPrior(1.0, np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("r", [2, 3])
    def test_wishart_scale_must_be_symmetric(self, r):
        # an asymmetric S was read as inv(sym(S)) at r = 2 but as sym(inv(S))
        # at r = 3; SPD otherwise, so only the symmetry check rejects it
        S = 2.0 * np.eye(r)
        S[0, 1] = 0.5
        with pytest.raises(ConfigError, match="symmetric"):
            model.WishartPrior(1.0, float(r + 1), S)
        # asymmetry within round-off, as default_prior's products leave, is accepted
        S[1, 0] = np.nextafter(0.5, 1.0)
        model.WishartPrior(1.0, float(r + 1), S)

    def test_normal_omega_sd_squared_must_not_underflow(self):
        smallest = 2.0 ** -511  # its square is the smallest normal number
        with pytest.raises(ConfigError, match="omega prior"):
            model.NormalOmegaPrior(1.0, np.zeros(1), np.array([np.nextafter(smallest, 0.0)]))
        prior = model.NormalOmegaPrior(1.0, np.zeros(1), np.array([smallest]))
        gp = model.GlobalParams(np.zeros(1), np.ones(1), 1)
        with np.errstate(all="raise"):
            assert np.isfinite(prior.grad_omega(gp)).all()

    def test_normal_omega_sd_whose_square_overflows_is_flat(self):
        # sd^2 is infinite above about 1.3e154: the prior gradient is zero,
        # and neither it nor a fit warns (pytest turns warnings into errors)
        data = datasets.seeds_dataset()
        prior = model.normal_omega_prior(data.r, sd=1e200)
        gp = model.GlobalParams(np.zeros(data.p), np.ones(data.g2), data.r)
        assert np.array_equal(prior.grad_omega(gp), np.zeros(data.g2))
        res = engine.fit(data, prior, method="a1", seed=1, max_iter=50)
        assert np.isfinite(res.state.params).all() and np.isfinite(res.elbo)
