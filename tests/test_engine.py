import operator
import pickle
import time
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glmmvb import (
    datasets,
    engine,
    families,
    fileio,
    gradients,
    matcalc,
    model,
    reparam,
    simulate,
)
from glmmvb.exceptions import (
    ConfigError,
    DivergedError,
    ModeSearchFailedError,
    OverflowGuardError,
    RankDeficientError,
)

import oracles
from conftest import (
    exact_elbo_known_omega_micro,
    random_dataset,
    random_gp,
    random_wishart_prior,
    separable_bernoulli,
)


def small_state(rng, n=2, r=2, g=3):
    state = engine.VariationalState.initial(n, r, g)
    state.mu = 0.5 * rng.standard_normal(state.d)
    state.cstar_local = 0.2 * rng.standard_normal((n, state.cstar_local.shape[1]))
    state.cstar_global = 0.2 * rng.standard_normal(state.cstar_global.size)
    return state


def micro_model(rng=None, n=1, k=3):
    """gaussian-unit, X = Z = ones, known Omega: conjugate and exactly
    fittable by a block Gaussian."""
    rng = rng or np.random.default_rng(7)
    y = [rng.standard_normal(k) + 0.8 for _ in range(n)]
    ones = np.ones((k, 1))
    data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, y,
                                    [ones] * n, [ones] * n)
    prior = oracles.KnownOmega(100.0, np.array([0.25]))
    return data, prior


class TestParamsLayout:
    def test_views_share_params_and_copies_share_nothing(self, rng):
        state = small_state(rng)
        for view in (state.mu, state.cstar_local, state.cstar_global):
            assert np.shares_memory(view, state.params)
        copy = engine.VariationalState(state.n, state.r, state.g, state.params.copy())
        for other in (copy, pickle.loads(pickle.dumps(state)), deepcopy(state)):
            np.testing.assert_array_equal(other.params, state.params)
            assert not np.shares_memory(other.params, state.params)
            for name in ("mu", "cstar_local", "cstar_global"):
                assert np.shares_memory(getattr(other, name), other.params)
                assert not np.shares_memory(getattr(other, name), state.params)

    @pytest.mark.parametrize("name", ["params", "mu", "cstar_local", "cstar_global"])
    def test_assignment_writes_into_params(self, rng, name):
        state = small_state(rng)
        view = getattr(state, name)
        setattr(state, name, np.full(view.shape, 0.25))
        setattr(state, name, operator.iadd(getattr(state, name), 1.0))  # state.<name> += 1.0
        assert getattr(state, name) is view
        np.testing.assert_array_equal(view, np.full(view.shape, 1.25))
        assert np.count_nonzero(state.params == 1.25) == view.size

    def test_initial_layout(self):
        lg = np.log(0.1)
        # n = 2, r = 2, g = 3: mu (7), two local half-vecs (3 each), one
        # global half-vec (6) with the diagonal at positions 0, 3 and 5
        expected = np.concatenate([np.zeros(7), np.zeros(6), [lg, 0, 0, lg, 0, lg]])
        np.testing.assert_array_equal(engine.VariationalState.initial(2, 2, 3).params,
                                      expected)

    def test_wrong_size_params_raise(self):
        with pytest.raises(ConfigError, match="expected 4 parameters"):
            engine.VariationalState(1, 1, 1, np.zeros(5))

    def test_step_adds_the_adam_update_to_params(self, rng, monkeypatch):
        data = random_dataset(rng, families.POISSON, r=2, n=3)
        prior = model.default_prior(data)
        state = small_state(rng, n=data.n, r=data.r, g=data.g)
        adam = engine.AdamState.zeros(state.params.size)
        before, updates = state.params.copy(), []
        ascent_step = engine.AdamState.ascent_step

        def record(self, g, alpha):
            updates.append(ascent_step(self, g, alpha))
            return updates[-1]

        monkeypatch.setattr(engine.AdamState, "ascent_step", record)
        engine.step(data, prior, engine.FitConfig(method="a1", seed=2), state, adam, 1,
                    engine.LaneStream(2, engine.LANE_FIT))
        assert len(updates) == 1 and np.any(updates[0] != 0.0)
        np.testing.assert_array_equal(state.params, before + updates[0])


class TestCstarLayout:
    """C*'s position map gives the C blocks, log|C| and the estimator with
    the bytes of the block-by-block references in tests/oracles.py."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(0, 5), r=st.sampled_from([1, 2, 3]), g=st.integers(1, 9),
           lead=st.sampled_from([(), (4,)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_blockwise_references(self, n, r, g, lead, seed):
        rng = np.random.default_rng(seed)
        state = engine.VariationalState(n, r, g)
        state.params = rng.standard_normal(state.params.size)
        blocks = state.blocks()
        for got, want in zip(blocks, oracles.c_blocks(state)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.log_det_c(), oracles.log_det_c(state))
        s = rng.standard_normal(lead + (state.d,))
        grad_vec = rng.standard_normal(lead + (state.d,))
        np.testing.assert_array_equal(engine.estimator(state, s, grad_vec, blocks),
                                      oracles.estimator_blockwise(state, s, grad_vec, blocks))

    def test_small_map_by_hand(self):
        layout = engine.cstar_layout(2, 2, 3)
        assert engine.cstar_layout(2, 2, 3) is layout
        # n = 2, r = 2, g = 3: two local half-vecs (0,0), (1,0), (1,1) at
        # theta~ rows 0-1 and 2-3, then the global half-vec at rows 4-6
        np.testing.assert_array_equal(layout.rows, [0, 1, 1, 2, 3, 3, 4, 5, 6, 5, 6, 6])
        np.testing.assert_array_equal(layout.cols, [0, 0, 1, 2, 2, 3, 4, 4, 4, 5, 5, 6])
        np.testing.assert_array_equal(layout.offsets, [0, 2, 3, 4, 6, 7, 8, 11, 14, 12, 15, 16])
        # the local diagonals column by column: (0, 0) of both blocks, then (1, 1)
        np.testing.assert_array_equal(layout.diag, [0, 3, 2, 5, 6, 9, 11])
        for a in layout:
            assert not a.flags.writeable
        assert engine.cstar_layout(0, 2, 1).rows.tolist() == [0]


class TestFitConfig:
    @pytest.mark.parametrize("setting", [
        {"final_elbo_draws": -5}, {"final_elbo_draws": 1},
        {"seed": -1}, {"seed": 2 ** 128}, {"seed": True},
    ], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
    def test_rejects_settings_that_give_wrong_fits(self, setting):
        with pytest.raises(ConfigError):
            engine.FitConfig(**setting)

    def test_edge_settings_are_accepted(self):
        engine.FitConfig(final_elbo_draws=0)
        engine.FitConfig(final_elbo_draws=2)
        engine.FitConfig(seed=2 ** 128 - 1)

    # a float count never closes a window or breaks range(); a bool is not a count
    @pytest.mark.parametrize("setting", [
        {"max_iter": 1e3}, {"window": 10.5}, {"window": True}, {"tau": 5.0},
        {"tau": True}, {"final_elbo_draws": 10.5}, {"final_elbo_draws": False},
        {"max_iter": np.float64(100.0)}, {"window": np.bool_(True)},
    ], ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))))
    def test_rejects_counts_that_are_not_integers(self, setting):
        with pytest.raises(ConfigError):
            engine.FitConfig(**setting)

    def test_numpy_integer_counts_are_accepted(self):
        engine.FitConfig(max_iter=np.int64(100), window=np.int32(10), tau=np.int8(3),
                         final_elbo_draws=np.uint16(0))


class TestDrawSample:
    def test_zero_draw_returns_mean(self, rng):
        state = small_state(rng)
        np.testing.assert_array_equal(state.affine(np.zeros(state.d)), state.mu)

    def test_identity_returns_draw(self, rng):
        state = engine.VariationalState(2, 2, 3)  # C = I
        s = rng.standard_normal(state.d)
        np.testing.assert_allclose(state.affine(s), s, atol=1e-15)

    def test_empirical_covariance(self, rng):
        state = small_state(rng)
        N = 100_000
        s = rng.standard_normal((N, state.d))
        draws = state.affine(s)
        emp = np.cov(draws.T)
        C_loc, C_glob = state.blocks()
        cov = np.zeros((state.d, state.d))
        nr = state.n * state.r
        for i in range(state.n):
            blk = C_loc[i] @ C_loc[i].T
            cov[i * state.r:(i + 1) * state.r, i * state.r:(i + 1) * state.r] = blk
        cov[nr:, nr:] = C_glob @ C_glob.T
        var = np.diag(cov)
        se = np.sqrt((np.outer(var, var) + cov ** 2) / N)
        assert np.all(np.abs(emp - cov) < 3 * se + 1e-12)


class TestLogQ:
    def test_standard_normal_at_mean(self):
        state = engine.VariationalState(1, 1, 1)  # C = I
        assert abs(float(oracles.log_q(state, np.zeros(2)))) < 1e-15

    def test_scalar_case(self):
        state = engine.VariationalState(1, 1, 1)  # C = I
        # single local block C = 2, theta - mu = 2 in that coordinate
        state.cstar_local[0, 0] = np.log(2.0)
        theta = np.array([2.0, 0.0])
        expect = -np.log(2.0) - 0.5
        assert abs(float(oracles.log_q(state, theta)) - expect) < 1e-14

    def test_matches_dense_gaussian(self, rng):
        state = small_state(rng)
        nr = state.n * state.r
        C = np.zeros((state.d, state.d))
        C_loc, C_glob = state.blocks()
        for i in range(state.n):
            C[i * state.r:(i + 1) * state.r, i * state.r:(i + 1) * state.r] = C_loc[i]
        C[nr:, nr:] = C_glob
        cov = C @ C.T
        for _ in range(5):
            theta = state.mu + rng.standard_normal(state.d)
            z = theta - state.mu
            dense = (-0.5 * np.linalg.slogdet(cov)[1]
                     - 0.5 * z @ np.linalg.solve(cov, z))
            assert abs(float(oracles.log_q(state, theta)) - dense) < 1e-12


class TestEstimators:
    def test_zero_draw_l2(self, rng):
        state = small_state(rng)
        g = rng.standard_normal(state.d)
        gmu, gvl, gvg = state.views(engine.estimator(state, np.zeros(state.d), g, state.blocks()))
        np.testing.assert_array_equal(gmu, g)
        np.testing.assert_array_equal(gvl, np.zeros_like(gvl))
        np.testing.assert_array_equal(gvg, np.zeros_like(gvg))

    @pytest.mark.parametrize("r", [1, 2])
    def test_batch_of_draws_gives_each_draws_gradient(self, rng, r):
        state = small_state(rng, n=3, r=r, g=3)
        blocks = state.blocks()
        s = rng.standard_normal((5, state.d))
        g = rng.standard_normal((5, state.d))
        batch = engine.estimator(state, s, g, blocks)
        assert batch.shape == (5, state.params.size)
        for k in range(5):
            single = engine.estimator(state, s[k], g[k], blocks)
            assert batch[k].tobytes() == single.tobytes()

    def test_zero_draw_l1_gives_inverse_diag(self, rng):
        state = small_state(rng)
        g = rng.standard_normal(state.d)
        _, gvl, gvg = state.views(oracles.estimator_l1(state, np.zeros(state.d), g,
                                                       state.blocks()))
        # from C*'s coordinates back to C's
        c_loc, c_glob = state.blocks()
        gvl, gvg = gvl / matcalc.dweight(c_loc), gvg / matcalc.dweight(c_glob)
        dl = np.diagonal(c_loc, axis1=-2, axis2=-1)
        np.testing.assert_allclose(gvl[:, matcalc.diag_positions(state.r)], 1.0 / dl)
        dg = np.diag(c_glob)
        np.testing.assert_allclose(gvg[matcalc.diag_positions(state.g)], 1.0 / dg)

    def test_unbiasedness_l1_l2_l3(self, rng):
        # Monte Carlo means of the mu-estimators agree pairwise within
        # 3 combined standard errors at a fixed state
        data, prior = micro_model(rng, n=2, k=3)
        g = data.p
        state = engine.VariationalState.initial(data.n, data.r, g)
        state.mu = 0.3 + np.zeros(state.d)
        N = 100_000
        s = rng.standard_normal((N, state.d))
        theta = state.affine(s)
        b_tilde, glob = state.split(theta)
        gp = engine._global_params(data, prior, glob)
        grad = gradients.grad_full(data, b_tilde, reparam.build_transforms(data, gp, "a1"), prior)
        gvec = grad[..., :state.d]
        means, ses = {}, {}
        estimators = {"L1": oracles.estimator_l1, "L2": engine.estimator,
                      "L3": oracles.estimator_l3}
        for which, est in estimators.items():
            gmu = state.views(est(state, s, gvec, state.blocks()))[0]
            means[which] = gmu.mean(axis=0)
            ses[which] = gmu.std(axis=0, ddof=1) / np.sqrt(N)
        for a, b in (("L1", "L2"), ("L1", "L3"), ("L2", "L3")):
            comb = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
            assert np.all(np.abs(means[a] - means[b]) < 3 * comb + 1e-12)

    def test_vc_estimators_unbiased_against_each_other(self, rng):
        state = small_state(rng)
        N = 200_000
        s = rng.standard_normal((N, state.d))
        g = np.broadcast_to(rng.standard_normal(state.d), (N, state.d))
        _, gvl1, gvg1 = state.views(oracles.estimator_l1(state, s, g, state.blocks()))
        _, gvl2, gvg2 = state.views(engine.estimator(state, s, g, state.blocks()))
        for a, b in ((gvl1, gvl2), (gvg1, gvg2)):
            se = np.sqrt(a.var(axis=0) / N + b.var(axis=0) / N)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) < 4 * se + 1e-10)


def plateau_stops(means, tau):
    """Whether a Plateau of one-step windows fires at the last of `means`,
    pushed in order as ELBO samples."""
    plateau = engine.Plateau(1, tau)
    return [plateau.push(m, np.zeros(2)) for m in means][-1]


class TestShouldStop:
    def test_increasing_continues(self):
        assert not plateau_stops([1.0, 2.0, 3.0, 4.0, 5.0], 5)

    def test_plateau_with_dip_stops(self):
        means = [5.0, 5.1, 5.05, 5.06, 5.0]
        slope = engine.window_slope(means, 5)
        assert abs(slope - (-0.004)) < 1e-12  # independent OLS arithmetic
        assert plateau_stops(means, 5)

    def test_single_mean_never_stops(self):
        assert not plateau_stops([3.0], 5)

    def test_uses_most_recent_tau(self):
        means = [0.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0]
        assert plateau_stops(means, 3)
        assert not plateau_stops([5.0, 1.0, 2.0, 3.0], 3)

    def test_a_held_window_joins_means_but_does_not_stop(self):
        plateau = engine.Plateau(2, 3, hold=3)
        params = np.zeros(2)
        # the windows of pushes 1-2 and 3-4 each hold one of the first 3
        fired = [plateau.push(e, params) for e in (4.0, 4.0, 2.0, 2.0, 1.0)]
        assert fired == [False] * 5 and not plateau.converged
        assert plateau.means == [4.0, 2.0]
        assert plateau.push(1.0, params) and plateau.converged
        assert plateau.means == [4.0, 2.0, 1.0]

    def test_window_means_and_average_in_push_order(self):
        plateau = engine.Plateau(2, 3)
        params = [np.array([1.0, 2.0]), np.array([0.1, 0.2]), np.array([3.0, 5.0])]
        fired = [plateau.push(e, p) for e, p in zip([4.0, 2.0, 1.0], params)]
        assert fired == [False, False, False] and plateau.means == [3.0]
        np.testing.assert_array_equal(plateau.average, (params[0] + params[1]) / 2)
        assert plateau.push(0.0, params[2]) and plateau.converged
        assert plateau.means == [3.0, 0.5]
        np.testing.assert_array_equal(plateau.average, (params[2] + params[2]) / 2)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        adam = engine.AdamState.zeros(4)
        step = adam.ascent_step(np.zeros(4))
        np.testing.assert_array_equal(step, np.zeros(4))
        assert adam.t == 1

    def test_step_size_bounded_by_alpha(self, rng):
        adam = engine.AdamState.zeros(6)
        for _ in range(10):
            step = adam.ascent_step(rng.standard_normal(6))
            assert np.all(np.abs(step) <= 5 * engine.ADAM_ALPHA)


class TestStepAndFit:
    def test_determinism(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=4)
        prior = model.default_prior(data)
        mus = []
        for _ in range(2):
            cfg = engine.FitConfig(method="a1", seed=11, max_iter=100,
                                   window=1000, final_elbo_draws=0)
            res = engine.fit(data, prior, cfg)
            mus.append(res.state.mu)
        np.testing.assert_array_equal(mus[0], mus[1])

    def test_c_diagonals_stay_positive(self, rng):
        data = random_dataset(rng, families.BERNOULLI, r=2, n=3)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a2", seed=3, max_iter=200, window=1000,
                               final_elbo_draws=0)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        adam = engine.AdamState.zeros(state.params.size)
        draws = engine.LaneStream(cfg.seed, engine.LANE_FIT)
        for t in range(1, 201):
            engine.step(data, prior, cfg, state, adam, t, draws)
            c_loc, c_glob = state.blocks()
            assert np.all(np.diagonal(c_loc, axis1=-2, axis2=-1) > 0)
            assert np.all(np.diag(c_glob) > 0)

    def test_micro_model_reaches_exact_elbo(self):
        data, prior = micro_model()
        cfg = engine.FitConfig(method="a1", seed=1, max_iter=12_000, window=12_000,
                               final_elbo_draws=2000)
        res = engine.fit(data, prior, cfg)
        exact = exact_elbo_known_omega_micro(data, prior.omega, prior.sigma_beta2)
        assert abs(res.elbo - exact) < 1e-3

    def test_micro_model_both_methods_agree(self):
        data, prior = micro_model()
        elbos = []
        for method in ("a1", "a2"):
            cfg = engine.FitConfig(method=method, seed=2, max_iter=12_000,
                                   window=12_000, final_elbo_draws=1000)
            elbos.append(engine.fit(data, prior, cfg).elbo)
        assert abs(elbos[0] - elbos[1]) < 1e-3

    def test_stopping_rule_fires(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=5)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a1", seed=5, max_iter=50_000, window=200,
                               tau=5, final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        assert res.converged
        assert engine.window_slope(res.window_means, cfg.tau) < 0
        assert res.n_iter < cfg.max_iter

    def test_laplace_started_fit_stops_within_four_default_windows(self):
        # the Laplace start and its boosted first steps put the fit on its
        # plateau, so the default 100-step windows let it stop after a few
        data = datasets.seeds_dataset()
        res = engine.fit(data, model.default_prior(data), method="a1", seed=1,
                         final_elbo_draws=0)
        assert res.start_kind == "laplace" and res.converged
        assert res.config.window == 100 and res.n_iter <= 4 * 100

    # unchecked, the first two fail inside step with numpy's ValueError on seeds (r = 1)
    @pytest.mark.parametrize("make", [
        lambda: model.WishartPrior(100.0, 3.0, np.eye(2)),
        lambda: model.NormalOmegaPrior(100.0, np.zeros(3), np.ones(3)),
        lambda: oracles.KnownOmega(100.0, np.zeros(3)),
    ], ids=["wishart-S", "normal-omega-mean", "known-omega"])
    def test_prior_for_another_r_raises_before_the_first_step(self, make, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("step called")
        monkeypatch.setattr(engine, "step", no_step)
        with pytest.raises(ConfigError, match="r = 1 has 1"):
            engine.fit(datasets.seeds_dataset(), make(), method="a1", seed=1)

    def test_config_and_settings_together_raise(self):
        data = datasets.seeds_dataset()
        with pytest.raises(ConfigError, match="not both"):
            engine.fit(data, model.default_prior(data), engine.FitConfig(method="a1"), seed=2)

    def test_elbo_estimate_se_shrinks(self, rng):
        data, prior = micro_model(rng)
        cfg = engine.FitConfig(method="a1", seed=4, max_iter=500, window=500,
                               final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        m1, se1, _ = engine.elbo_estimate(data, prior, res.state, "a1", 200, seed=9)
        m2, se2, _ = engine.elbo_estimate(data, prior, res.state, "a1", 3200, seed=9)
        assert se2 < se1
        assert abs(m1 - m2) < 5 * np.sqrt(se1 ** 2 + se2 ** 2) + 1e-9


def zero_count_group(seed=0, n=20, k=5):
    """Poisson counts whose covariate group (x = 1, every other subject) has
    only zero counts: quasi-separated, the pooled GLM's beta_x runs off to
    -infinity and unpenalized IRLS stops near -18.6."""
    rng = np.random.default_rng(seed)
    x = np.repeat((np.arange(n) % 2.0)[:, None], k, axis=1)
    b = 0.5 * rng.standard_normal((n, 1))
    y = np.where(x == 1, 0.0, rng.poisson(np.exp(b - 1.0), size=(n, k)))
    return model.Dataset(families.POISSON, y, np.stack([np.ones((n, k)), x], axis=-1),
                         np.ones((n, k, 1)))


class TestBoost:
    """A Laplace-started fit's first BOOST_STEPS updates are LAPLACE_BOOST
    times Adam's step for the same gradient, whatever the window; a pooled
    start takes Adam's step throughout."""

    @staticmethod
    def _fit_updates(monkeypatch, data, prior, **settings):
        """fit's result, and each step's (update, Adam's step from the same
        moments and gradient)."""
        ascent_step, updates = engine.AdamState.ascent_step, []

        def record(self, g, alpha):
            unit = ascent_step(deepcopy(self), g)
            updates.append((ascent_step(self, g, alpha), unit))
            return updates[-1][0]

        monkeypatch.setattr(engine.AdamState, "ascent_step", record)
        res = engine.fit(data, prior, final_elbo_draws=0, **settings)
        assert len(updates) == res.n_iter
        return res, updates

    @pytest.mark.parametrize("settings", [{}, {"window": 1000, "tau": 5, "max_iter": 150}],
                             ids=["default-window", "paper-window"])
    def test_laplace_start_boosts_its_first_steps(self, monkeypatch, settings):
        data = datasets.seeds_dataset()
        res, updates = self._fit_updates(monkeypatch, data, model.default_prior(data),
                                         method="a1", seed=1, **settings)
        assert res.start_kind == "laplace" and res.n_iter > engine.BOOST_STEPS
        for t, (update, unit) in enumerate(updates, start=1):
            if t <= engine.BOOST_STEPS:
                np.testing.assert_allclose(update, engine.LAPLACE_BOOST * unit,
                                           rtol=1e-12, atol=0.0)
            else:
                np.testing.assert_array_equal(update, unit)
        assert np.any(updates[0][1] != 0.0)

    def test_pooled_start_takes_adams_step_throughout(self, monkeypatch):
        res, updates = self._fit_updates(
            monkeypatch, separable_bernoulli(), model.WishartPrior(100.0, 1.0, np.eye(1)),
            method="a1", seed=1, max_iter=engine.BOOST_STEPS + 50)
        assert res.start_kind == "pooled"
        for update, unit in updates:
            np.testing.assert_array_equal(update, unit)

    # fit seeds 1-8 on seeds a1 stopped at 40-160 steps at window 20 and at
    # 100-250 at window 50 when a boosted window could stop them
    @pytest.mark.parametrize("window", [20, 50])
    def test_short_windows_stop_on_an_unboosted_window(self, monkeypatch, window):
        data = datasets.seeds_dataset()
        prior = model.default_prior(data)
        push, pushed = engine.Plateau.push, []

        def record(self, elbo, params):
            pushed.append(params.copy())
            return push(self, elbo, params)

        monkeypatch.setattr(engine.Plateau, "push", record)
        for seed in range(1, 9):
            pushed.clear()
            res = engine.fit(data, prior, method="a1", seed=seed, window=window,
                             final_elbo_draws=0)
            assert res.start_kind == "laplace" and res.converged
            assert res.n_iter >= engine.BOOST_STEPS + window
            total = np.zeros_like(pushed[0])
            for params in pushed[res.n_iter - window:]:
                total += params
            np.testing.assert_array_equal(res.state.params, total / window)

    # windows of 20 inside the boost: seed 1 stopped at step 40 when they could
    # stop it; now it runs to max_iter and returns its last iterate, as a fit
    # whose first window is longer than max_iter does
    def test_boosted_windows_do_not_stop_the_fit(self):
        data = datasets.seeds_dataset()
        prior = model.default_prior(data)
        runs = [engine.fit(data, prior, method="a1", seed=1, window=window,
                           max_iter=engine.BOOST_STEPS, final_elbo_draws=0)
                for window in (20, 1000)]
        assert (runs[0].n_iter, runs[0].converged) == (engine.BOOST_STEPS, False)
        assert len(runs[0].window_means) == engine.BOOST_STEPS // 20
        np.testing.assert_array_equal(runs[0].state.params, runs[1].state.params)

    def test_fit_shorter_than_the_boost_is_finite_and_reproducible(self):
        data = datasets.seeds_dataset()
        cfg = engine.FitConfig(method="a1", seed=3, max_iter=engine.BOOST_STEPS // 2,
                               final_elbo_draws=0)
        fits = [engine.fit(data, model.default_prior(data), cfg) for _ in range(2)]
        assert fits[0].start_kind == "laplace" and fits[0].n_iter == cfg.max_iter
        assert np.all(np.isfinite(fits[0].state.params))
        np.testing.assert_array_equal(fits[0].state.params, fits[1].state.params)


class TestStart:
    def test_starts_at_the_pooled_glm_mode_under_the_beta_prior(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=2, n=4)
        prior = model.WishartPrior(2.0, 3.0, np.eye(2))
        cfg = engine.FitConfig(method="a1", seed=2, max_iter=1, final_elbo_draws=0)
        start = model.fit_pooled_glm(data, sigma_beta2=2.0)
        assert not np.array_equal(start, model.fit_pooled_glm(data))
        res = engine.fit(data, prior, cfg)
        np.testing.assert_array_equal(res.start, start)
        # one step from the start the fit recorded, at fit's step size
        state, kind = engine.start_state(data, prior, cfg.method, res.start)
        assert kind == res.start_kind
        engine.step(data, prior, cfg, state, engine.AdamState.zeros(state.params.size), 1,
                    engine.LaneStream(cfg.seed, engine.LANE_FIT), alpha=_fit_alpha(kind, 1))
        np.testing.assert_array_equal(res.state.params, state.params)

    def test_quasi_separation_starts_at_the_finite_ridge_mode(self, monkeypatch):
        data = zero_count_group()
        prior = model.default_prior(data)
        assert model.fit_pooled_glm(data)[1] < -18
        cfg = engine.FitConfig(method="a1", seed=1, window=500)
        res = engine.fit(data, prior, cfg)
        score, _ = oracles.pooled_glm_penalized_score(data, res.start, prior.sigma_beta2)
        assert np.all(np.isfinite(res.start)) and np.abs(score).max() < 1e-8
        # the same fit from beta = 0 ends as high; from the unpenalized
        # IRLS's beta_x = -18.6 Adam does not climb back, and the ELBO ends
        # 0.79 nats lower
        monkeypatch.setattr(model, "fit_pooled_glm",
                            lambda data, sigma_beta2: np.zeros(data.p))
        zero = engine.fit(data, prior, cfg)
        assert res.converged and zero.converged
        assert abs(res.elbo - zero.elbo) < 0.2

    def test_separable_bernoulli_starts_at_the_ridge_mode_and_fits(self):
        data = separable_bernoulli()
        prior = model.WishartPrior(100.0, 1.0, np.eye(1))
        res = engine.fit(data, prior, method="a1", seed=1, window=500)
        np.testing.assert_array_equal(res.start, model.fit_pooled_glm(data, sigma_beta2=100.0))
        assert np.all(np.isfinite(res.start))
        assert res.converged and np.isfinite(res.elbo)

    def test_failed_irls_starts_at_zero(self, rng):
        # a duplicated X column: the pooled design's rank check raises
        data = random_dataset(rng, families.POISSON, n=6, p=2)
        data = model.Dataset(data.family, data.y, data.X[..., [0, 1, 1]], data.Z,
                             n_obs=data.n_obs)
        prior = model.WishartPrior(100.0, 1.0, np.eye(1))
        with pytest.raises(RankDeficientError):
            model.fit_pooled_glm(data, sigma_beta2=prior.sigma_beta2)
        cfg = engine.FitConfig(method="a2", seed=3, max_iter=300, window=100,
                               final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        np.testing.assert_array_equal(res.start, np.zeros(data.p))
        # the fit from the start it recorded, stepped as fit steps it
        state, kind = engine.start_state(data, prior, cfg.method, res.start)
        assert kind == res.start_kind
        adam = engine.AdamState.zeros(state.params.size)
        draws, anchor = engine.LaneStream(cfg.seed, engine.LANE_FIT), None
        for t in range(1, res.n_iter + 1):
            _, anchor = engine.step(data, prior, cfg, state, adam, t, draws, anchor)
        np.testing.assert_array_equal(res.state.params, state.params)


class TestLaplaceStart:
    """start_state: q starts at the Laplace approximation of p(theta_G | y)."""

    @staticmethod
    def _start(data, prior, method, beta=None):
        beta = model.fit_pooled_glm(data, sigma_beta2=prior.sigma_beta2) if beta is None else beta
        state, kind = engine.start_state(data, prior, method, beta)
        assert kind == "laplace"
        return state, state.split(state.mu)[1]

    @pytest.mark.parametrize("make", [
        lambda rng: (datasets.seeds_dataset(), None),
        lambda rng: (random_dataset(rng, families.POISSON, r=2, n=25, ni_max=6), None),
        lambda rng: (simulate.simulate_dataset("bernoulli-i", seed=3, n=60)[0],
                     model.normal_omega_prior(1)),
    ], ids=["seeds", "poisson-r2", "bernoulli-normal-omega"])
    def test_mode_is_a_finite_difference_maximum(self, rng, make):
        data, prior = make(rng)
        prior = prior or model.default_prior(data)
        state, mode = self._start(data, prior, "a2")

        def f(x):
            return float(engine.laplace_objective(data, prior, x)[0])

        f0, h, eye = f(mode), 1e-3, np.eye(mode.size)
        up = np.array([f(mode + h * e) for e in eye])
        down = np.array([f(mode - h * e) for e in eye])
        assert np.all(up < f0) and np.all(down < f0)
        # the values' central difference at the mode: zero to within its own
        # truncation and round-off, far below the curvature over one step
        curv = (up + down - 2.0 * f0) / (h * h)
        assert np.all(np.abs(up - down) / (2 * h) < 1e-5 * np.abs(curv))
        # the global block is the inverse of the values' second differences
        hess = np.array([[f(mode + h * (a + b)) - f(mode + h * (a - b))
                          - f(mode - h * (a - b)) + f(mode - h * (a + b)) for b in eye]
                         for a in eye]) / (4 * h * h)
        c = state.blocks()[1]
        np.testing.assert_allclose(np.linalg.inv(c @ c.T), -hess,
                                   atol=1e-4 * np.abs(hess).max())

    @settings(max_examples=18, deadline=None, derandomize=True)
    @given(famname=st.sampled_from(["poisson", "binomial", "bernoulli"]),
           r=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
    def test_a1_local_blocks_are_the_a2_conditional(self, famname, r, seed):
        data = random_dataset(np.random.default_rng(seed), families.by_name(famname),
                              r=r, n=20, ni_max=8)
        prior = model.default_prior(data)
        beta = model.fit_pooled_glm(data, sigma_beta2=prior.sigma_beta2)
        state, kind = engine.start_state(data, prior, "a1", beta)
        assume(kind == "laplace")
        gp = model.GlobalParams(*np.split(state.split(state.mu)[1], [data.p]), r)
        a1 = reparam.build_transforms(data, gp, "a1")
        a2 = reparam.build_transforms(data, gp, "a2")
        # b = L1 b~ + lambda1 with b~ ~ N(mu_i, C_i C_i') is N(lambda2_i, Lambda2_i)
        mean = np.einsum("nrs,ns->nr", a1.L, state.split(state.mu)[0]) + a1.lam
        lc = a1.L @ state.blocks()[0]
        for got, want in ((mean, a2.lam), (lc @ np.swapaxes(lc, -1, -2), a2.Lambda)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_objective_is_the_exact_marginal_under_gaussian_unit(self, rng):
        data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=2, n=6, p=2)
        prior = random_wishart_prior(rng, 2)
        for _ in range(3):
            x = 0.5 * rng.standard_normal(data.g)
            gp = model.GlobalParams(x[:data.p], x[data.p:], data.r)
            value, grad, _ = engine.laplace_objective(data, prior, x)
            exact = oracles.gaussian_unit_log_marginal(data, gp, prior)
            assert abs(value - exact) < 1e-10 * abs(exact)
            h, eye = 1e-5, np.eye(data.g)
            fd = [(oracles.gaussian_unit_log_marginal(
                       data, model.GlobalParams(*np.split(x + h * e, [data.p]), 2), prior)
                   - oracles.gaussian_unit_log_marginal(
                       data, model.GlobalParams(*np.split(x - h * e, [data.p]), 2), prior))
                  / (2 * h) for e in eye]
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_far_start_finds_the_same_mode_without_warnings(self, rng):
        # trial points far from the mode overflow on their way; pytest makes
        # any RuntimeWarning that escapes an error
        data = random_dataset(rng, families.POISSON, r=2, n=25, ni_max=6)
        prior = model.default_prior(data)
        _, near = self._start(data, prior, "a2")
        _, far = self._start(data, prior, "a2", beta=np.array([10.0, -5.0]))
        np.testing.assert_allclose(far, near, atol=1e-6)

    @pytest.mark.parametrize("case", ["failed build", "wide posterior"])
    def test_fallback_keeps_the_pooled_start(self, rng, monkeypatch, case):
        if case == "failed build":
            data = random_dataset(rng, families.BINOMIAL, r=2, n=20, ni_max=6)
            build = reparam.build_transforms

            def build_a1_only(data, gp, method, anchor=None):
                if method == "a2":
                    raise ModeSearchFailedError("injected")
                return build(data, gp, method, anchor)

            monkeypatch.setattr(reparam, "build_transforms", build_a1_only)
        else:
            # all-zero counts: the mode sends beta and omega towards -inf,
            # with sds of several units there
            data = random_dataset(rng, families.POISSON, n=3)
            data = model.Dataset(data.family, 0.0 * data.y, data.X, data.Z, n_obs=data.n_obs)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a1", seed=4, max_iter=1, final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        assert res.start_kind == "pooled"
        # one step from VariationalState.initial with beta at the pooled GLM's
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        state.split(state.mu)[1][:data.p] = res.start
        engine.step(data, prior, cfg, state, engine.AdamState.zeros(state.params.size), 1,
                    engine.LaneStream(cfg.seed, engine.LANE_FIT))
        np.testing.assert_array_equal(res.state.params, state.params)

    def test_wall_time_covers_the_irls_and_the_start(self, monkeypatch):
        data, prior = micro_model()
        glm, start = model.fit_pooled_glm, engine.start_state

        def slow(fn):
            def call(*args, **kwargs):
                time.sleep(0.05)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(model, "fit_pooled_glm", slow(glm))
        monkeypatch.setattr(engine, "start_state", slow(start))
        res = engine.fit(data, prior, method="a1", max_iter=1, final_elbo_draws=0)
        assert res.wall_time >= 0.1


def _fit_alpha(start_kind, t):
    """Adam's step size at fit's step t: boosted over a Laplace start's first steps."""
    boosted = start_kind == "laplace" and t <= engine.BOOST_STEPS
    return engine.ADAM_ALPHA * (engine.LAPLACE_BOOST if boosted else 1)


def _hand_steps(data, prior, cfg, start):
    """fit's steps written out: (the ELBO sample and the params after each
    of cfg.max_iter steps from fit's start, start_state at the beta start)."""
    state, kind = engine.start_state(data, prior, cfg.method, start)
    adam = engine.AdamState.zeros(state.params.size)
    draws, anchor = engine.LaneStream(cfg.seed, engine.LANE_FIT), None
    elbos, iterates = [], []
    for t in range(1, cfg.max_iter + 1):
        elbo, anchor = engine.step(data, prior, cfg, state, adam, t, draws, anchor,
                                   _fit_alpha(kind, t))
        elbos.append(elbo)
        iterates.append(state.params.copy())
    return elbos, iterates


def _hand_stop(elbos, window, tau, boosted):
    """(window means, n_iter, converged) of the paper's rule over the steps,
    where a window holding one of the first `boosted` steps does not stop."""
    means, acc = [], 0.0
    for it, elbo in enumerate(elbos, 1):
        acc += elbo
        if it % window == 0:
            means.append(acc / window)
            acc = 0.0
            if len(means) >= 2 and it - window >= boosted and engine.window_slope(means, tau) < 0:
                return means, it, True
    return means, len(elbos), False


class TestReturnedState:
    """A converged fit returns the average of its last window's iterates, and
    a fit that reaches max_iter its last iterate; both stop where the paper's
    rule stops."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(famname=st.sampled_from(["poisson", "binomial", "bernoulli"]),
           r=st.sampled_from([1, 2]), method=st.sampled_from(["a1", "a2"]),
           window=st.sampled_from([1, 5, 20]), max_iter=st.integers(1, 90),
           seed=st.integers(0, 2 ** 16))
    @example(famname="poisson", r=1, method="a1", window=1, max_iter=40, seed=0)
    @example(famname="bernoulli", r=2, method="a2", window=20, max_iter=90, seed=1)
    @example(famname="binomial", r=1, method="a2", window=5, max_iter=9, seed=2)
    # Laplace starts that stop at the first windows after the boost
    @example(famname="poisson", r=1, method="a1", window=1, max_iter=140, seed=0)
    @example(famname="binomial", r=1, method="a2", window=5, max_iter=150, seed=2)
    def test_converged_fits_return_the_window_average(self, famname, r, method, window,
                                                      max_iter, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, families.by_name(famname), r=r, n=3)
        prior = model.default_prior(data)
        elbos = iterates = None
        for tau in (3, 5):
            cfg = engine.FitConfig(method=method, seed=seed, max_iter=max_iter, window=window,
                                   tau=tau, final_elbo_draws=0)
            res = engine.fit(data, prior, cfg)
            if elbos is None:
                elbos, iterates = _hand_steps(data, prior, cfg, res.start)
            boosted = engine.BOOST_STEPS if res.start_kind == "laplace" else 0
            means, n_iter, converged = _hand_stop(elbos, window, tau, boosted)
            assert (res.n_iter, res.converged) == (n_iter, converged)
            np.testing.assert_array_equal(res.window_means, means)
            if converged:
                total = np.zeros_like(iterates[0])
                for params in iterates[n_iter - window:n_iter]:
                    total += params
                want = total / window
            else:
                want = iterates[-1]
            np.testing.assert_array_equal(res.state.params, want)
            assert all(np.shares_memory(v, res.state.params)
                       for v in (res.state.mu, res.state.cstar_local, res.state.cstar_global))


class TestAcceptedDraws:
    @staticmethod
    def _first_coordinate_at_most_one(s):
        if np.any(s[:, 0] > 1.0):
            raise OverflowGuardError("pathological draw")
        return (s[:, 0], 2.0 * s)

    def test_rejects_only_the_draws_that_raise(self):
        state = engine.VariationalState.initial(2, 1, 1)
        with pytest.warns(RuntimeWarning, match="rejected"):
            chunks = list(engine.accepted_draws(state, 90, 5, engine.LANE_SIM, 40, 7,
                                                self._first_coordinate_at_most_one))
        # chunk k is drawn from stream(seed, lane, k), sized by the draws still wanted
        drawn, wanted = [], 90
        for k in range(len(chunks)):
            s = engine.stream(5, engine.LANE_SIM, k).standard_normal((min(40, wanted), 3))
            drawn.append(s)
            wanted -= int((s[:, 0] <= 1.0).sum())
        drawn = np.concatenate(drawn)
        kept = drawn[drawn[:, 0] <= 1.0]
        first = np.concatenate([out[0] for out, _ in chunks])
        second = np.concatenate([out[1] for out, _ in chunks])
        np.testing.assert_array_equal(first, kept[:, 0])
        np.testing.assert_array_equal(second, 2.0 * kept)
        assert len(first) == 90 and wanted == 0
        assert chunks[-1][1] == len(drawn) - 90 > 0  # rejected so far, at the end

    def test_a_one_block_chunk_is_its_block(self):
        state = engine.VariationalState.initial(2, 1, 1)
        parts = []

        def evaluate(s):
            parts.append((s[:, 0], 2.0 * s))
            return parts[-1]

        chunks = list(engine.accepted_draws(state, 30, 5, engine.LANE_SIM, 40, 40, evaluate))
        assert len(chunks) == len(parts) == 1 and chunks[0][0] is parts[0]

    # test_reparam's seed-508 Bernoulli search, which fails from `far` at
    # NR_MAX_HALVINGS = 0, as the draws with s_0 > 1; the others start near
    # the mode and finish first, so each failing draw is a block's straggler
    def test_failing_straggler_rejects_the_draws_that_fail_alone(self, monkeypatch):
        rng = np.random.default_rng(508)
        data = random_dataset(rng, families.BERNOULLI, r=1, n=3, p=2)
        gp = model.GlobalParams(0.5 * rng.standard_normal(2), 0.5 * rng.standard_normal(1), 1)
        far = 4.0 * rng.standard_normal((data.n, 1))
        mode = reparam.transform_a2(data, gp).lam
        monkeypatch.setattr(reparam, "NR_MAX_HALVINGS", 0)

        def evaluate(s):
            start = np.where(s[:, :1, None] > 1.0, far, mode + 0.1 * s[:, 1:2, None])
            block = model.GlobalParams(np.broadcast_to(gp.beta, (len(s), 2)),
                                       np.broadcast_to(gp.omega, (len(s), 1)), 1)
            t = reparam.transform_a2(data, block, start)
            return s, t.lam, t.L, t.base_eta, t.weight

        state = engine.VariationalState.initial(2, 1, 1)
        with pytest.warns(RuntimeWarning, match="rejected"):
            chunks = list(engine.accepted_draws(state, 40, 5, engine.LANE_SIM, 40, 8, evaluate))
        drawn, done = [], 0  # chunk k: the draws still wanted, from stream k
        for k, (out, _) in enumerate(chunks):
            drawn.append(engine.stream(5, engine.LANE_SIM, k).standard_normal((40 - done, 3)))
            done += len(out[0])
        drawn, want = np.concatenate(drawn), []
        for i in range(len(drawn)):
            try:
                want.append(evaluate(drawn[i:i + 1]))
            except ModeSearchFailedError:
                pass
        assert 0 < chunks[-1][1] == len(drawn) - len(want) and len(want) == 40
        for got, one in zip(zip(*(out for out, _ in chunks)), zip(*want)):
            np.testing.assert_array_equal(np.concatenate(got), np.concatenate(one))

    @pytest.mark.parametrize("n_draws", [0, 1])
    def test_needs_two_draws(self, n_draws):
        # one draw has no standard error: it was NaN, with numpy's ddof warning
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[1.0], [1.0]]])
        state = engine.VariationalState.initial(1, 1, 2)
        with pytest.raises(ConfigError, match="n_draws"):
            list(engine.accepted_draws(state, n_draws, 1, engine.LANE_SIM, 50, 50,
                                       self._first_coordinate_at_most_one))
        with pytest.raises(ConfigError, match="n_draws"):
            engine.elbo_estimate(data, model.default_prior(data), state, "a1", n_draws, seed=1)

    def test_nearly_all_rejected_raises(self):
        def reject_all(s):
            raise OverflowGuardError("pathological draw")
        state = engine.VariationalState.initial(1, 1, 1)
        with pytest.raises(OverflowGuardError, match="rejected nearly all"):
            list(engine.accepted_draws(state, 3, 1, engine.LANE_SIM, 50, 50, reject_all))

    def test_elbo_estimate_rejects_pathological_draws(self):
        # Z = 0 leaves Omega alone in the a1 precision: omega draws below
        # about -355 overflow Omega^{-1}, the others give a finite log joint
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[0.0], [0.0]]])
        prior = model.normal_omega_prior(1)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = -354.0
        state.cstar_global[matcalc.diag_positions(2)] = [np.log(0.1), 0.0]
        with pytest.warns(RuntimeWarning, match="rejected"):
            elbo, se, _ = engine.elbo_estimate(data, prior, state, "a1", 1000, seed=2)
        assert np.isfinite(elbo) and 0.0 < se < 1.0

    def test_elbo_estimate_reports_the_rejected_draws(self, monkeypatch):
        # the pathological state of test_elbo_estimate_rejects_pathological_draws
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[0.0], [0.0]]])
        prior = model.normal_omega_prior(1)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = -354.0
        state.cstar_global[matcalc.diag_positions(2)] = [np.log(0.1), 0.0]
        yielded, accepted_draws = [], engine.accepted_draws

        def recorded(*args):
            for out, rejected in accepted_draws(*args):
                yielded.append(rejected)
                yield out, rejected

        monkeypatch.setattr(engine, "accepted_draws", recorded)
        with pytest.warns(RuntimeWarning, match="rejected"):
            _, _, rejected = engine.elbo_estimate(data, prior, state, "a1", 1000, seed=2)
        assert rejected == yielded[-1] > 0

    def test_elbo_estimate_rejects_draws_whose_log_joint_is_not_finite(self, monkeypatch):
        # at the initial state b~ is the draw's local part, and the patched log
        # joint is NaN where the first subject's b~ exceeds 1: exactly those
        # draws are rejected, chunk k drawn from stream(seed, LANE_FINAL, k)
        data, prior = micro_model()
        state = engine.VariationalState.initial(data.n, data.r, data.p)
        log_joint = model.log_joint_reparam

        def nan_above_one(data, b_tilde, transforms, prior):
            value = log_joint(data, b_tilde, transforms, prior)
            return np.where(b_tilde[..., 0, 0] > 1.0, np.nan, value)

        monkeypatch.setattr(model, "log_joint_reparam", nan_above_one)
        with pytest.warns(RuntimeWarning, match="rejected"):
            elbo, se, rejected = engine.elbo_estimate(data, prior, state, "a1", 200, seed=3)
        drawn, wanted, k = 0, 200, 0
        while wanted:
            s = engine.stream(3, engine.LANE_FINAL, k).standard_normal(
                (min(engine.ELBO_CHUNK, wanted), state.d))
            drawn, wanted, k = drawn + len(s), wanted - int((s[:, 0] <= 1.0).sum()), k + 1
        assert rejected == drawn - 200 > 0
        assert np.isfinite(elbo) and np.isfinite(se)

    @pytest.mark.parametrize("final_elbo_draws", [0, 200])
    def test_fit_records_the_final_elbo_and_its_rejected_draws(self, final_elbo_draws):
        data, prior = micro_model()
        res = engine.fit(data, prior, method="a1", seed=3, max_iter=300, window=100,
                         final_elbo_draws=final_elbo_draws)
        if final_elbo_draws:
            assert (res.elbo, res.elbo_se, res.elbo_rejected) == engine.elbo_estimate(
                data, prior, res.state, "a1", final_elbo_draws, 3)
        else:
            assert np.isnan(res.elbo) and np.isnan(res.elbo_se) and res.elbo_rejected == 0

    def test_elbo_estimate_near_the_largest_float_is_finite(self):
        # the pathological state of test_rejection_of_pathological_draws: the
        # accepted draws' log joints are finite but near -1e307, so their plain
        # sum overflows
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[1.0], [1.0]]])
        prior = model.default_prior(data)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = 355.0
        state.cstar_global[matcalc.diag_positions(2)] = [np.log(1e-12), np.log(0.3)]
        with pytest.warns(RuntimeWarning, match="rejected"):
            elbo, se, _ = engine.elbo_estimate(data, prior, state, "a1", 400, seed=4)
        assert np.isfinite(elbo) and np.isfinite(se) and se > 0.0
        assert elbo < -1e300


def _a2_fit(data, seed=5, max_iter=300):
    cfg = engine.FitConfig(method="a2", seed=seed, max_iter=max_iter, window=100,
                           final_elbo_draws=50)
    return engine.fit(data, model.default_prior(data), cfg)


def _same_fit(a, b):
    for x, y in ((a.state.mu, b.state.mu), (a.state.cstar_local, b.state.cstar_local),
                 (a.state.cstar_global, b.state.cstar_global),
                 (a.window_means, b.window_means)):
        np.testing.assert_array_equal(x, y)
    assert (a.elbo, a.elbo_se, a.n_iter) == (b.elbo, b.elbo_se, b.n_iter)


class TestWarmStart:
    def test_same_seed_fits_are_bit_identical(self):
        data = datasets.epilepsy_dataset("I")
        _same_fit(_a2_fit(data), _a2_fit(data))

    def test_no_state_leaks_between_fits(self):
        alone = _a2_fit(datasets.seeds_dataset())
        _a2_fit(datasets.epilepsy_dataset("I"), seed=9)
        _same_fit(alone, _a2_fit(datasets.seeds_dataset()))

    def test_state_file_holds_no_modes(self, tmp_path):
        data = datasets.epilepsy_dataset("I")
        res = _a2_fit(data, max_iter=50)
        assert set(vars(res.state)) == {"params", "mu", "cstar_local", "cstar_global",
                                        "n", "r", "g"}
        path = tmp_path / "state.txt"
        fileio.write_state(path, res.state, "a2", "poisson", 5)
        lines = path.read_text().splitlines()
        assert lines[:7] == ["format,glmmvb-state,1", f"n,{data.n}", "r,1", f"g,{data.g}",
                             "method,a2", "family,poisson", "seed,5"]
        assert [ln for ln in lines if ln.startswith("section,")] == [
            "section,mu", "section,cstar_local", "section,cstar_global"]
        assert len(lines) == 7 + 3 + 1 + data.n + 1
        back, _ = fileio.read_state(path)
        np.testing.assert_array_equal(back.params, res.state.params)

    def test_attempts_start_from_the_anchor_and_the_accepted_build_is_next(
            self, rng, monkeypatch):
        data = random_dataset(rng, families.POISSON, r=2, n=3)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a2", seed=8)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        adam = engine.AdamState.zeros(state.params.size)
        build, predict = reparam.build_transforms, reparam.predict_modes
        attempts, built, predicted = [], [], []

        def fail_second_steps_first(data, gp, method, anchor=None):
            attempts.append((gp, anchor))
            if len(attempts) == 2:
                raise OverflowGuardError("injected")
            built.append(build(data, gp, method, anchor))
            return built[-1]

        def spy(data, anchor, gp):
            predicted.append((anchor, gp))
            return predict(data, anchor, gp)

        monkeypatch.setattr(reparam, "build_transforms", fail_second_steps_first)
        monkeypatch.setattr(reparam, "predict_modes", spy)
        draws = engine.LaneStream(cfg.seed, engine.LANE_FIT)
        _, first = engine.step(data, prior, cfg, state, adam, 1, draws)
        # the first step starts from a1's lambda
        assert len(attempts) == 1 and attempts[0][1] is None and predicted == []
        assert first is built[0] and first.gp is attempts[0][0]

        _, anchor = engine.step(data, prior, cfg, state, adam, 2, draws, anchor=first)
        # the failed attempt and the retry each predict from the one anchor
        # at their own theta_G
        assert len(attempts) == 3
        assert not np.array_equal(attempts[1][0].beta, attempts[2][0].beta)
        assert attempts[1][1] is first and attempts[2][1] is first
        assert predicted == [(first, attempts[2][0])]
        # the accepted build, at the retry's theta_G, is the next anchor
        assert anchor is built[1] and anchor.gp is attempts[2][0]

    def test_predicted_starts_take_fewer_newton_steps(self, monkeypatch):
        data = datasets.epilepsy_dataset("I")
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a2", seed=5, max_iter=300, window=100,
                               final_elbo_draws=0)
        objective, calls = reparam._conditional_objective, []

        def counting(*args, **kwargs):
            calls.append(1)
            return objective(*args, **kwargs)

        monkeypatch.setattr(reparam, "_conditional_objective", counting)
        assert engine.fit(data, prior, cfg).n_iter == 300
        predicted = len(calls)
        calls.clear()
        # the warm start: each step from the previous step's modes
        monkeypatch.setattr(reparam, "predict_modes", lambda data, anchor, gp: anchor.lam)
        assert engine.fit(data, prior, cfg).n_iter == 300
        assert predicted < len(calls)


class TestLaneStream:
    def test_reproduces_stream(self):
        lane = engine.LaneStream(17, engine.LANE_FIT)
        for t in (5, 1, 2, 1000, 2):
            rng = lane.at(t)
            first, retry = rng.standard_normal(7), rng.standard_normal(7)
            ref = np.random.Generator(
                np.random.Philox(key=17, counter=[0, 0, engine.LANE_FIT, t]))
            np.testing.assert_array_equal(first, ref.standard_normal(7))
            np.testing.assert_array_equal(retry, ref.standard_normal(7))

    # the generator is reused and reset before each check
    @pytest.mark.parametrize("seed", [0, 17, 2 ** 64 + 1, 2 ** 127 + 3])
    def test_stream_and_lane_stream_reproduce_philox(self, seed):
        lane = engine.LaneStream(seed, engine.LANE_SIM)
        for t in (3, 0, 2 ** 40, 3):
            ref = np.random.Generator(
                np.random.Philox(key=seed, counter=[0, 0, engine.LANE_SIM, t])).standard_normal(5)
            np.testing.assert_array_equal(lane.at(t).standard_normal(5), ref)
            np.testing.assert_array_equal(engine.stream(seed, engine.LANE_SIM, t).standard_normal(5),
                                          ref)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, True])
    def test_seed_is_checked(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            engine.LaneStream(seed, engine.LANE_FIT)
        with pytest.raises(ConfigError, match="seed"):
            engine.stream(seed, engine.LANE_SIM, 0)

    def test_lanes_differ(self):
        a = engine.LaneStream(3, engine.LANE_FIT).at(4).standard_normal(3)
        b = engine.LaneStream(3, engine.LANE_SIM).at(4).standard_normal(3)
        assert not np.array_equal(a, b)

    def test_step_draws_match_stream(self, rng):
        data = random_dataset(rng, families.POISSON, r=2, n=3)
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a2", seed=8)
        states = []
        # a new LaneStream per step, then the one LaneStream of a fit
        for shared in (None, engine.LaneStream(cfg.seed, engine.LANE_FIT)):
            state = engine.VariationalState.initial(data.n, data.r, data.g)
            adam = engine.AdamState.zeros(state.params.size)
            elbos = [engine.step(data, prior, cfg, state, adam, t,
                                 shared or engine.LaneStream(cfg.seed, engine.LANE_FIT))[0]
                     for t in range(1, 30)]
            states.append((elbos, state.params))
        assert states[0][0] == states[1][0]
        np.testing.assert_array_equal(states[0][1], states[1][1])


class TestFailFast:
    def test_singular_transform_diverges(self):
        # every draw of the known omega makes the a1 precision singular
        data = model.Dataset.from_lists(families.POISSON, [[1.0, 2.0]],
                                        [[[1.0], [0.5]]], [[[0.0], [0.0]]])
        prior = oracles.KnownOmega(100.0, np.array([-800.0]))
        cfg = engine.FitConfig(method="a1", seed=1)
        state = engine.VariationalState.initial(data.n, data.r, data.p)
        adam = engine.AdamState.zeros(state.params.size)
        with pytest.raises(DivergedError, match="iteration 1"):
            engine.step(data, prior, cfg, state, adam, 1, engine.LaneStream(1, engine.LANE_FIT))

    def test_non_finite_update_diverges_before_it_is_applied(self, monkeypatch):
        # a NaN gradient coordinate beside a finite ELBO sample makes Adam's update NaN
        value_and_grad = gradients.value_and_grad

        def nan_gradient(*args):
            value, grad = value_and_grad(*args)
            grad = grad.copy()
            grad[..., 0] = np.nan
            return value, grad

        monkeypatch.setattr(gradients, "value_and_grad", nan_gradient)
        data, prior = micro_model()
        cfg = engine.FitConfig(method="a1", seed=1)
        state = engine.VariationalState.initial(data.n, data.r, data.p)
        before = state.params.copy()
        adam = engine.AdamState.zeros(state.params.size)
        with pytest.raises(DivergedError, match="^iteration 1: non-finite parameter update$"):
            engine.step(data, prior, cfg, state, adam, 1, engine.LaneStream(1, engine.LANE_FIT))
        assert state.params.tobytes() == before.tobytes()

    def test_nan_state_stops_at_first_step(self, monkeypatch):
        data, prior = micro_model()
        make = engine.VariationalState.initial

        def nan_local_mean(n, r, g, **kw):
            state = make(n, r, g, **kw)
            state.mu[0] = np.nan  # a coordinate an a2 start leaves as it is
            return state

        monkeypatch.setattr(engine.VariationalState, "initial", staticmethod(nan_local_mean))
        cfg = engine.FitConfig(method="a2", seed=1, max_iter=60, window=5,
                               final_elbo_draws=0)
        with pytest.raises(DivergedError, match="iteration 1:"):
            engine.fit(data, prior, cfg)
