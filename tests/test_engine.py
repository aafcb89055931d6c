import operator
import pickle

import numpy as np
import pytest

from glmmvb import datasets, engine, families, fileio, gradients, matcalc, model, reparam
from glmmvb.exceptions import ConfigError, DivergedError, OverflowGuardError

import oracles
from conftest import (
    exact_elbo_known_omega_micro,
    random_dataset,
    random_gp,
    random_wishart_prior,
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
        for other in (state.copy(), pickle.loads(pickle.dumps(state))):
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

        def record(self, g, cfg):
            updates.append(ascent_step(self, g, cfg))
            return updates[-1]

        monkeypatch.setattr(engine.AdamState, "ascent_step", record)
        engine.step(data, prior, engine.FitConfig(method="a1", seed=2), state, adam, 1)
        assert len(updates) == 1 and np.any(updates[0] != 0.0)
        np.testing.assert_array_equal(state.params, before + updates[0])


class TestFitConfig:
    @pytest.mark.parametrize("setting", [
        {"adam_alpha": -1e-3}, {"adam_alpha": 0.0}, {"adam_alpha": np.inf},
        {"adam_alpha": np.nan}, {"adam_beta1": 1.0}, {"adam_beta1": -0.1},
        {"adam_beta2": 1.0}, {"adam_beta2": np.nan}, {"adam_eps": 0.0},
        {"adam_eps": -1e-8}, {"adam_eps": np.inf}, {"final_elbo_draws": -5},
        {"final_elbo_draws": 1},
        {"seed": -1}, {"seed": 2 ** 128},
    ], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
    def test_rejects_settings_that_give_wrong_fits(self, setting):
        with pytest.raises(ConfigError):
            engine.FitConfig(**setting)

    def test_edge_settings_are_accepted(self):
        engine.FitConfig(adam_beta1=0.0, adam_beta2=0.0, final_elbo_draws=0)
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
        state = engine.VariationalState.initial(2, 2, 3, global_scale=1.0)
        s = rng.standard_normal(state.d)
        np.testing.assert_allclose(state.affine(s), s, atol=1e-15)

    def test_empirical_covariance(self, rng):
        state = small_state(rng)
        N = 100_000
        s = rng.standard_normal((N, state.d))
        draws = state.affine(s)
        emp = np.cov(draws.T)
        C_loc = state.c_local()
        cov = np.zeros((state.d, state.d))
        nr = state.n * state.r
        for i in range(state.n):
            blk = C_loc[i] @ C_loc[i].T
            cov[i * state.r:(i + 1) * state.r, i * state.r:(i + 1) * state.r] = blk
        cov[nr:, nr:] = state.c_global() @ state.c_global().T
        var = np.diag(cov)
        se = np.sqrt((np.outer(var, var) + cov ** 2) / N)
        assert np.all(np.abs(emp - cov) < 3 * se + 1e-12)


class TestLogQ:
    def test_standard_normal_at_mean(self):
        state = engine.VariationalState.initial(1, 1, 1, global_scale=1.0)
        assert abs(float(oracles.log_q(state, np.zeros(2)))) < 1e-15

    def test_scalar_case(self):
        state = engine.VariationalState.initial(1, 1, 1, global_scale=1.0)
        # single local block C = 2, theta - mu = 2 in that coordinate
        state.cstar_local[0, 0] = np.log(2.0)
        theta = np.array([2.0, 0.0])
        expect = -np.log(2.0) - 0.5
        assert abs(float(oracles.log_q(state, theta)) - expect) < 1e-14

    def test_matches_dense_gaussian(self, rng):
        state = small_state(rng)
        nr = state.n * state.r
        C = np.zeros((state.d, state.d))
        C_loc = state.c_local()
        for i in range(state.n):
            C[i * state.r:(i + 1) * state.r, i * state.r:(i + 1) * state.r] = C_loc[i]
        C[nr:, nr:] = state.c_global()
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
        gmu, gvl, gvg = engine.estimator(state, np.zeros(state.d), g, "L2")
        np.testing.assert_array_equal(gmu, g)
        np.testing.assert_array_equal(gvl, np.zeros_like(gvl))
        np.testing.assert_array_equal(gvg, np.zeros_like(gvg))

    def test_zero_draw_l1_gives_inverse_diag(self, rng):
        state = small_state(rng)
        g = rng.standard_normal(state.d)
        _, gvl, gvg = engine.estimator(state, np.zeros(state.d), g, "L1")
        from glmmvb import matcalc
        dl = np.diagonal(state.c_local(), axis1=-2, axis2=-1)
        np.testing.assert_allclose(gvl[:, matcalc.diag_positions(state.r)], 1.0 / dl)
        dg = np.diag(state.c_global())
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
        gvec = grad.concat(include_omega=False)
        means, ses = {}, {}
        for which in ("L1", "L2", "L3"):
            gmu, _, _ = engine.estimator(state, s, gvec, which)
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
        _, gvl1, gvg1 = engine.estimator(state, s, g, "L1")
        _, gvl2, gvg2 = engine.estimator(state, s, g, "L2")
        for a, b in ((gvl1, gvl2), (gvg1, gvg2)):
            se = np.sqrt(a.var(axis=0) / N + b.var(axis=0) / N)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) < 4 * se + 1e-10)


class TestShouldStop:
    def test_increasing_continues(self):
        assert not engine.should_stop([1.0, 2.0, 3.0, 4.0, 5.0], 5)

    def test_plateau_with_dip_stops(self):
        means = [5.0, 5.1, 5.05, 5.06, 5.0]
        slope = engine.window_slope(means, 5)
        assert abs(slope - (-0.004)) < 1e-12  # independent OLS arithmetic
        assert engine.should_stop(means, 5)

    def test_single_mean_never_stops(self):
        assert not engine.should_stop([3.0], 5)

    def test_uses_most_recent_tau(self):
        means = [0.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0]
        assert engine.should_stop(means, 3)
        assert not engine.should_stop([5.0, 1.0, 2.0, 3.0], 3)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        adam = engine.AdamState.zeros(4)
        cfg = engine.FitConfig()
        step = adam.ascent_step(np.zeros(4), cfg)
        np.testing.assert_array_equal(step, np.zeros(4))
        assert adam.t == 1

    def test_step_size_bounded_by_alpha(self, rng):
        adam = engine.AdamState.zeros(6)
        cfg = engine.FitConfig()
        for _ in range(10):
            step = adam.ascent_step(rng.standard_normal(6), cfg)
            assert np.all(np.abs(step) <= 5 * cfg.adam_alpha)


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
        for t in range(1, 201):
            engine.step(data, prior, cfg, state, adam, t)
            assert np.all(np.diagonal(state.c_local(), axis1=-2, axis2=-1) > 0)
            assert np.all(np.diag(state.c_global()) > 0)

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
        assert res.converged and not res.max_iter_reached
        assert engine.window_slope(res.window_means, cfg.tau) < 0
        assert res.n_iter < cfg.max_iter

    def test_elbo_estimate_se_shrinks(self, rng):
        data, prior = micro_model(rng)
        cfg = engine.FitConfig(method="a1", seed=4, max_iter=500, window=500,
                               final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        m1, se1 = engine.elbo_estimate(data, prior, res.state, "a1", 200, seed=9)
        m2, se2 = engine.elbo_estimate(data, prior, res.state, "a1", 3200, seed=9)
        assert se2 < se1
        assert abs(m1 - m2) < 5 * np.sqrt(se1 ** 2 + se2 ** 2) + 1e-9


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
            elbo, se = engine.elbo_estimate(data, prior, state, "a1", 1000, seed=2)
        assert np.isfinite(elbo) and 0.0 < se < 1.0

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
            elbo, se = engine.elbo_estimate(data, prior, state, "a1", 400, seed=4)
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
        _, first = engine.step(data, prior, cfg, state, adam, 1)
        # the first step starts from a1's lambda
        assert len(attempts) == 1 and attempts[0][1] is None and predicted == []
        assert first is built[0] and first.gp is attempts[0][0]

        _, anchor = engine.step(data, prior, cfg, state, adam, 2, anchor=first)
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

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5])
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
        for draws in (None, engine.LaneStream(cfg.seed, engine.LANE_FIT)):
            state = engine.VariationalState.initial(data.n, data.r, data.g)
            adam = engine.AdamState.zeros(state.params.size)
            elbos = [engine.step(data, prior, cfg, state, adam, t, draws)[0]
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
            engine.step(data, prior, cfg, state, adam, 1)

    def test_nan_state_stops_at_first_step(self, monkeypatch):
        data, prior = micro_model()
        make = engine.VariationalState.initial

        def nan_beta(n, r, g, **kw):
            state = make(n, r, g, **kw)
            state.mu[n * r] = np.nan
            return state

        monkeypatch.setattr(engine.VariationalState, "initial", staticmethod(nan_beta))
        cfg = engine.FitConfig(method="a1", seed=1, max_iter=60, window=5,
                               final_elbo_draws=0)
        with pytest.raises(DivergedError, match="iteration 1:"):
            engine.fit(data, prior, cfg)
