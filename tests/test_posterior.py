import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import (datasets, engine, families, fileio, matcalc, model, posterior, recombine,
                    reparam, simulate)
from glmmvb.exceptions import (
    ConfigError,
    ModeSearchFailedError,
    NotPositiveDefiniteError,
    OverflowGuardError,
)

import oracles
from conftest import random_dataset, random_gp, random_spd, random_wishart_prior

from test_engine import micro_model
from test_reparam import REFERENCE_TOL, rows_searched


def tiny_global_state(data, mu_global, local_scale=0.4, rng=None):
    """State whose global block is (numerically) a point mass."""
    g = mu_global.size
    state = engine.VariationalState.initial(data.n, data.r, g)
    nr = data.n * data.r
    if rng is not None:
        state.mu[:nr] = 0.3 * rng.standard_normal(nr)
        state.cstar_local += local_scale * rng.standard_normal(state.cstar_local.shape)
    state.mu[nr:] = mu_global
    state.cstar_global[matcalc.diag_positions(g)] = np.log(1e-12)
    return state


class TestNoSubjects:
    """A dataset with no subjects fits on its priors alone, under a1 and a2,
    and simulates no random effects."""

    @pytest.mark.parametrize("family", [families.POISSON, families.BERNOULLI],
                             ids=["poisson", "bernoulli"])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("wishart", [False, True], ids=["normal_omega", "wishart"])
    def test_fits_and_simulates(self, family, r, method, wishart):
        data = model.Dataset(family, np.zeros((0, 1)), np.zeros((0, 1, 2)), np.zeros((0, 1, r)))
        prior = (random_wishart_prior(np.random.default_rng(r), r) if wishart
                 else model.normal_omega_prior(r))
        res = engine.fit(data, prior, method=method, seed=1, max_iter=30, final_elbo_draws=50)
        assert np.isfinite(res.elbo) and res.n_iter == 30
        summary = posterior.simulate_b(data, prior, res.state, method, 20, seed=2)
        assert summary.b_mean.shape == summary.b_sd.shape == (0, r)
        assert np.all(np.isfinite(summary.global_mean)) and np.all(np.isfinite(summary.scale_mean))

    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_state_file_round_trips(self, tmp_path, method):
        # write_state writes n = 0; read_state reads it back bit for bit, and
        # the state read simulates as the state fitted did
        data = model.Dataset(families.POISSON, np.zeros((0, 1)), np.zeros((0, 1, 2)),
                             np.zeros((0, 1, 2)))
        prior = model.normal_omega_prior(data.r)
        res = engine.fit(data, prior, method=method, seed=1, max_iter=30, final_elbo_draws=0)
        path = tmp_path / "state.txt"
        fileio.write_state(path, res.state, method, "poisson", 1)
        back, meta = fileio.read_state(path)
        assert (back.n, back.r, back.g, meta["method"]) == (0, 2, 5, method)
        assert back.params.tobytes() == res.state.params.tobytes()
        sims = [posterior.simulate_b(data, prior, s, method, 20, seed=2) for s in (res.state, back)]
        for name in ("global_mean", "global_sd", "scale_mean", "scale_sd"):
            assert getattr(sims[0], name).tobytes() == getattr(sims[1], name).tobytes(), name


class TestSimulateB:
    @pytest.mark.parametrize("n_draws", [0, 1, 2.5, True])
    def test_needs_two_draws(self, rng, n_draws):
        # one draw gave a NaN scale_sd, with numpy's ddof warning
        data = random_dataset(rng, families.POISSON, r=1, n=3)
        prior = model.default_prior(data)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        with pytest.raises(ConfigError, match="n_draws"):
            posterior.simulate_b(data, prior, state, "a1", n_draws, seed=1)

    def test_unknown_method_is_a_configuration_error(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=3)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        with pytest.raises(ConfigError, match="unknown transform method 'a3'"):
            posterior.simulate_b(data, model.default_prior(data), state, "a3", 10, seed=1)

    def test_draws_do_not_repeat_the_simulated_effects(self, monkeypatch):
        # the command line's --seed seeds both a simulated dataset and the
        # posterior summary of its fit; the scales' draws of theta_G, and
        # those of the Monte Carlo fallback (here forced by a failing rule
        # point), must come from other streams than the simulated effects
        data, truth = simulate.simulate_dataset("poisson-ii", 11, n=50)
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        draws, accepted, draw_transforms = [], engine.accepted_draws, posterior._draw_transforms

        def recording(state, n_draws, seed, lane, block, evaluate, **kwargs):
            def evaluate_recorded(z):
                draws.append(z.copy())
                return evaluate(z)
            return accepted(state, n_draws, seed, lane, block, evaluate_recorded, **kwargs)

        def failing_at_the_centre(data, prior, state, method, z, anchor, blocks):
            if not np.any(z[0]):  # the rule's first point is its centre, 0
                raise OverflowGuardError("injected")
            return draw_transforms(data, prior, state, method, z, anchor, blocks)

        monkeypatch.setattr(engine, "accepted_draws", recording)
        monkeypatch.setattr(posterior, "_draw_transforms", failing_at_the_centre)
        with pytest.warns(RuntimeWarning, match="rejected a point"):
            posterior.simulate_b(data, model.default_prior(data), state, "a1", 2, seed=11)
        # the simulated effects are SIGMA times the first normals of their stream
        effects = truth["random_effects"] / simulate.SIGMA
        assert [z.shape for z in draws] == [(2, data.g)] * 2  # the fallback's, the scales'
        for z in draws:
            assert not np.any(np.isclose(z.ravel(), effects[:z.size]))

    def test_degenerate_q_is_transform_of_mean(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=4)
        prior = model.default_prior(data)
        gp = random_gp(rng, data.p, 1)
        state = tiny_global_state(data, np.concatenate([gp.beta, gp.omega]))
        state.cstar_local[:] = np.log(1e-12)
        summary = posterior.simulate_b(data, prior, state, "a1", 200, seed=1)
        t = reparam.transform_a1(data, gp)
        mu_loc, _ = state.split(state.mu)
        expect = t.invert(mu_loc)
        np.testing.assert_allclose(summary.b_mean, expect, atol=1e-9)
        # one-pass accumulation leaves ~sqrt(eps)*|mean| cancellation noise
        assert np.all(summary.b_sd < 1e-6)

    def test_gaussian_pointmass_global_matches_closed_form(self, rng):
        # with theta_G degenerate, b ~ N(L mu_i + lambda, L Ci Ci' L') exactly
        data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=2, n=3)
        prior = model.default_prior(data)
        gp = random_gp(rng, data.p, 2)
        state = tiny_global_state(data, np.concatenate([gp.beta, gp.omega]), rng=rng)
        n_draws = 40_000
        summary = posterior.simulate_b(data, prior, state, "a1", n_draws, seed=3)
        t = reparam.transform_a1(data, gp)
        mu_loc, _ = state.split(state.mu)
        mean_exact = t.invert(mu_loc)
        C = state.blocks()[0]
        cov_exact = np.einsum("nab,ncb,nxa,nyc->nxy", C, C, t.L, t.L)
        sd_exact = np.sqrt(np.diagonal(cov_exact, axis1=-2, axis2=-1))
        se_mean = sd_exact / np.sqrt(n_draws)
        assert np.all(np.abs(summary.b_mean - mean_exact) < 3.5 * se_mean)
        se_sd = sd_exact / np.sqrt(2 * (n_draws - 1))
        assert np.all(np.abs(summary.b_sd - sd_exact) < 3.5 * se_sd)

    def test_micro_model_matches_joint_gaussian_posterior(self):
        # converged conjugate fit: compare simulated b moments with the exact
        # Gaussian joint posterior computed by dense linear algebra
        data, prior = micro_model()
        cfg = engine.FitConfig(method="a1", seed=1, max_iter=12_000, window=12_000,
                               final_elbo_draws=0)
        res = engine.fit(data, prior, cfg)
        n_draws = 40_000
        summary = posterior.simulate_b(data, prior, res.state, "a1", n_draws, seed=5)

        # exact posterior of (beta, b1..bn) in the conjugate model
        Omega = model.GlobalParams(np.zeros(1), prior.omega, 1).omega_matrix().item()
        k = int(data.n_obs[0])
        nb = data.n
        dim = 1 + nb
        prec = np.zeros((dim, dim))
        lin = np.zeros(dim)
        prec[0, 0] = 1.0 / prior.sigma_beta2
        for i in range(nb):
            X = data.X[i, :k]
            Z = data.Z[i, :k]
            y = data.y[i, :k]
            prec[0, 0] += float(X[:, 0] @ X[:, 0])
            prec[0, 1 + i] += float(X[:, 0] @ Z[:, 0])
            prec[1 + i, 0] += float(Z[:, 0] @ X[:, 0])
            prec[1 + i, 1 + i] = float(Z[:, 0] @ Z[:, 0]) + Omega
            lin[0] += float(X[:, 0] @ y)
            lin[1 + i] = float(Z[:, 0] @ y)
        cov = np.linalg.inv(prec)
        mean = cov @ lin
        sd = np.sqrt(np.diag(cov))
        se = sd[1:] / np.sqrt(n_draws)
        assert np.all(np.abs(summary.b_mean[:, 0] - mean[1:]) < 4 * se)
        assert np.all(np.abs(summary.b_sd[:, 0] - sd[1:]) < 4 * sd[1:] / np.sqrt(n_draws))

    def test_scale_summary_from_concentrated_omega(self, rng):
        data = random_dataset(rng, families.POISSON, r=1, n=3)
        prior = model.default_prior(data)
        state = tiny_global_state(data, np.concatenate([np.zeros(data.p), [-0.64]]))
        summary = posterior.simulate_b(data, prior, state, "a1", 500, seed=2)
        assert summary.scale_names == ["sigma"]
        assert abs(summary.scale_mean[0] - np.exp(0.64)) < 1e-6

    def test_rejection_of_pathological_draws(self, rng):
        # omega draws straddling the exp overflow boundary give non-finite
        # precisions; those draws are rejected, resampled and warned about
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[1.0], [1.0]]])
        prior = model.default_prior(data)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = 355.0  # W = e^omega at the overflow edge
        state.cstar_global[matcalc.diag_positions(2)] = [np.log(1e-12), np.log(0.3)]
        with pytest.warns(RuntimeWarning, match="rejected"):
            summary = posterior.simulate_b(data, prior, state, "a1", 400, seed=4)
        assert summary.n_rejected > 0
        assert np.all(np.isfinite(summary.b_mean))

    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_draws_whose_scales_fail_are_rejected(self, method):
        # omega draws straddling the underflow of Omega = e^{2 omega}
        # (2 omega < -745): the transforms build, since Omega + Z'HZ stays
        # SPD, but the scales need a finite Omega^{-1}; the draws below
        # omega = -354.9 are rejected, about a third
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[1.0], [1.0]]])
        prior = model.default_prior(data)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = -350.0
        state.cstar_global[matcalc.diag_positions(2)] = [np.log(1e-12), np.log(10.0)]
        with pytest.warns(RuntimeWarning, match="rejected"):
            summary = posterior.simulate_b(data, prior, state, method, 200, seed=3)
        assert 0 < summary.n_rejected < 200
        assert np.all(np.isfinite(summary.scale_mean)) and np.all(np.isfinite(summary.b_mean))
        assert np.all(np.isfinite(summary.scale_sd))

    def test_all_draws_rejected_raises(self):
        # every omega draw overflows Omega: the loop stops instead of drawing on
        data = model.Dataset.from_lists(families.POISSON, [[2.0, 3.0]],
                                        [[[1.0], [1.0]]], [[[1.0], [1.0]]])
        prior = model.default_prior(data)
        state = engine.VariationalState.initial(1, 1, 2)
        state.mu[2] = 400.0
        state.cstar_global[matcalc.diag_positions(2)] = np.log(1e-12)
        with pytest.raises(OverflowGuardError, match="rejected nearly all"):
            posterior.simulate_b(data, prior, state, "a1", 5, seed=1)


def _blocks_of(data, block):
    """engine.DRAW_BLOCK_BYTES, MAX_DRAW_BLOCK, A2_DRAW_BLOCK and
    A2_DRAW_BLOCK_BYTES patched so that draw_block(data, method) is block
    under both methods."""
    budget = 8 * data.n * data.J * block
    return mock.patch.multiple(engine, DRAW_BLOCK_BYTES=budget, MAX_DRAW_BLOCK=block,
                               A2_DRAW_BLOCK=block, A2_DRAW_BLOCK_BYTES=budget)


UNBOUNDED = 10 ** 9  # more draws than any call asks for


class TestDrawBlocks:
    """The draws over q are evaluated in blocks within engine.DRAW_BLOCK_BYTES;
    the results do not depend on the block size."""

    @staticmethod
    def _results(data, prior, state, method, n_draws, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rejected draws
            summary = posterior.simulate_b(data, prior, state, method, n_draws, seed)
            elbo = engine.elbo_estimate(data, prior, state, method, n_draws, seed)
        return (summary.b_mean, summary.b_sd, summary.scale_mean, summary.scale_sd,
                summary.n_rejected, elbo)

    @pytest.mark.parametrize("famname", ["poisson", "bernoulli", "binomial"])
    @pytest.mark.parametrize("r", [1, 2, 3])  # r = 3: matcalc's LAPACK paths
    @pytest.mark.parametrize("method", reparam.METHODS)
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(n_draws=st.integers(8, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_results_do_not_depend_on_the_block(self, famname, r, method, n_draws, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, families.by_name(famname), r=r, n=4, p=2)
        prior = random_wishart_prior(rng, r)
        state = engine.VariationalState.initial(data.n, r, data.g)
        state.params += 0.2 * rng.standard_normal(state.params.size)
        with _blocks_of(data, UNBOUNDED):
            want = self._results(data, prior, state, method, n_draws, seed)
        for block in (1, 3, 7):
            with _blocks_of(data, block):
                assert engine.draw_block(data, method) == block
                got = self._results(data, prior, state, method, n_draws, seed)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_a_failing_rule_point_falls_back_to_monte_carlo(self, rng, monkeypatch):
        # an OverflowGuardError at the rule's 21st point, in its third block
        # of 7: b's moments come instead from 24 accepted Monte Carlo draws
        # of theta_G, evaluated in blocks of 7 by the same evaluator, with a
        # warning
        data = random_dataset(rng, families.POISSON, r=2, n=4, p=2)
        prior = random_wishart_prior(rng, 2)
        state = engine.VariationalState.initial(data.n, 2, data.g)
        state.params += 0.2 * rng.standard_normal(state.params.size)
        failing = posterior._cubature_rule(state.g)[0][20]
        calls, draw_transforms = [], posterior._draw_transforms

        def evaluate(data, prior, state, method, z, anchor, blocks):
            calls.append(len(z))
            if np.any(np.all(z == failing, axis=1)):
                raise OverflowGuardError("injected")
            return draw_transforms(data, prior, state, method, z, anchor, blocks)

        monkeypatch.setattr(posterior, "_draw_transforms", evaluate)
        n_draws, seed = 24, 5
        with _blocks_of(data, 7), pytest.warns(RuntimeWarning, match="rule over theta_G rejected"):
            summary = posterior.simulate_b(data, prior, state, "a2", n_draws, seed)
        assert calls == [7] * 3 + [7, 7, 7, 3]
        assert np.all(np.isfinite(summary.b_mean)) and np.all(np.isfinite(summary.b_sd))
        assert summary.n_rejected == 0
        # the equal-weighted mixture of the draws of theta_G from LANE_POSTERIOR
        z = engine.stream(seed, engine.LANE_POSTERIOR, 0).standard_normal((n_draws, state.g))
        mean, var = draw_transforms(data, prior, state, "a2", z, engine.mean_anchor(
            data, prior, state, "a2"), state.blocks())
        b_mean = mean.mean(axis=0)
        np.testing.assert_allclose(summary.b_mean, b_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(summary.b_sd, np.sqrt((var + mean * mean).mean(axis=0)
                                                         - b_mean ** 2), rtol=1e-10)

    def test_a2_blocks_are_capped_by_draws_or_bytes(self):
        # epilepsy II (n J = 236): 277 draws fill DRAW_BLOCK_BYTES, an a2
        # block holds A2_DRAW_BLOCK = 128; seeds (n J = 21): the 3,120 draws
        # that fill DRAW_BLOCK_BYTES are capped at MAX_DRAW_BLOCK = 2,000,
        # under a2 at the 780 that fill A2_DRAW_BLOCK_BYTES; an n = 500
        # design's 18 draws are below every cap
        epilepsy = datasets.epilepsy_dataset("II")
        assert engine.draw_block(epilepsy, "a1") == 277
        assert engine.draw_block(epilepsy, "a2") == engine.A2_DRAW_BLOCK == 128
        seeds = datasets.seeds_dataset()
        assert engine.draw_block(seeds, "a1") == engine.MAX_DRAW_BLOCK == 2000
        assert engine.draw_block(seeds, "a2") == engine.A2_DRAW_BLOCK_BYTES // (8 * 21) == 780
        large = simulate.simulate_dataset("bernoulli-i", seed=202)[0]
        assert engine.draw_block(large, "a2") == engine.draw_block(large, "a1") == 18

    @staticmethod
    def _simulation_peak(data, prior, method, n_draws):
        """tracemalloc's peak over simulate_b at the initial state."""
        state = engine.VariationalState.initial(data.n, data.r, data.g)
        tracemalloc.start()
        try:
            posterior.simulate_b(data, prior, state, method, n_draws, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_epilepsy_a2_simulation_memory(self):
        # 2,000 draws of epilepsy II (n J = 236) under a2: unsplit, the mode
        # search held about 39 MB of (2000, 59, 4) temporaries; in 128-draw
        # blocks of a 2,000-draw chunk 8.2 MB, and 4.3 MB without the chunk
        data = datasets.epilepsy_dataset("II")
        assert self._simulation_peak(data, model.default_prior(data), "a2", 2000) <= 6 * 2 ** 20

    def test_bernoulli_a1_simulation_memory(self):
        # 2,000 draws of a bernoulli-i design of 100 subjects under a1: a
        # 2,000-draw chunk's draws and results peaked at 6.3 MB, its blocks
        # alone at 0.8 MB
        data = simulate.simulate_dataset("bernoulli-i", seed=77, n=100)[0]
        assert self._simulation_peak(data, model.normal_omega_prior(1), "a1", 2000) <= 2 * 2 ** 20

    def test_epilepsy_a2_block_drops_its_finished_draws(self, monkeypatch):
        # the final ELBO's first 250 draws at the default fit's state, as one block:
        # searched row by row to the end, its mode search evaluates 5 points
        # of each draw (1,250 rows); once at most half the draws have an
        # active subject it goes on with those alone (19 here: 1,019 rows)
        data = datasets.epilepsy_dataset("II")
        prior = model.default_prior(data)
        state = engine.fit(data, prior, method="a2", seed=1, final_elbo_draws=0).state
        anchor = engine.mean_anchor(data, prior, state, "a2")
        s = engine.stream(1, engine.LANE_FINAL, 0).standard_normal((250, state.d))
        rows = rows_searched(monkeypatch)
        engine.draw(data, prior, state, "a2", s, anchor)
        assert sum(rows) <= 4.2 * 250


class TestMeanAnchor:
    def test_failed_build_at_the_mean_searches_every_draw_from_a1(self, rng, monkeypatch):
        data = random_dataset(rng, families.POISSON, r=2, n=4, p=2)
        prior = random_wishart_prior(rng, 2)
        state = engine.VariationalState.initial(data.n, 2, data.g)
        state.params += 0.2 * rng.standard_normal(state.params.size)
        build, transform_a2, starts = reparam.build_transforms, reparam.transform_a2, []

        def failing_at_the_mean(data, gp, method, anchor=None):
            # the mean is the one theta_G built alone; the draws come in blocks
            if fail and np.ndim(gp.beta) == 1:
                raise ModeSearchFailedError("injected")
            return build(data, gp, method, anchor)

        def spy(data, gp, start=None):
            starts.append(start)
            return transform_a2(data, gp, start)

        monkeypatch.setattr(reparam, "build_transforms", failing_at_the_mean)
        monkeypatch.setattr(reparam, "transform_a2", spy)
        runs = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fail in (False, True):
                starts.clear()
                runs[fail] = (posterior.simulate_b(data, prior, state, "a2", 40, 6),
                              engine.elbo_estimate(data, prior, state, "a2", 40, 6))
                runs[fail, "starts"] = list(starts)
        # anchored, the mean's build and then every draw's from its prediction
        assert runs[False, "starts"][0] is None and len(runs[False, "starts"]) == 4
        assert all(start is not None for start in runs[False, "starts"][1::2])
        # no anchor: every draw from a1's lambda
        assert runs[True, "starts"] == [None, None]
        (want, want_elbo), (got, got_elbo) = runs[False], runs[True]
        for field in ("b_mean", "b_sd", "scale_mean", "scale_sd"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                       rtol=REFERENCE_TOL, atol=REFERENCE_TOL)
        assert got.n_rejected == want.n_rejected == 0
        np.testing.assert_allclose(got_elbo, want_elbo, rtol=REFERENCE_TOL, atol=REFERENCE_TOL)


class TestCubatureRule:
    @settings(max_examples=300, deadline=None)
    @given(g=st.integers(1, 10), factors=st.lists(st.integers(0, 9), max_size=5))
    def test_integrates_every_monomial_of_degree_five_exactly(self, g, factors):
        # E prod_k x_{i_k} under N(0, I_g) for up to 5 indices i_k: the
        # product over distinct indices of E x^a, (a - 1)!! for even a, 0
        # for odd a; no index gives the weights' sum, 1
        points, weights = posterior._cubature_rule(g)
        assert points.shape == (2 * g * g + 1, g) and weights.shape == (2 * g * g + 1,)
        idx = [k % g for k in factors]
        powers = np.bincount(idx, minlength=g)
        exact = np.prod([0 if a % 2 else math.prod(range(a - 1, 0, -2)) for a in powers])
        got = weights @ np.prod(points[:, idx], axis=1)
        assert abs(got - exact) <= 1e-12 * max(1, exact)

    @pytest.mark.parametrize("design, method, n_oracle", [("seeds", "a1", 50_000),
                                                          ("epilepsy II", "a2", 20_000)])
    def test_b_moments_match_the_monte_carlo_oracle(self, design, method, n_oracle):
        # seeds (r = 1, g = 4) and epilepsy II (r = 2, g = 9, negative axis
        # weights) at their default fits: the rule's b moments lie within 4
        # standard errors of n_oracle draws of the Monte Carlo it replaced
        data = (datasets.seeds_dataset() if design == "seeds"
                else datasets.epilepsy_dataset("II"))
        prior = model.default_prior(data)
        state = engine.fit(data, prior, method=method, seed=0, final_elbo_draws=0).state
        summary = posterior.simulate_b(data, prior, state, method, 100, seed=1)
        mean, sd = oracles.simulate_b_monte_carlo(data, prior, state, method, n_oracle, seed=1)
        assert np.all(np.abs(summary.b_mean - mean) < 4 * sd / np.sqrt(n_oracle))
        assert np.all(np.abs(summary.b_sd - sd) < 4 * sd / np.sqrt(2 * (n_oracle - 1)))

    def test_scales_of_a_fixed_omega_are_constant(self):
        # a prior that fixes omega leaves no omega in q: every draw's sigma
        # is Omega^{-1/2} = e^{-omega}
        data, prior = micro_model()
        state = engine.VariationalState.initial(data.n, data.r, data.p)
        summary = posterior.simulate_b(data, prior, state, "a1", 50, seed=1)
        np.testing.assert_allclose(summary.scale_mean, np.exp(-prior.omega), rtol=1e-14)
        assert np.all(summary.scale_sd < 1e-14)


class TestScaleMapping:
    def test_r2_roundtrip(self, rng):
        omega = 0.7 * rng.standard_normal((50, 3))
        gp = model.GlobalParams(np.zeros((50, 0)), omega, 2)
        scales = posterior._scales(gp)
        assert posterior._scale_names(2) == ["sigma1", "sigma2", "rho"]
        cov = np.linalg.inv(gp.omega_matrix())
        s1, s2, rho = scales[:, 0], scales[:, 1], scales[:, 2]
        rebuilt = np.empty_like(cov)
        rebuilt[:, 0, 0] = s1 ** 2
        rebuilt[:, 1, 1] = s2 ** 2
        rebuilt[:, 0, 1] = rebuilt[:, 1, 0] = rho * s1 * s2
        np.testing.assert_allclose(rebuilt, cov, atol=1e-12, rtol=1e-12)
        assert np.all(np.abs(rho) <= 1)

    def test_r1_is_inverse_cholesky(self, rng):
        omega = rng.standard_normal((20, 1))
        scales = posterior._scales(model.GlobalParams(np.zeros((20, 0)), omega, 1))
        np.testing.assert_allclose(scales[:, 0], np.exp(-omega[:, 0]), rtol=1e-12)


class TestFactorScales:
    def test_draws_from_the_factors_cholesky(self, rng):
        cov = random_spd(rng, 3)
        factor = recombine.GaussianFactor(rng.standard_normal(3), cov)
        names, means, sds = posterior.factor_scales(factor, 2, 1, 50, seed=3)
        draws = (factor.mean + engine.stream(3, engine.LANE_SIM, 1).standard_normal((50, 3))
                 @ np.linalg.cholesky(cov).T)
        want = posterior._scales(model.GlobalParams(draws[:, :2], draws[:, 2:], 1))
        np.testing.assert_array_equal(means, want.mean(axis=0))
        np.testing.assert_array_equal(sds, want.std(axis=0, ddof=1))

    @pytest.mark.parametrize("n_draws", [0, 1, 2.5, True])
    def test_needs_two_draws(self, n_draws):
        factor = recombine.GaussianFactor(np.zeros(2), np.eye(2))
        with pytest.raises(ConfigError, match="n_draws"):
            posterior.factor_scales(factor, 1, 1, n_draws, seed=0)

    @pytest.mark.parametrize("mean, var", [(-350.0, 100.0), (355.0, 0.09)],
                             ids=["underflow", "overflow"])
    def test_draws_whose_scales_fail_are_rejected(self, mean, var):
        # omega draws below about -354.9 underflow Omega = e^{2 omega} and
        # those above about 354.9 overflow it: such draws are rejected, and
        # warned of, where one of them raised NotPositiveDefiniteError and
        # lost a converged sharded fit; the overflow warns of nothing else
        factor = recombine.GaussianFactor(np.array([0.0, mean]), np.diag([1e-4, var]))
        with pytest.warns(RuntimeWarning, match="rejected"):
            names, means, sds = posterior.factor_scales(factor, 1, 1, 200, seed=0)
        assert names == ["sigma"] and np.all(np.isfinite(means)) and np.all(np.isfinite(sds))

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]],
                             ids=["indefinite", "nan"])
    def test_covariance_that_is_not_spd_raises(self, cov):
        factor = recombine.GaussianFactor(np.zeros(2), cov)
        with pytest.raises(NotPositiveDefiniteError):
            posterior.factor_scales(factor, 1, 1, 10, seed=0)

