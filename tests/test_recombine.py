from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import datasets, engine, model, recombine, simulate
from glmmvb.exceptions import (
    ConfigError,
    DivergedError,
    InvalidVError,
    NotPositiveDefiniteError,
    ParseError,
)

from conftest import random_spd


class TestPartition:
    def test_single_shard_is_everything(self):
        parts = recombine.partition(8, 1, seed=0)
        np.testing.assert_array_equal(parts[0], np.arange(8))

    def test_balanced_even(self):
        parts = recombine.partition(6, 3, seed=1)
        assert [len(p) for p in parts] == [2, 2, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(6))

    def test_balanced_uneven(self):
        parts = recombine.partition(7, 3, seed=1)
        assert [len(p) for p in parts] == [3, 2, 2]

    def test_deterministic_per_seed(self):
        a = recombine.partition(20, 4, seed=5)
        b = recombine.partition(20, 4, seed=5)
        c = recombine.partition(20, 4, seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_invalid_v(self):
        with pytest.raises(InvalidVError):
            recombine.partition(5, 0, seed=0)
        with pytest.raises(InvalidVError):
            recombine.partition(5, 6, seed=0)

    # a float V would fail in slicing, and True would give one part
    @pytest.mark.parametrize("V", [2.0, True], ids=repr)
    def test_v_that_is_not_an_integer(self, V):
        with pytest.raises(InvalidVError):
            recombine.partition(5, V, seed=0)

    def test_seed_out_of_range_is_a_configuration_error(self):
        with pytest.raises(ConfigError):
            recombine.partition(5, 2, seed=-1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_covers_every_subject_once_in_balanced_parts(self, n, data, seed):
        V = data.draw(st.integers(1, n))
        parts = recombine.partition(n, V, seed)
        sizes = [len(p) for p in parts]
        assert len(parts) == V and max(sizes) - min(sizes) <= 1
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(n))


class TestCombine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-8, 1.0, 1e6]))
    def test_single_factor_unchanged(self, k, seed, scale):
        rng = np.random.default_rng(seed)
        f = recombine.GaussianFactor(scale * rng.standard_normal(k),
                                     random_spd(rng, k, scale=scale))
        prior = recombine.GaussianFactor(rng.standard_normal(k), 100 * random_spd(rng, k))
        out = recombine.combine([f], prior)
        np.testing.assert_array_equal(out.mean, f.mean)
        np.testing.assert_array_equal(out.cov, f.cov)
        assert out.mean.tobytes() == f.mean.tobytes() and out.cov.tobytes() == f.cov.tobytes()
        assert not np.shares_memory(out.mean, f.mean) and not np.shares_memory(out.cov, f.cov)

    def test_scalar_example(self):
        prior = recombine.GaussianFactor([0.0], [[100.0]])
        f1 = recombine.GaussianFactor([0.0], [[1.0]])
        f2 = recombine.GaussianFactor([2.0], [[1.0]])
        out = recombine.combine([f1, f2], prior)
        assert abs(out.cov[0, 0] - 1 / 1.99) < 1e-12
        assert abs(out.mean[0] - 2 / 1.99) < 1e-12

    def test_identical_factors_flat_prior(self):
        prior = recombine.GaussianFactor([0.0], [[1e12]])
        m, s2, V = 1.7, 0.3, 4
        fs = [recombine.GaussianFactor([m], [[s2]]) for _ in range(V)]
        out = recombine.combine(fs, prior)
        assert abs(out.mean[0] - m) < 1e-9
        assert abs(out.cov[0, 0] - s2 / V) < 1e-9

    def test_permutation_invariance(self, rng):
        prior = recombine.GaussianFactor(np.zeros(2), 100 * np.eye(2))
        fs = [recombine.GaussianFactor(rng.standard_normal(2), random_spd(rng, 2))
              for _ in range(4)]
        a = recombine.combine(fs, prior)
        b = recombine.combine(fs[::-1], prior)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-13)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-13)

    def test_flat_prior_precision_additivity(self, rng):
        prior = recombine.GaussianFactor(np.zeros(2), 1e8 * np.eye(2))
        fs = [recombine.GaussianFactor(rng.standard_normal(2), random_spd(rng, 2))
              for _ in range(3)]
        out = recombine.combine(fs, prior)
        target = sum(np.linalg.inv(f.cov) for f in fs)
        got = np.linalg.inv(out.cov)
        assert np.abs(got - target).max() / np.abs(target).max() < 1e-6

    def test_too_strong_prior_subtraction(self, rng):
        prior = recombine.GaussianFactor([0.0], [[1e-6]])  # overwhelms the shards
        fs = [recombine.GaussianFactor([0.0], [[1.0]]) for _ in range(3)]
        with pytest.raises(NotPositiveDefiniteError):
            recombine.combine(fs, prior)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singular_shard_covariance_is_not_positive_definite(self, k):
        # a shard covariance with a zero row: the closed forms (k <= 2) and
        # LAPACK (k = 3) both reject it with the package's error
        prior = recombine.GaussianFactor(np.zeros(k), 100 * np.eye(k))
        singular = np.eye(k)
        singular[-1, -1] = 0.0
        fs = [recombine.GaussianFactor(np.zeros(k), np.eye(k)),
              recombine.GaussianFactor(np.zeros(k), singular)]
        with pytest.raises(NotPositiveDefiniteError):
            recombine.combine(fs, prior)


class TestFitSharded:
    def _small_problem(self):
        data, _ = simulate.simulate_dataset("bernoulli-ii", seed=3, n=30)
        prior = model.normal_omega_prior(data.r)
        cfg = engine.FitConfig(method="a1", seed=7, max_iter=1500, window=500,
                               final_elbo_draws=0)
        return data, prior, cfg

    def test_v1_equals_plain_fit_global_block(self):
        data, prior, cfg = self._small_problem()
        sharded = recombine.fit_sharded(data, prior, cfg, V=1)
        plain = engine.fit(data, prior,
                           replace(cfg, seed=engine.child_seed(cfg.seed, 0)))
        f = recombine.global_factor(plain.state)
        np.testing.assert_array_equal(sharded.combined.mean, f.mean)
        np.testing.assert_allclose(sharded.combined.cov, f.cov, atol=1e-13)

    def test_requires_normal_prior(self):
        data, _, cfg = self._small_problem()
        with pytest.raises(InvalidVError):
            recombine.fit_sharded(data, model.default_prior(data), cfg, V=2)

    def test_shards_cover_and_combine_spd(self):
        data, prior, cfg = self._small_problem()
        sharded = recombine.fit_sharded(data, prior, cfg, V=3)
        assert len(sharded.shard_results) == 3
        covered = np.sort(np.concatenate(sharded.shard_indices))
        np.testing.assert_array_equal(covered, np.arange(data.n))
        np.linalg.cholesky(sharded.combined.cov)
        assert sharded.global_names == ["beta.intercept", "beta.x", "omega.00"]

    def test_combined_precision_that_is_not_positive_definite(self, monkeypatch):
        # shard factors far broader than the prior: taking V - 1 prior
        # precisions off their sum leaves a negative definite precision
        def broad(state):
            mean = state.split(state.mu)[1]
            return recombine.GaussianFactor(mean, 1e6 * np.eye(mean.size))

        monkeypatch.setattr(recombine, "global_factor", broad)
        data, prior, cfg = self._small_problem()
        with pytest.raises(NotPositiveDefiniteError, match="^combined precision is not"):
            recombine.fit_sharded(data, prior, replace(cfg, max_iter=10), V=2)

    def test_shard_failure_names_the_shard(self, monkeypatch):
        # a huge Adam step diverges shard 0 at its second iteration
        monkeypatch.setattr(engine, "ADAM_ALPHA", 1e300)
        data = datasets.seeds_dataset()
        cfg = engine.FitConfig(method="a1", seed=1)
        with np.errstate(all="ignore"), pytest.raises(DivergedError, match=r"^shard 0: "):
            recombine.fit_sharded(data, model.normal_omega_prior(data.r), cfg, V=2)

    def test_shard_error_keeps_its_type(self, monkeypatch):
        # ParseError's constructor takes (line, message)
        def bad_fit(data, prior, config):
            raise ParseError(7, "bad cell")
        monkeypatch.setattr(engine, "fit", bad_fit)
        data = datasets.seeds_dataset()
        with pytest.raises(ParseError, match=r"^shard 0: line 7: bad cell$") as info:
            recombine.fit_sharded(data, model.normal_omega_prior(data.r),
                                  engine.FitConfig(method="a1"), V=2)
        assert info.value.line == 7

    @pytest.mark.parametrize("workers", [2, 0, True, 1.0], ids=repr)
    def test_workers_other_than_one_is_a_configuration_error(self, workers, monkeypatch):
        def no_fit(data, prior, config):
            raise AssertionError("a shard was fitted")
        monkeypatch.setattr(engine, "fit", no_fit)
        data, prior, cfg = self._small_problem()
        with pytest.raises(ConfigError, match="workers"):
            recombine.fit_sharded(data, prior, cfg, V=2, workers=workers)

    def test_shards_are_independent_fits_in_shard_order(self):
        data, prior, cfg = self._small_problem()
        cfg = replace(cfg, final_elbo_draws=20)
        sharded = recombine.fit_sharded(data, prior, cfg, V=3)
        parts = recombine.partition(data.n, 3, cfg.seed)
        fits = [engine.fit(data.subset(idx), prior,
                           replace(cfg, seed=engine.child_seed(cfg.seed, v)))
                for v, idx in enumerate(parts)]
        for got, want, idx, part in zip(sharded.shard_results, fits,
                                        sharded.shard_indices, parts):
            np.testing.assert_array_equal(idx, part)
            assert got.n_iter == want.n_iter
            for name in ("window_means", "elbo"):
                assert (np.asarray(getattr(got, name)).tobytes()
                        == np.asarray(getattr(want, name)).tobytes())
            assert got.state.params.tobytes() == want.state.params.tobytes()
        combined = recombine.combine([recombine.global_factor(r.state) for r in fits],
                                     recombine.prior_factor(prior, data.p))
        assert sharded.combined.mean.tobytes() == combined.mean.tobytes()
        assert sharded.combined.cov.tobytes() == combined.cov.tobytes()

    def test_deterministic(self):
        data, prior, cfg = self._small_problem()
        a = recombine.fit_sharded(data, prior, cfg, V=2)
        b = recombine.fit_sharded(data, prior, cfg, V=2)
        np.testing.assert_array_equal(a.combined.mean, b.combined.mean)


class TestSimulatedDatasets:
    def test_deterministic(self):
        d1, t1 = simulate.simulate_dataset("poisson-i", seed=9)
        d2, _ = simulate.simulate_dataset("poisson-i", seed=9)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.X, d2.X)

    def test_poisson_scenarios_zero_fraction(self):
        # theoretical zero fraction for scenario I is 0.8365 (Gauss-Hermite
        # over the random intercept); single datasets scatter around it
        fracs_i, fracs_ii = [], []
        for seed in (1, 2, 3, 4, 5):
            d, _ = simulate.simulate_dataset("poisson-i", seed=seed)
            fracs_i.append(float((d.y == 0).mean()))
            d, _ = simulate.simulate_dataset("poisson-ii", seed=seed)
            fracs_ii.append(float((d.y == 0).mean()))
        assert 0.78 <= np.mean(fracs_i) <= 0.86
        assert all(0.75 <= f <= 0.89 for f in fracs_i)
        assert 0.09 <= np.mean(fracs_ii) <= 0.17
        assert all(0.07 <= f <= 0.19 for f in fracs_ii)

    def test_unknown_scenario_is_a_configuration_error(self):
        with pytest.raises(ConfigError, match="poisson-iii"):
            simulate.simulate_dataset("poisson-iii", seed=1)

    # 2.5, True and "3" used to reach numpy and raise a bare TypeError
    @pytest.mark.parametrize("n", [0, 2.5, True, "3"], ids=repr)
    def test_n_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ConfigError, match="integer n"):
            simulate.simulate_dataset("poisson-i", seed=1, n=n)

    def test_binomial_uses_twenty_trials(self):
        d, t = simulate.simulate_dataset("binomial-i", seed=1)
        assert np.all(d.trials == 20.0)
        assert t["trials"] == 20

    def test_shapes_and_truth_record(self):
        d, t = simulate.simulate_dataset("bernoulli-i", seed=4)
        assert d.n == 500 and d.J == 7 and d.p == 2 and d.r == 1
        assert set(np.unique(d.X[..., 1])) <= {0.0, 1.0}
        assert t["beta"] == [-2.5, 4.5] and t["sigma"] == 1.5
        assert t["random_effects"].shape == (500,)
