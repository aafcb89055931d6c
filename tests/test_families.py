import math

import numpy as np
import pytest

from glmmvb import families
from glmmvb.exceptions import DomainError, InvalidResponseError, OverflowGuardError

import oracles
from conftest import ALL_FAMILIES

EULER_GAMMA = 0.57721566490153286061


def _derivative_chain(fam, eta, m):
    return [fam.h(eta, m), fam.h1(eta, m), fam.h2(eta, m), fam.h3(eta, m)]


class TestLogPartitionDerivatives:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_derivatives_match_finite_differences(self, fam):
        eta = np.linspace(-20, 20, 161)
        m = np.full_like(eta, 10.0)
        h = 1e-4
        chain = _derivative_chain(fam, eta, m)
        funcs = [fam.h, fam.h1, fam.h2]
        for level in range(3):
            fd = (funcs[level](eta + h, m) - funcs[level](eta - h, m)) / (2 * h)
            err = np.abs(fd - chain[level + 1]) / (1 + np.abs(chain[level + 1]))
            assert err.max() < 1e-6

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_variance_nonnegative(self, fam):
        eta = np.linspace(-30, 30, 301)
        assert np.all(fam.h2(eta, np.full_like(eta, 7.0)) >= 0)

    def test_poisson_at_zero(self):
        fam = families.POISSON
        assert fam.h(0.0) == fam.h1(0.0) == fam.h2(0.0) == fam.h3(0.0) == 1.0

    def test_binomial_at_zero(self):
        fam = families.BINOMIAL
        m = np.array(10.0)
        assert fam.h1(0.0, m) == 5.0
        assert fam.h2(0.0, m) == 2.5
        assert fam.h3(0.0, m) == 0.0

    def test_bernoulli_value(self):
        assert abs(families.BERNOULLI.h1(2.0) - 0.88) < 0.005

    def test_gaussian_unit(self):
        fam = families.GAUSSIAN_UNIT
        assert fam.h(3.0) == 4.5
        assert fam.h1(3.0) == 3.0
        assert fam.h2(3.0) == 1.0
        assert fam.h3(3.0) == 0.0

    def test_poisson_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            families.POISSON.h(501.0)
        families.POISSON.h(499.0)  # below the guard is fine

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_shared_derivatives_equal_separate_ones(self, fam, rng):
        eta = np.concatenate([np.linspace(-40, 40, 161), 3.0 * rng.standard_normal(30)])
        m = rng.integers(1, 12, size=eta.shape).astype(float)
        for trials in (m, None):
            shared = fam.h_derivs(eta, trials)
            assert len(shared) == 3
            for got, want in zip(shared, (fam.h(eta, trials), fam.h1(eta, trials),
                                          fam.h2(eta, trials))):
                np.testing.assert_array_equal(got, want)

    def test_shared_derivatives_keep_the_poisson_guard(self):
        eta = np.array([0.0, families.POISSON_ETA_MAX + 1.0])
        with pytest.raises(OverflowGuardError):
            families.POISSON.h_derivs(eta)
        families.POISSON.h_derivs(eta - 2.0)  # below the guard is fine


class TestRegularizedEstimateTable:
    """Digamma-based estimates and their derived quantities, to two decimals."""

    def test_poisson_zero(self):
        fam = families.POISSON
        eta = fam.eta_hat_reg(0.0)
        assert round(float(eta), 2) == -1.96
        assert round(float(fam.h1(eta)), 2) == 0.14
        assert round(float(fam.h2(eta)), 2) == 0.14
        assert round(float(fam.h2(eta) * eta), 2) == -0.28

    def test_binomial_boundaries(self):
        fam = families.BINOMIAL
        m = np.array(10.0)
        lo = fam.eta_hat_reg(0.0, m)
        hi = fam.eta_hat_reg(10.0, m)
        assert round(float(lo), 2) == -4.27 and round(float(hi), 2) == 4.27
        assert round(float(fam.h1(lo, m)), 2) == 0.14
        assert round(float(fam.h1(hi, m)), 2) == 9.86
        assert round(float(fam.h2(lo, m)), 2) == 0.14
        assert round(float(fam.h2(lo, m) * lo), 2) == -0.58
        assert round(float(fam.h2(hi, m) * hi), 2) == 0.58

    def test_bernoulli_boundaries(self):
        fam = families.BERNOULLI
        lo = fam.eta_hat_reg(0.0)
        hi = fam.eta_hat_reg(1.0)
        assert abs(float(hi) - 2.0) < 1e-12  # psi(1.5) - psi(0.5) = 2 exactly
        assert abs(float(lo) + 2.0) < 1e-12
        assert round(float(fam.h1(lo)), 2) == 0.12
        assert round(float(fam.h1(hi)), 2) == 0.88
        assert round(float(fam.h2(hi)), 2) == 0.10
        assert round(float(fam.h2(hi) * hi), 2) == 0.21
        assert round(float(fam.h2(lo) * lo), 2) == -0.21


class TestMaximumLikelihoodEstimates:
    def test_poisson(self):
        fam = families.POISSON
        assert abs(float(oracles.eta_hat_ml(fam, 3.0)) - math.log(3)) < 1e-15
        assert np.isnan(oracles.eta_hat_ml(fam, 0.0))

    def test_binomial(self):
        fam = families.BINOMIAL
        m = np.array(10.0)
        assert abs(float(oracles.eta_hat_ml(fam, 4.0, m)) - math.log(0.4 / 0.6)) < 1e-12
        assert np.isnan(oracles.eta_hat_ml(fam, 0.0, m))
        assert np.isnan(oracles.eta_hat_ml(fam, 10.0, m))

    def test_bernoulli_always_undefined(self):
        assert np.isnan(oracles.eta_hat_ml(families.BERNOULLI, 0.0))
        assert np.isnan(oracles.eta_hat_ml(families.BERNOULLI, 1.0))

    def test_gaussian_defined_everywhere(self):
        assert float(oracles.eta_hat_ml(families.GAUSSIAN_UNIT, -4.2)) == -4.2

    def test_regularized_close_to_ml_off_boundary(self):
        fam = families.POISSON
        y = np.arange(5.0, 51.0)
        assert np.abs(fam.eta_hat_reg(y) - oracles.eta_hat_ml(fam, y)).max() < 0.15
        fam = families.BINOMIAL
        y = np.arange(2.0, 9.0)
        m = np.full_like(y, 10.0)
        assert np.abs(fam.eta_hat_reg(y, m) - oracles.eta_hat_ml(fam, y, m)).max() < 0.15


class TestDigamma:
    def test_known_values(self):
        assert abs(oracles.digamma(1.0) + EULER_GAMMA) < 1e-12
        assert abs(oracles.digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-12

    def test_recurrence(self, rng):
        x = rng.uniform(0.05, 40.0, size=200)
        lhs = oracles.digamma(x + 1.0) - oracles.digamma(x)
        assert np.abs(lhs - 1.0 / x).max() < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.digamma(0.0)
        with pytest.raises(DomainError):
            oracles.digamma(-1.5)


class TestLogLikelihood:
    def test_examples(self):
        assert float(families.POISSON.loglik(0.0, 0.0)) == -1.0
        assert abs(float(families.BERNOULLI.loglik(1.0, 0.0)) + math.log(2)) < 1e-15
        assert float(families.GAUSSIAN_UNIT.loglik(1.0, 1.0)) == 0.5

    def test_overflow_propagates(self):
        with pytest.raises(OverflowGuardError):
            families.POISSON.loglik(1.0, 600.0)


class TestBoundaryLimits:
    """Along eta -> c for boundary observations, (h1 - y, h2, h2*eta) -> 0
    monotonically once |eta| >= 30."""

    def test_poisson_zero_towards_minus_infinity(self):
        fam = families.POISSON
        etas = -np.array([30.0, 40.0, 50.0, 60.0])
        q1 = np.abs(fam.h1(etas) - 0.0)
        q2 = fam.h2(etas)
        q3 = np.abs(fam.h2(etas) * etas)
        for q in (q1, q2, q3):
            assert np.all(np.diff(q) < 0) and q[-1] < 1e-12

    def test_bernoulli_one_towards_plus_infinity(self):
        fam = families.BERNOULLI
        etas = np.array([30.0, 31.0, 32.0, 33.0])  # 1 - sigma still representable
        q1 = np.abs(fam.h1(etas) - 1.0)
        q2 = fam.h2(etas)
        q3 = np.abs(fam.h2(etas) * etas)
        for q in (q1, q2, q3):
            assert np.all(np.diff(q) < 0) and q[-1] < 1e-12


class TestValidation:
    def test_poisson_rejects_negative(self):
        with pytest.raises(InvalidResponseError):
            families.POISSON.validate(np.array([1.0, -1.0]))

    def test_binomial_rejects_above_trials(self):
        with pytest.raises(InvalidResponseError):
            families.BINOMIAL.validate(np.array([11.0]), np.array([10.0]))

    def test_bernoulli_rejects_two(self):
        with pytest.raises(InvalidResponseError):
            families.BERNOULLI.validate(np.array([2.0]))
