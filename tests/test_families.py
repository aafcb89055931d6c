import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glmmvb import datasets, families, simulate
from glmmvb.exceptions import ConfigError, DomainError, InvalidResponseError, OverflowGuardError

import oracles
from conftest import ALL_FAMILIES

EULER_GAMMA = 0.57721566490153286061


def _log_likelihood(fam, y, eta, trials=None):
    """y*eta - h(eta), constants independent of eta excluded."""
    return y * eta - fam.derivs(eta, trials, 0)[0]


class TestLogPartitionDerivatives:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_derivatives_match_finite_differences(self, fam):
        eta = np.linspace(-20, 20, 161)
        m = np.full_like(eta, 10.0)
        h = 1e-4
        chain = fam.derivs(eta, m, 2)
        chain += (fam.h3_from_h2(eta, chain[2]),)
        for level in range(3):
            fd = (fam.derivs(eta + h, m, 2)[level] - fam.derivs(eta - h, m, 2)[level]) / (2 * h)
            err = np.abs(fd - chain[level + 1]) / (1 + np.abs(chain[level + 1]))
            assert err.max() < 1e-6

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_variance_nonnegative(self, fam):
        eta = np.linspace(-30, 30, 301)
        assert np.all(fam.derivs(eta, np.full_like(eta, 7.0), 2)[2] >= 0)

    def test_poisson_at_zero(self):
        h, h1, h2 = families.POISSON.derivs(0.0, None, 2)
        h3 = families.POISSON.h3_from_h2(0.0, h2)
        assert h == h1 == h2 == h3 == 1.0

    def test_binomial_at_zero(self):
        _, h1, h2 = families.BINOMIAL.derivs(0.0, np.array(10.0), 2)
        h3 = families.BINOMIAL.h3_from_h2(0.0, h2)
        assert h1 == 5.0
        assert h2 == 2.5
        assert h3 == 0.0

    def test_bernoulli_value(self):
        assert abs(families.BERNOULLI.derivs(2.0, None, 1)[1] - 0.88) < 0.005

    @pytest.mark.parametrize("with_trials", [False, True], ids=["no-trials", "trials"])
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
    def test_h3_from_h2_is_the_third_derivative(self, fam, with_trials):
        eta = np.linspace(-40.0, 40.0, 161)
        m = np.full_like(eta, 7.0) if with_trials else np.ones_like(eta)
        _, _, h2 = fam.derivs(eta, m, 2)
        h3 = fam.h3_from_h2(eta, h2)
        # a 0/1 factor in h'' carries over to h'''
        mask = (np.arange(eta.size) % 3 > 0).astype(float)
        np.testing.assert_array_equal(fam.h3_from_h2(eta, mask * h2), mask * h3)

    def test_gaussian_unit(self):
        h, h1, h2 = oracles.GAUSSIAN_UNIT.derivs(3.0, None, 2)
        h3 = oracles.GAUSSIAN_UNIT.h3_from_h2(3.0, h2)
        assert h == 4.5
        assert h1 == 3.0
        assert h2 == 1.0
        assert h3 == 0.0

    def test_poisson_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            families.POISSON.derivs(501.0, None, 0)
        families.POISSON.derivs(499.0, None, 0)  # below the guard is fine

    def test_shared_derivatives_keep_the_poisson_guard(self):
        eta = np.array([0.0, families.POISSON_ETA_MAX + 1.0])
        with pytest.raises(OverflowGuardError):
            families.POISSON.derivs(eta, None, 2)
        families.POISSON.derivs(eta - 2.0, None, 2)  # below the guard is fine


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # the smallest normal float
PACKAGE_FAMILIES = [families.POISSON, families.BINOMIAL, families.BERNOULLI]


def _longdouble_derivs(fam, eta):
    """(h, h', h'', h''') of one trial and e, by the formulas of fam.derivs
    evaluated in np.longdouble (a 64-bit mantissa on x86_64); e is exp(eta)
    for Poisson and exp(-|eta|) for the logistic families."""
    x = np.asarray(eta, dtype=np.longdouble)
    if fam is families.POISSON:
        e = np.exp(x)
        return (e,) * 4, e
    e = np.exp(-np.abs(x))
    d = 1 + e
    h2 = e / (d * d)
    return (np.maximum(x, 0) + np.log1p(e), np.where(x >= 0, 1, e) / d, h2,
            -h2 * np.tanh(x / 2)), e


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="np.longdouble is no wider than a double here")
class TestAccuracy:
    """Every derivs output is within 4 eps of its extended-precision value
    wherever that value is a normal float (for binomial, wherever the value
    of one trial is too: trials times a subnormal has lost bits), and
    h'' > 0 wherever e is normal. h'' as h'(1 - h') fails this by 1e-3
    at eta = 30."""

    @pytest.mark.parametrize("fam", PACKAGE_FAMILIES, ids=lambda f: f.name)
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(eta=st.lists(st.floats(-745.0, 745.0), min_size=1, max_size=20),
           trials=st.integers(1, 50))
    @example(eta=[30.0, 37.5, -30.0, 0.0, -0.0, 1e-300, -1e-300, 708.3, -708.3, 745.0, -745.0],
             trials=7)  # where h'(1 - h') cancels, the smallest |eta| and the ends
    def test_within_4_eps_of_longdouble(self, fam, eta, trials):
        eta = np.array(eta)
        if fam is families.POISSON:  # up to its guard
            eta = np.minimum(eta, families.POISSON_ETA_MAX)
        m = float(trials) if fam is families.BINOMIAL else 1.0
        got = fam.derivs(eta, np.full_like(eta, m), 2)
        got += (fam.h3_from_h2(eta, got[2]),)
        want, e = _longdouble_derivs(fam, eta)
        assert len(got) == 4
        for level, (g, one) in enumerate(zip(got, want)):
            w = m * one
            normal = (np.abs(w.astype(float)) >= TINY) & (np.abs(one.astype(float)) >= TINY)
            rel = np.abs(g.astype(np.longdouble) - w)[normal] / np.abs(w[normal])
            assert np.all(rel <= 4 * EPS), (level, eta[normal][np.argmax(rel)], rel.max() / EPS)
        assert np.all(got[2][e >= TINY] > 0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("fam", PACKAGE_FAMILIES, ids=lambda f: f.name)
    def test_k_gives_the_first_k_derivatives(self, fam, k):
        eta = np.linspace(-40.0, 40.0, 81)
        m = np.full_like(eta, 3.0)
        got = fam.derivs(eta, m, k)
        assert len(got) == k + 1
        for g, w in zip(got, fam.derivs(eta, m, 2)):
            np.testing.assert_array_equal(g, w)


# the public methods of a family, and the logistic kernels that families.py
# replaced by its own one-exponential forms
FAMILY_METHODS = {"derivs", "h3_from_h2", "eta_hat_reg", "validate"}
LOGISTIC_KERNELS = {"logaddexp", "expit"}


def _kernel_uses(source):
    """Line of each logaddexp or expit attribute or import in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([a.name for a in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
        if (isinstance(node, ast.Attribute) and node.attr in LOGISTIC_KERNELS
                or any(name.split(".")[-1] in LOGISTIC_KERNELS for name in names)):
            found.append(node.lineno)
    return sorted(found)


class TestFamilyInterface:
    def test_families_define_only_the_interface_methods(self):
        extra = {(cls.__name__, name) for cls in vars(families).values()
                 if isinstance(cls, type) and issubclass(cls, families.Family)
                 for name, attr in vars(cls).items()
                 if callable(attr) and not name.startswith("_") and name not in FAMILY_METHODS}
        assert extra == set()

    def test_no_other_module_calls_the_logistic_kernels(self):
        package = pathlib.Path(families.__file__).parent
        found = {(path.stem, line) for path in package.glob("*.py") if path.stem != "families"
                 for line in _kernel_uses(path.read_text())}
        assert found == set()

    def test_finds_attributes_and_imports(self):
        source = ("from scipy.special import expit\nimport numpy as np\n"
                  "def f(x):\n    return np.logaddexp(0, x) + sc.expit(x)\n")
        assert _kernel_uses(source) == [1, 4, 4]

    def test_by_name(self):
        assert families.by_name("poisson") is families.POISSON
        with pytest.raises(DomainError, match="unknown family 'gaussian'"):
            families.by_name("gaussian")


class TestBinomialNeedsTrials:
    # np.asarray(None, dtype=float) is NaN: without the check, derivs returned
    # all-NaN arrays and eta_hat_reg raised a DomainError about digamma
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_derivs_without_trials_is_a_config_error(self, k):
        with pytest.raises(ConfigError, match="trial counts"):
            families.BINOMIAL.derivs(np.zeros(3), None, k)

    def test_estimate_and_validation_without_trials_are_config_errors(self):
        # validate raised an InvalidResponseError naming line 1 instead
        y = np.array([0.0, 2.0])
        with pytest.raises(ConfigError, match="trial counts"):
            families.BINOMIAL.eta_hat_reg(y, None)
        with pytest.raises(ConfigError, match="trial counts"):
            families.BINOMIAL.validate(y, None)

    @pytest.mark.parametrize("fam", [families.POISSON, families.BERNOULLI], ids=lambda f: f.name)
    def test_poisson_and_bernoulli_read_no_trials(self, fam):
        y, eta = np.array([0.0, 1.0]), np.array([-0.5, 0.5])
        assert np.all(np.isfinite(fam.derivs(eta, None, 2)))
        assert np.all(np.isfinite(fam.eta_hat_reg(y, None)))


class TestRegularizedEstimateTable:
    """Digamma-based estimates and their derived quantities, to two decimals."""

    def test_poisson_zero(self):
        fam = families.POISSON
        eta = fam.eta_hat_reg(0.0, 1.0)
        assert round(float(eta), 2) == -1.96
        assert round(float(fam.derivs(eta, None, 1)[1]), 2) == 0.14
        assert round(float(fam.derivs(eta, None, 2)[2]), 2) == 0.14
        assert round(float(fam.derivs(eta, None, 2)[2] * eta), 2) == -0.28

    def test_binomial_boundaries(self):
        fam = families.BINOMIAL
        m = np.array(10.0)
        lo = fam.eta_hat_reg(0.0, m)
        hi = fam.eta_hat_reg(10.0, m)
        assert round(float(lo), 2) == -4.27 and round(float(hi), 2) == 4.27
        assert round(float(fam.derivs(lo, m, 1)[1]), 2) == 0.14
        assert round(float(fam.derivs(hi, m, 1)[1]), 2) == 9.86
        assert round(float(fam.derivs(lo, m, 2)[2]), 2) == 0.14
        assert round(float(fam.derivs(lo, m, 2)[2] * lo), 2) == -0.58
        assert round(float(fam.derivs(hi, m, 2)[2] * hi), 2) == 0.58

    def test_bernoulli_boundaries(self):
        fam = families.BERNOULLI
        lo = fam.eta_hat_reg(0.0, 1.0)
        hi = fam.eta_hat_reg(1.0, 1.0)
        assert abs(float(hi) - 2.0) < 1e-12  # psi(1.5) - psi(0.5) = 2 exactly
        assert abs(float(lo) + 2.0) < 1e-12
        assert round(float(fam.derivs(lo, None, 1)[1]), 2) == 0.12
        assert round(float(fam.derivs(hi, None, 1)[1]), 2) == 0.88
        assert round(float(fam.derivs(hi, None, 2)[2]), 2) == 0.10
        assert round(float(fam.derivs(hi, None, 2)[2] * hi), 2) == 0.21
        assert round(float(fam.derivs(lo, None, 2)[2] * lo), 2) == -0.21


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
        assert float(oracles.eta_hat_ml(oracles.GAUSSIAN_UNIT, -4.2)) == -4.2

    def test_regularized_close_to_ml_off_boundary(self):
        fam = families.POISSON
        y = np.arange(5.0, 51.0)
        assert np.abs(fam.eta_hat_reg(y, 1.0) - oracles.eta_hat_ml(fam, y)).max() < 0.15
        fam = families.BINOMIAL
        y = np.arange(2.0, 9.0)
        m = np.full_like(y, 10.0)
        assert np.abs(fam.eta_hat_reg(y, m) - oracles.eta_hat_ml(fam, y, m)).max() < 0.15


def _bundled_datasets():
    """Every dataset the package ships or simulates, by name."""
    out = {"seeds": datasets.seeds_dataset(),
           "epilepsy-I": datasets.epilepsy_dataset("I"),
           "epilepsy-II": datasets.epilepsy_dataset("II")}
    for scenario in sorted(simulate.SCENARIOS):
        for seed in (5, 77, 202):
            out[f"{scenario}-{seed}"] = simulate.simulate_dataset(scenario, seed)[0]
    return out


class TestDigamma:
    """families._digamma_half, with the scipy-backed oracle as the reference."""

    def test_known_values(self):
        assert abs(families._digamma_half(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-15
        assert abs(oracles.digamma(1.0) + EULER_GAMMA) < 1e-12
        assert abs(oracles.digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-12

    def test_recurrence(self):
        x = np.arange(0, 2000) + 0.5  # across the table's end at 9.5
        lhs = families._digamma_half(x + 1.0) - families._digamma_half(x)
        assert np.abs(lhs - 1.0 / x).max() < 1e-14

    def test_bitwise_equal_to_the_oracle(self):
        x = np.arange(0, 50_001) + 0.5
        got, want = families._digamma_half(x), oracles.digamma(x)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 52 - 1))
    @example(54_731)
    @example(2 ** 52 - 1)
    def test_within_two_ulp_of_the_oracle(self, k):
        x = k + 0.5
        want = float(oracles.digamma(x))
        assert abs(float(families._digamma_half(x)) - want) <= 2 * np.spacing(abs(want))

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 0.25, 2.0 ** 52, 1e17, math.inf,
                                   -math.inf, math.nan, [0.5, 3.0]])
    def test_domain_is_the_non_negative_half_integers(self, x):
        with pytest.raises(DomainError):
            families._digamma_half(x)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.digamma(0.0)
        with pytest.raises(DomainError):
            oracles.digamma(-1.5)

    def test_eta_hat_reg_equals_the_oracle_on_bundled_data(self):
        families_seen = set()
        for name, data in _bundled_datasets().items():
            y, m = data.y, data.trials
            if data.family is families.POISSON:
                want = oracles.digamma(y + 0.5)
            else:
                want = oracles.digamma(y + 0.5) - oracles.digamma(m - y + 0.5)
            assert data.family.eta_hat_reg(y, m).tobytes() == want.tobytes(), name
            families_seen.add(data.family.name)
        assert families_seen == {"poisson", "binomial", "bernoulli"}


class TestLogLikelihood:
    def test_examples(self):
        assert float(_log_likelihood(families.POISSON, 0.0, 0.0)) == -1.0
        assert abs(float(_log_likelihood(families.BERNOULLI, 1.0, 0.0)) + math.log(2)) < 1e-15
        assert float(_log_likelihood(oracles.GAUSSIAN_UNIT, 1.0, 1.0)) == 0.5

    def test_overflow_propagates(self):
        with pytest.raises(OverflowGuardError):
            _log_likelihood(families.POISSON, 1.0, 600.0)


class TestBoundaryLimits:
    """Along eta -> c for boundary observations, (h1 - y, h2, h2*eta) -> 0
    monotonically once |eta| >= 30."""

    def test_poisson_zero_towards_minus_infinity(self):
        fam = families.POISSON
        etas = -np.array([30.0, 40.0, 50.0, 60.0])
        q1 = np.abs(fam.derivs(etas, None, 1)[1] - 0.0)
        q2 = fam.derivs(etas, None, 2)[2]
        q3 = np.abs(fam.derivs(etas, None, 2)[2] * etas)
        for q in (q1, q2, q3):
            assert np.all(np.diff(q) < 0) and q[-1] < 1e-12

    def test_bernoulli_one_towards_plus_infinity(self):
        fam = families.BERNOULLI
        etas = np.array([30.0, 31.0, 32.0, 33.0])  # 1 - sigma still representable
        q1 = np.abs(fam.derivs(etas, None, 1)[1] - 1.0)
        q2 = fam.derivs(etas, None, 2)[2]
        q3 = np.abs(fam.derivs(etas, None, 2)[2] * etas)
        for q in (q1, q2, q3):
            assert np.all(np.diff(q) < 0) and q[-1] < 1e-12


class TestValidation:
    def test_poisson_rejects_negative(self):
        with pytest.raises(InvalidResponseError):
            families.POISSON.validate(np.array([1.0, -1.0]), np.ones(2))

    def test_binomial_rejects_above_trials(self):
        with pytest.raises(InvalidResponseError):
            families.BINOMIAL.validate(np.array([11.0]), np.array([10.0]))

    def test_bernoulli_rejects_two(self):
        with pytest.raises(InvalidResponseError):
            families.BERNOULLI.validate(np.array([2.0]), np.ones(1))
