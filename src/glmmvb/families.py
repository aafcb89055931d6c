"""One-parameter exponential families with canonical links.

Each family exposes the log-partition function h and its first three
derivatives, the log-likelihood y*eta - h(eta) (additive constants that do
not depend on eta are dropped throughout the package so that lower bounds
are comparable), and a regularized natural-parameter estimate per
observation: the posterior mean of eta under the Jeffreys prior, which,
unlike the maximum-likelihood estimate, is finite on the support boundary.

All functions are vectorized over numpy arrays of eta / y / trials.
"""

import numpy as np
import scipy.special as sc

from .exceptions import DomainError, InvalidResponseError, OverflowGuardError

# Poisson linear predictors above this raise OverflowGuardError: exp() is
# about to overflow and the optimization state is divergent anyway.
POISSON_ETA_MAX = 500.0


class Family:
    """Base class; subclasses are stateless and shared freely across threads."""

    name = "family"

    def h(self, eta, trials=None):
        raise NotImplementedError

    def h1(self, eta, trials=None):
        raise NotImplementedError

    def h2(self, eta, trials=None):
        raise NotImplementedError

    def h3(self, eta, trials=None):
        raise NotImplementedError

    def h_derivs(self, eta, trials=None):
        """(h, h', h'') at eta from one pass; equal to (h, h1, h2) bit for bit."""
        return self.h(eta, trials), self.h1(eta, trials), self.h2(eta, trials)

    def loglik(self, y, eta, trials=None):
        """y*eta - h(eta), constants independent of eta excluded."""
        return np.asarray(y, dtype=float) * eta - self.h(eta, trials)

    def eta_hat_reg(self, y, trials=None):
        raise NotImplementedError

    def validate(self, y, trials=None, lines=None):
        """Raise InvalidResponseError on responses outside the support."""
        raise NotImplementedError

    def _bad(self, idx, lines, message):
        line = int(lines[idx]) if lines is not None else int(idx) + 1
        raise InvalidResponseError(self.name, line, message)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Poisson(Family):
    name = "poisson"

    def _guard(self, eta):
        eta = np.asarray(eta, dtype=float)
        if np.any(eta > POISSON_ETA_MAX):
            raise OverflowGuardError("poisson linear predictor exceeded guard")
        return eta

    def h(self, eta, trials=None):
        return np.exp(self._guard(eta))

    h1 = h
    h2 = h
    h3 = h

    def h_derivs(self, eta, trials=None):
        e = self.h(eta)
        return e, e, e

    def eta_hat_reg(self, y, trials=None):
        return sc.digamma(np.asarray(y, dtype=float) + 0.5)

    def validate(self, y, trials=None, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y) | (y < 0) | (y != np.round(y))
        if np.any(bad):
            self._bad(np.argmax(bad), lines, "expected a nonnegative integer count")


class Binomial(Family):
    """Binomial with per-observation trial counts; Bernoulli is trials == 1."""

    name = "binomial"

    @staticmethod
    def _trials(eta_like, trials):
        if trials is None:
            return np.ones_like(np.asarray(eta_like, dtype=float))
        return np.asarray(trials, dtype=float)

    def h(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        return self._trials(eta, trials) * np.logaddexp(0.0, eta)

    def h1(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        return self._trials(eta, trials) * sc.expit(eta)

    def h2(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        p = sc.expit(eta)
        return self._trials(eta, trials) * p * (1.0 - p)

    def h3(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        p = sc.expit(eta)
        return self._trials(eta, trials) * p * (1.0 - p) * (1.0 - 2.0 * p)

    def h_derivs(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        m = self._trials(eta, trials)
        p = sc.expit(eta)
        h1 = m * p
        return m * np.logaddexp(0.0, eta), h1, h1 * (1.0 - p)

    def eta_hat_reg(self, y, trials=None):
        y = np.asarray(y, dtype=float)
        m = self._trials(y, trials)
        return sc.digamma(y + 0.5) - sc.digamma(m - y + 0.5)

    def validate(self, y, trials=None, lines=None):
        y = np.asarray(y, dtype=float)
        m = self._trials(y, trials)
        bad = ~np.isfinite(m) | (m < 1) | (m != np.round(m))
        if np.any(bad):
            self._bad(np.argmax(bad), lines, "trial count must be a positive integer")
        bad = ~np.isfinite(y) | (y < 0) | (y > m) | (y != np.round(y))
        if np.any(bad):
            self._bad(np.argmax(bad), lines, "expected an integer in [0, trials]")


class Bernoulli(Binomial):
    name = "bernoulli"

    @staticmethod
    def _trials(eta_like, trials):
        return np.ones_like(np.asarray(eta_like, dtype=float))

    def validate(self, y, trials=None, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y) | ((y != 0) & (y != 1))
        if np.any(bad):
            self._bad(np.argmax(bad), lines, "expected 0 or 1")


class GaussianUnit(Family):
    """y ~ N(eta, 1) with h(eta) = eta^2/2.

    Test family: its conditional posteriors are exactly Gaussian, making the
    closed-form linear-mixed-model transform an exactness oracle. Internal;
    the CLI exposes it only behind a flag.
    """

    name = "gaussian-unit"

    def h(self, eta, trials=None):
        eta = np.asarray(eta, dtype=float)
        return 0.5 * eta * eta

    def h1(self, eta, trials=None):
        return np.asarray(eta, dtype=float)

    def h2(self, eta, trials=None):
        return np.ones_like(np.asarray(eta, dtype=float))

    def h3(self, eta, trials=None):
        return np.zeros_like(np.asarray(eta, dtype=float))

    def eta_hat_reg(self, y, trials=None):
        return np.asarray(y, dtype=float)

    def validate(self, y, trials=None, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y)
        if np.any(bad):
            self._bad(np.argmax(bad), lines, "expected a finite real")


POISSON = Poisson()
BINOMIAL = Binomial()
BERNOULLI = Bernoulli()
GAUSSIAN_UNIT = GaussianUnit()

_BY_NAME = {f.name: f for f in (POISSON, BINOMIAL, BERNOULLI, GAUSSIAN_UNIT)}


def by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DomainError(f"unknown family {name!r}") from None
