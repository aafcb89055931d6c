"""One-parameter exponential families with canonical links.

A family is four methods: derivs, the log-partition function h and its
first k <= 2 derivatives from one pass over eta; h3_from_h2, h''' at eta
from h'' there; eta_hat_reg, a regularized natural-parameter estimate
per observation (the posterior mean of eta under the Jeffreys prior,
which, unlike the maximum-likelihood estimate, is finite on the support
boundary); and validate. The log-likelihood is y*eta - h(eta): additive
constants that do not depend on eta are dropped throughout the package
so that lower bounds are comparable.

All functions are vectorized over numpy arrays of eta / y / trials.
derivs, eta_hat_reg and validate take the trial counts, an array like y
(Dataset.trials: ones but for binomial responses, and on the padding);
Poisson and Bernoulli ignore them, so a Bernoulli response is one trial
whatever the counts hold; binomial's derivs, eta_hat_reg and validate
raise ConfigError when they are None. The digamma of eta_hat_reg is computed
here with numpy alone (it is only ever taken at a count plus 1/2), so the
package's one runtime dependency is numpy.
"""

import numpy as np

from .exceptions import ConfigError, DomainError, InvalidResponseError, OverflowGuardError

# Poisson linear predictors above this raise OverflowGuardError: exp() is
# about to overflow and the optimization state is divergent anyway.
POISSON_ETA_MAX = 500.0


# psi(3/2) = 2 - gamma - 2 log 2, as scipy.special.digamma returns it
_PSI_3_2 = 0.03648997397857652
# psi(k + 1/2) for k < 10, by the recurrence psi(x) = psi(x + 1) - 1/x down to
# 3/2, with the reciprocals summed in the order of cephes' psi (which scipy's
# digamma is), so that the two agree bit for bit
_PSI_HALF_TABLE = np.array(
    [-2.0 + _PSI_3_2]
    + [sum((1.0 / (j + 0.5) for j in range(k - 1, 0, -1)), 0.0) + _PSI_3_2 for k in range(1, 10)])
# cephes' asymptotic series for x >= 10: psi(x) = log x - 1/(2x) - z P(z),
# z = 1/x^2, with P's coefficients from the highest power down, for Horner
_PSI_ASYMPTOTIC = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _digamma_half(x):
    """psi(x) for x = k + 1/2 with k a non-negative integer (k < 2^52, where
    such x are exact); any other x raises DomainError."""
    x = np.asarray(x, dtype=float)
    k = x - 0.5
    if not np.all((k >= 0) & (k == np.floor(k)) & (x < 2.0 ** 52)):
        raise DomainError("digamma here takes only a non-negative integer plus 1/2")
    z = 1.0 / (x * x)
    poly = 0.0
    for a in _PSI_ASYMPTOTIC:
        poly = poly * z + a
    return np.where(x < 10, _PSI_HALF_TABLE[np.minimum(k, 9).astype(int)],
                    np.log(x) - 0.5 / x - z * poly)


class Family:
    """Base class; subclasses are stateless and shared freely across threads."""

    name = "family"
    # linear predictors above this make derivs raise OverflowGuardError
    eta_max = np.inf

    def derivs(self, eta, trials, k):
        """(h, h', ..., h^(k)) at eta for k <= 2, from one pass. The arrays
        may share memory, so callers must not write into them."""
        raise NotImplementedError

    def h3_from_h2(self, eta, h2):
        """h''' at eta from h2 = h'' there, the transforms' weight. Trials or
        a 0/1 factor in h2 carry over to the result."""
        raise NotImplementedError

    def eta_hat_reg(self, y, trials):
        raise NotImplementedError

    def validate(self, y, trials, lines=None):
        """Raise InvalidResponseError on responses outside the support, naming
        the first of `lines` (an array like y) that holds one."""
        raise NotImplementedError

    def _bad(self, bad, lines, message):
        """Raise for the first line where bad holds (position + 1 without lines)."""
        line = lines[bad].min() if lines is not None else np.argmax(bad) + 1
        raise InvalidResponseError(self.name, int(line), message)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Poisson(Family):
    name = "poisson"
    eta_max = POISSON_ETA_MAX

    def derivs(self, eta, trials, k):
        if np.count_nonzero(np.greater(eta, self.eta_max)):
            raise OverflowGuardError("poisson linear predictor exceeded guard")
        return (np.exp(eta),) * (k + 1)

    def h3_from_h2(self, eta, h2):
        return h2

    def eta_hat_reg(self, y, trials):
        return _digamma_half(np.asarray(y, dtype=float) + 0.5)

    def validate(self, y, trials, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y) | (y < 0) | (y != np.round(y))
        if np.any(bad):
            self._bad(bad, lines, "expected a nonnegative integer count")


def _logistic_derivs(eta, k):
    """Softplus h = log(1 + e^eta) and its first k <= 2 derivatives for one
    trial, from e = exp(-|eta|), which never overflows: h = max(eta, 0) +
    log1p(e), h' = (1 or e)/(1 + e) and h'' = e/(1 + e)^2 (no cancellation
    at large |eta|)."""
    e = np.exp(-np.abs(eta))
    out = [np.maximum(eta, 0.0) + np.log1p(e)]
    if k >= 1:
        d = 1.0 + e
        out.append(np.where(eta >= 0, 1.0, e) / d)
    if k >= 2:
        out.append(e / (d * d))
    return tuple(out)


_NO_TRIALS = "binomial responses need their trial counts, got None"


class Binomial(Family):
    """Binomial with per-observation trial counts; Bernoulli is trials == 1."""

    name = "binomial"

    def derivs(self, eta, trials, k):
        if trials is None:
            raise ConfigError(_NO_TRIALS)
        m = np.asarray(trials, dtype=float)
        return tuple(m * v for v in _logistic_derivs(eta, k))

    def h3_from_h2(self, eta, h2):
        # -h'' tanh(eta/2): no cancellation near eta = 0
        return -h2 * np.tanh(0.5 * eta)

    def eta_hat_reg(self, y, trials):
        if trials is None:
            raise ConfigError(_NO_TRIALS)
        y = np.asarray(y, dtype=float)
        return _digamma_half(y + 0.5) - _digamma_half(np.asarray(trials, dtype=float) - y + 0.5)

    def validate(self, y, trials, lines=None):
        if trials is None:
            raise ConfigError(_NO_TRIALS)
        y = np.asarray(y, dtype=float)
        m = np.asarray(trials, dtype=float)
        bad = ~np.isfinite(m) | (m < 1) | (m != np.round(m))
        if np.any(bad):
            self._bad(bad, lines, "trial count must be a positive integer")
        bad = ~np.isfinite(y) | (y < 0) | (y > m) | (y != np.round(y))
        if np.any(bad):
            self._bad(bad, lines, "expected an integer in [0, trials]")


class Bernoulli(Binomial):
    name = "bernoulli"

    def derivs(self, eta, trials, k):
        return _logistic_derivs(eta, k)

    def eta_hat_reg(self, y, trials):
        return super().eta_hat_reg(y, 1.0)

    def validate(self, y, trials, lines=None):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y) | ((y != 0) & (y != 1))
        if np.any(bad):
            self._bad(bad, lines, "expected 0 or 1")


POISSON = Poisson()
BINOMIAL = Binomial()
BERNOULLI = Bernoulli()

_BY_NAME = {f.name: f for f in (POISSON, BINOMIAL, BERNOULLI)}


def by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown family {name!r}") from None
