"""Synthetic random-intercept datasets for the simulation studies.

Six named scenarios share the structure

    eta_ij = beta0 + beta1 x_ij + b_i,   b_i ~ N(0, sigma^2),

with n = 500 subjects unless simulate_dataset is given another n, n_i = 7
observations each and sigma = 1.5. Covariates are either the deterministic
visit code x_ij = (j - 4)/10 or independent Bernoulli(0.5) draws; the
binomial scenarios use 20 trials per observation.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import engine, families
from .exceptions import ConfigError
from .model import Dataset

BINOMIAL_TRIALS = 20
N = 500  # subjects, observations per subject, random-intercept sd
N_I = 7
SIGMA = 1.5


@dataclass
class ScenarioSpec:
    family: families.Family
    beta: tuple
    x_rule: str              # "visit" or "bernoulli"
    trials: int | None = None


SCENARIOS = {
    "poisson-i": ScenarioSpec(families.POISSON, (-2.5, -2.0), "visit"),
    "poisson-ii": ScenarioSpec(families.POISSON, (1.5, 0.5), "visit"),
    "bernoulli-i": ScenarioSpec(families.BERNOULLI, (-2.5, 4.5), "bernoulli"),
    "bernoulli-ii": ScenarioSpec(families.BERNOULLI, (0.0, 1.0), "visit"),
    "binomial-i": ScenarioSpec(families.BINOMIAL, (-2.5, 4.5), "bernoulli",
                               trials=BINOMIAL_TRIALS),
    "binomial-ii": ScenarioSpec(families.BINOMIAL, (0.0, 1.0), "visit",
                                trials=BINOMIAL_TRIALS),
}


def simulate_dataset(scenario, seed, n=N):
    """Simulate one dataset of n subjects of the scenario of that name in
    SCENARIOS; returns (Dataset, truth record). Deterministic per seed."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    spec = SCENARIOS[scenario]
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise ConfigError(f"need an integer n >= 1, got n={n!r}")
    rng = engine.stream(seed, engine.LANE_SIM, 0)

    if spec.x_rule == "visit":
        x = np.tile((np.arange(1, N_I + 1) - 4.0) / 10.0, (n, 1))
    else:  # "bernoulli"
        x = rng.integers(0, 2, size=(n, N_I)).astype(float)

    b = SIGMA * rng.standard_normal(n)
    eta = spec.beta[0] + spec.beta[1] * x + b[:, None]
    fam = spec.family
    if fam.name == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
        trials = None
    elif fam.name == "bernoulli":
        y = (rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        trials = None
    else:  # "binomial"
        y = rng.binomial(spec.trials, 1.0 / (1.0 + np.exp(-eta))).astype(float)
        trials = np.full((n, N_I), float(spec.trials))

    X = np.stack([np.ones_like(x), x], axis=-1)
    Z = np.ones((n, N_I, 1))
    data = Dataset(fam, y, X, Z, trials=trials,
                   x_names=["intercept", "x"], z_names=["intercept"])
    truth = {"beta": list(spec.beta), "sigma": SIGMA, "family": fam.name,
             "n": n, "n_i": N_I, "seed": seed,
             "trials": spec.trials, "random_effects": b}
    return data, truth
