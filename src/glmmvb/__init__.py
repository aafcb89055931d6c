"""Variational Bayes for two-level GLMMs via affine reparametrization.

The random effects are transformed per subject, b~_i = L_i^{-1}(b_i -
lambda_i), with (lambda_i, L_i L_i') a Gaussian approximation of each
conditional posterior p(b_i | theta_G, y_i). A block-diagonal Gaussian is
then fit to the transformed posterior by stochastic gradient ascent with
analytic reparametrization-trick gradients; untransformed random-effect
marginals are recovered by simulation. Large datasets can be fit shard-wise
and recombined.
"""

from . import families
from .engine import FitConfig, FitResult, VariationalState, fit
from .model import (
    Dataset,
    GlobalParams,
    NormalOmegaPrior,
    WishartPrior,
    default_prior,
    normal_omega_prior,
)
from .posterior import PosteriorSummary, simulate_b
from .recombine import GaussianFactor, combine, fit_sharded, partition
from .simulate import simulate_dataset

__all__ = [
    "families",
    "FitConfig",
    "FitResult",
    "VariationalState",
    "fit",
    "Dataset",
    "GlobalParams",
    "NormalOmegaPrior",
    "WishartPrior",
    "default_prior",
    "normal_omega_prior",
    "PosteriorSummary",
    "simulate_b",
    "GaussianFactor",
    "combine",
    "fit_sharded",
    "partition",
    "simulate_dataset",
]

__version__ = "0.1.0"
