"""Bundled example datasets and their standard model designs.

epilepsy: 59 patients, 4 clinic visits each; response is the seizure count
in the two weeks before each visit. Model I is a Poisson random intercept
model with covariates lbase = log(baseline/4), trt, lbase*trt, lage
(centered log age) and a fourth-visit indicator; Model II swaps the visit
indicator for the coded visit (-0.3, -0.1, 0.1, 0.3) and adds a random
visit slope.

seeds: 21 plates from a 2x2 factorial germination experiment; binomial
counts with a random plate intercept and seed-type / extract-type effects.

Each design is one fileio.load_csv call on the bundled CSV, which carries
the derived columns.
"""

from importlib import resources

from . import families, fileio
from .exceptions import ConfigError

# epilepsy model -> (fixed-effect columns, random-effect columns)
_EPILEPSY = {"I": (["lbase", "trt", "lbase_trt", "lage", "v4"], []),
             "II": (["lbase", "trt", "lbase_trt", "lage", "visit_code"], ["visit_code"])}


def epilepsy_dataset(model="I"):
    """The epilepsy trial as a Dataset; model "I" (r=1) or "II" (r=2)."""
    if model not in _EPILEPSY:
        raise ConfigError(f"unknown epilepsy model {model!r}")
    data = fileio.load_csv(fixture_path("epilepsy.csv"), families.POISSON, "subject",
                           *_EPILEPSY[model])
    # the coded visit is reported as "visit"
    data.x_names = [nm.replace("visit_code", "visit") for nm in data.x_names]
    data.z_names = [nm.replace("visit_code", "visit") for nm in data.z_names]
    return data


def seeds_dataset():
    """The seed germination experiment as a Dataset (one row per plate)."""
    return fileio.load_csv(fixture_path("seeds.csv"), families.BINOMIAL, "plate",
                           ["seed", "extract"], [], response_col="germinated",
                           trials_col="total")


def fixture_path(name):
    """Filesystem path of a bundled CSV (for CLI round-trip tests/demos)."""
    return str(resources.files("glmmvb.data").joinpath(name))
