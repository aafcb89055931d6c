"""Exception types shared across the package."""


class GlmmVbError(Exception):
    """Base class for all package errors."""


class NotPositiveDefiniteError(GlmmVbError):
    """A matrix required to be symmetric positive definite is not."""


class OverflowGuardError(GlmmVbError):
    """A linear predictor exceeded the overflow guard (divergent state)."""


class ModeSearchFailedError(GlmmVbError):
    """Newton-Raphson mode search did not converge."""


# the numeric failures of a transform build that a caller recovers from: by
# a search from another start, a retried step or a rejected draw
RECOVERABLE = (OverflowGuardError, NotPositiveDefiniteError, ModeSearchFailedError)


class DivergedError(GlmmVbError):
    """The stochastic optimizer hit unrecoverable numerical failure."""


class IrlsDivergedError(GlmmVbError):
    """IRLS for the pooled GLM failed to converge."""


class RankDeficientError(GlmmVbError):
    """Design matrix is rank deficient."""


class DomainError(GlmmVbError):
    """Argument outside the mathematical domain of a special function."""


class ConfigError(GlmmVbError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class InvalidVError(ConfigError):
    """Invalid number of data shards."""


class DataError(GlmmVbError):
    """Invalid input data (CLI exit code 3)."""


class ParseError(DataError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingColumnError(DataError):
    def __init__(self, column):
        super().__init__(f"column {column!r} not found in input")
        self.column = column


class InvalidResponseError(DataError):
    def __init__(self, family, line, message):
        super().__init__(f"invalid {family} response at line {line}: {message}")
        self.family = family
        self.line = line
