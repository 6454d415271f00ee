"""Exception types shared across the library."""


class InfeasibleRateError(ValueError):
    """The target secrecy rate exceeds what the channel can support."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap without converging."""


class RetryRequiredError(RuntimeError):
    """A random draw landed in a measure-zero degenerate set; redraw and retry.

    ``rows`` indexes the degenerate rows of a stack of draws; a single draw is row 0.
    """

    def __init__(self, message: str, rows=(0,)):
        super().__init__(message)
        self.rows = tuple(rows)


class FixtureError(ValueError):
    """A fixture file is missing or malformed."""


class ConfigError(ValueError):
    """A configuration file or mapping failed validation."""
