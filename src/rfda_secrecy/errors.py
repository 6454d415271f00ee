"""Exception types shared across the library."""


class InfeasibleRateError(ValueError):
    """The target secrecy rate exceeds what the channel can support."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap without converging."""


class FixtureError(ValueError):
    """A fixture file is missing or malformed."""


class ConfigError(ValueError):
    """A configuration file or mapping failed validation."""
