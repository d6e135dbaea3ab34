"""Exception taxonomy shared across the package."""


class StochpoolError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(StochpoolError, ValueError):
    """Operand dimensions do not satisfy an operation's contract."""


class ConfigError(StochpoolError, ValueError):
    """Invalid configuration value (factor, kernel, stride, config key, ...)."""


class UsageError(StochpoolError, RuntimeError):
    """An API was called in a way its contract forbids (tape misuse etc)."""


class InputError(StochpoolError, ValueError):
    """Rejected input data (audio format, empty dataset)."""


class InfeasibleLabelError(StochpoolError, ValueError):
    """Label sequence cannot be aligned to the given number of frames."""


class DivergenceError(StochpoolError, RuntimeError):
    """Training loss became non-finite or ran away; carries the step log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log or []
