"""Exception hierarchy shared by all dwpe modules."""


class DwpeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DwpeError):
    """An argument violates a documented precondition (shape, range, emptiness)."""


class ConfigurationError(DwpeError):
    """A configuration is internally inconsistent (non-COLA framing, unreachable
    reverberation target, unknown config keys)."""


class SolverError(DwpeError):
    """A linear system could not be solved to the required residual accuracy."""


class NumericalError(DwpeError):
    """A numerical accumulation produced non-finite values."""


class UndefinedMetricError(DwpeError):
    """A quality metric is undefined for the given inputs (e.g. silent reference)."""


class UndefinedLagError(DwpeError):
    """Time-delay estimation is undefined (e.g. an all-zero signal)."""
