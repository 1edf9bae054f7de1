"""Exception hierarchy shared by the whole package."""


class LadderError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LadderError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(LadderError):
    """Misuse of the gradient tape (non-scalar loss, double backward, ...)."""


class ConfigError(LadderError):
    """Invalid configuration value or unknown configuration key."""


class DataError(LadderError):
    """Malformed dataset, file format violation, or inconsistent labels."""


class DivergenceError(LadderError):
    """Training produced NaN/Inf; aborts rather than silently continuing."""
