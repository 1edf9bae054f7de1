"""Exception hierarchy shared by the whole package, and the integer check
that configuration fields share."""

import operator


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


def as_index(field: str, value) -> int:
    """``value`` as a Python int when it is a Python or numpy integer;
    otherwise ``ConfigError`` naming ``field`` (a float is never truncated)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}") from None
