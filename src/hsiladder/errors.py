"""Exception hierarchy shared by the whole package, the integer and real
checks that configuration fields share, and the finiteness check that the
optimizer's gradients and prediction's parameters share."""

from __future__ import annotations

import numbers
import operator

import numpy as np


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


def as_real(field: str, value) -> float:
    """``value`` as a Python float when it is a Python or numpy real number;
    otherwise ``ConfigError`` naming ``field`` (a string is never parsed)."""
    if isinstance(value, numbers.Real):
        return float(value)
    raise ConfigError(f"{field} must be a real number, got {value!r}")


def first_non_finite(arrays, out=None) -> int | None:
    """Index of the first of ``arrays`` that holds a NaN or an infinity, or
    None when every value is finite.

    One ``np.concatenate`` gathers the arrays, flattened, into one flat
    buffer (``out`` when given, which must hold exactly their values) and
    one ``np.isfinite(...).all()`` tests it; only on failure does a scan of
    the arrays one by one find the first bad one.
    """
    if np.isfinite(np.concatenate(arrays, axis=None, out=out)).all():
        return None
    return next(i for i, a in enumerate(arrays) if not np.isfinite(a).all())
