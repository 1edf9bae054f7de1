"""Exception hierarchy shared by the whole package, the one rule that every
setting is checked by (an integer in its bounds, a finite non-negative real
or one of a list of choices), and the finiteness check that names the first
non-finite array for the optimizer, the training step and prediction."""

from __future__ import annotations

import math
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


# A bool is a Python int, but never a count, a size or a rate.
_BOOLS = (bool, np.bool_)


def as_index(field: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int when it is a Python or numpy integer (a bool
    is not) in ``[lo, hi]`` (a bound of None is open); otherwise
    ``ConfigError`` naming ``field`` (a float is never truncated)."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, _BOOLS):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    if (lo is not None and index < lo) or (hi is not None and index > hi):
        bound = f"<= {hi}" if lo is None else f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{field} must be {bound}, got {index}")
    return index


def as_real(field: str, value, positive: bool = False) -> float:
    """``value`` as a Python float when it is a Python or numpy real number
    (a bool is not) that is finite and >= 0, or > 0 when ``positive``;
    otherwise ``ConfigError`` naming ``field`` (a string is never parsed)."""
    if isinstance(value, _BOOLS) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field} must be a real number, got {value!r}")
    real = float(value)
    if not (0 < real < math.inf if positive else 0 <= real < math.inf):
        raise ConfigError(f"{field} must be finite and {'>' if positive else '>='} 0, got {real}")
    return real


def one_of(field: str, value, choices: tuple):
    """``value`` when it is one of ``choices``; otherwise ``ConfigError``
    naming ``field`` and the choices."""
    if value not in choices:
        raise ConfigError(f"{field} must be one of {choices}, got {value!r}")
    return value


def first_non_finite(named, out=None) -> str | None:
    """Name of the first of the ``(name, array)`` pairs ``named`` whose array
    holds a NaN or an infinity, or None when every value is finite.

    One ``np.concatenate`` gathers the arrays, flattened, into one flat
    buffer (``out`` when given, which must hold exactly their values) and
    one ``np.isfinite(...).all()`` tests it; only on failure does a scan of
    the arrays one by one find the first bad one.
    """
    if np.isfinite(np.concatenate([a for _, a in named], axis=None, out=out)).all():
        return None
    return next(name for name, a in named if not np.isfinite(a).all())
