"""Exception hierarchy shared across the library, and the one check of
integer arguments (Monte-Carlo budgets, sizes and counts).

Everything raised on bad user input derives from :class:`GcmError`, so callers
(including the CLI) can distinguish input problems from genuine numeric
failures (:class:`NumericError`).
"""

import numbers
import sys

# More float64 rows than this do not fit in the bytes an array can address.
_MAX_ROWS = sys.maxsize // 8


class GcmError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(GcmError):
    """Malformed graph text, cycles, self-loops, or unknown nodes."""


class DataError(GcmError):
    """Malformed tabular data: ragged rows, missing cells, unknown columns."""


class FitError(GcmError):
    """A mechanism cannot be fit: empty input, too few rows, kind mismatch."""


class QueryError(GcmError):
    """A query's precondition is violated (unknown edge, wrong column type, ...)."""


class UnseenCategoryError(GcmError):
    """A categorical parent value was never observed when the mechanism was fit."""


class NonInvertibleError(GcmError):
    """Noise abduction requested on a mechanism that cannot be inverted."""


class SerializationError(GcmError):
    """Corrupt model payload or unsupported schema version."""


class NumericError(GcmError):
    """A numeric routine failed (non-finite results, divergence)."""


def require_count(value, name, minimum=1, maximum=None):
    """``value`` as an ``int``, if it is an integer (a numpy integer too, but
    not a bool) of at least ``minimum`` and, given a ``maximum``, at most
    that; otherwise raise :class:`QueryError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        sign = "positive" if minimum > 0 else "non-negative"
        raise QueryError(f"{name} must be a {sign} integer, at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise QueryError(f"{name} must be at most {maximum}, got {value!r}")
    return int(value)


def require_rows(value, name, minimum=1):
    """:func:`require_count` for a number of Monte-Carlo rows, which raises
    ``MemoryError`` when no float64 array can hold that many."""
    value = require_count(value, name, minimum)
    if value > _MAX_ROWS:
        raise MemoryError(f"{name} = {value} rows do not fit in an array")
    return value
