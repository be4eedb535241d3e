"""Scoped size caps for the symbolic engine, and the argument checks.

Expansion weight (total number of letters, counted with multiplicity inside
brackets) and surjection grade both grow combinatorially: the number of
surjections of grade n is 1, 3, 13, 75, 541, 4683, ... so products above
grade 6 get expensive fast.  The caps below bound what the high-level
operations will attempt; callers that need more raise them for one block
with ``with caps(weight=..., grade=...):``.  The caps live in a ContextVar,
so they hold per thread or context, and the block's end restores them.

Every argument check of the library is one of five rules here: _count
for integers, _decimal and _float for integers and floats written as
text, _typed for plain types and _finite for float inputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from numbers import Integral

import numpy as np

DEFAULT_WEIGHT_CAP = 8
DEFAULT_GRADE_CAP = 6

_caps = ContextVar("itoflow_caps", default=(DEFAULT_WEIGHT_CAP, DEFAULT_GRADE_CAP))


class CapExceeded(ValueError):
    """Raised when an operation would exceed the configured size caps."""


class FloatRangeError(ArithmeticError):
    """Finite inputs drove a float result past the float range: a simulated
    path, a flow route's stack, or a matrix exponential whose norm or
    squaring overflowed."""


def weight_cap() -> int:
    return _caps.get()[0]


def grade_cap() -> int:
    return _caps.get()[1]


def _count(name: str, value, least: int = 1) -> int:
    """value as an int no less than least, else ValueError.

    The one check for every integer argument: counts, orders, grades, fiber
    bounds and the caps themselves, and driver letters, surjection values,
    composition parts and integers read from JSON.
    """
    if type(value) is int and value >= least:  # the common case, kept cheap
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, not {value}")
    return int(value)


def _decimal(text: str) -> int | None:
    """The positive int that text writes in ASCII decimal digits, else None.

    The one reading of an integer written as text: word and surjection
    literals, CSV driver columns and CLI lists.  str.isdigit and int()
    would also take other scripts' digits, superscripts, signs, spaces
    and underscores; leading zeros are kept, so 'x01' names letter 1.
    Each caller raises its own error, with the position it knows.
    """
    if text.isascii() and text.isdigit() and int(text) >= 1:
        return int(text)
    return None


def _float(text: str) -> float:
    """The float that text writes in ASCII, else ValueError.

    The one reading of a float written as text, as numpy's CSV reader
    reads a field: CLI float flags, and the rescan that names a bad CSV
    row.  float() alone would also take other scripts' digits and
    underscores; ASCII text reads as float() reads it.
    """
    if text.strip().isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"{text!r} is not a float written in ASCII")


def _typed(name: str, value, *types):
    """value if it is an instance of one of types, else TypeError.

    The one check for an argument's plain type; as in _count, a bool is no number.
    """
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expected}, not {type(value).__name__}")
    return value


def _finite(name: str, value, error: type[Exception] = ValueError) -> np.ndarray:
    """value as a float64 array if every entry is finite, else error.

    The one check for every float input: paths, increments, coefficient
    matrices and driver parameters; and, with an ArithmeticError subclass
    as error, for a float result that finite inputs drove past the float
    range.
    """
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise error(f"{name} must be finite")
    return array


def caps(weight: int | None = None, grade: int | None = None):
    """Context manager that sets the (weight, grade) caps for the body of a
    with block.  None keeps the current cap; any other value must be a
    positive int, checked on this call, before the block runs."""
    return _scoped(
        None if weight is None else _count("weight cap", weight),
        None if grade is None else _count("grade cap", grade),
    )


@contextmanager
def _scoped(*new):
    token = _caps.set(tuple(old if n is None else n for n, old in zip(new, _caps.get())))
    try:
        yield
    finally:
        _caps.reset(token)


def _within_cap(value: int, slot: int, what: str) -> int:
    """value if it is within cap slot 0 (weight) or 1 (grade), else CapExceeded."""
    cap = _caps.get()[slot]
    if value > cap:
        keyword = ("weight", "grade")[slot]
        raise CapExceeded(
            f"{what} {value} exceeds cap {cap}; raise it with itoflow.caps({keyword}=...)"
        )
    return value


def check_weight(weight: int) -> int:
    return _within_cap(weight, 0, "word weight")


def check_grade(grade: int) -> int:
    return _within_cap(grade, 1, "surjection grade")
