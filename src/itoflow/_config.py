"""Scoped size caps for the symbolic engine.

Expansion weight (total number of letters, counted with multiplicity inside
brackets) and surjection grade both grow combinatorially: the number of
surjections of grade n is 1, 3, 13, 75, 541, 4683, ... so products above
grade 6 get expensive fast.  The caps below bound what the high-level
operations will attempt; callers that need more raise them for one block
with ``with caps(weight=..., grade=...):``.  The caps live in a ContextVar,
so they hold per thread or context, and the block's end restores them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from numbers import Integral

DEFAULT_WEIGHT_CAP = 8
DEFAULT_GRADE_CAP = 6

_caps = ContextVar("itoflow_caps", default=(DEFAULT_WEIGHT_CAP, DEFAULT_GRADE_CAP))


class CapExceeded(ValueError):
    """Raised when an operation would exceed the configured size caps."""


def weight_cap() -> int:
    return _caps.get()[0]


def grade_cap() -> int:
    return _caps.get()[1]


def _checked(name: str, value):
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, Integral) or value < 1
    ):
        raise ValueError(f"{name} cap must be a positive int, not {value!r}")
    return value


def _count(name: str, value) -> int:
    """value as an int of at least 1, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, not {value}")
    return int(value)


def caps(weight: int | None = None, grade: int | None = None):
    """Context manager that sets the (weight, grade) caps for the body of a
    with block.  None keeps the current cap; any other value must be a
    positive int, checked on this call, before the block runs."""
    return _scoped(_checked("weight", weight), _checked("grade", grade))


@contextmanager
def _scoped(*new):
    token = _caps.set(tuple(old if n is None else int(n) for n, old in zip(new, _caps.get())))
    try:
        yield
    finally:
        _caps.reset(token)


def check_weight(weight: int) -> None:
    cap = _caps.get()[0]
    if weight > cap:
        raise CapExceeded(
            f"word weight {weight} exceeds cap {cap}; "
            "raise it with itoflow.caps(weight=...)"
        )


def check_grade(grade: int) -> None:
    cap = _caps.get()[1]
    if grade > cap:
        raise CapExceeded(
            f"surjection grade {grade} exceeds cap {cap}; "
            "raise it with itoflow.caps(grade=...)"
        )
