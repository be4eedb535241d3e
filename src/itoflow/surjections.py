"""The graded algebra of surjections acting on bracket words.

A surjection is stored as its value sequence (f(1), ..., f(n)) covering
1..k, k = max value; the empty sequence is the unit.  The product of f and
g sums every h of arity n+m whose first n values pack to f and last m
values pack to g; it is associative, unital and noncommutative, and its
action on words (merge blocks along fibers) turns products of iterated
integrals into quasi-shuffle products.

Descent positions (value not strictly increasing) drive all coefficient
formulas downstream: sums of surjections with prescribed descent sets are
provided exactly and as subset-closed sums, related by inclusion-exclusion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence, Union

from ._config import DEFAULT_GRADE_CAP, _count, _typed, check_grade
from .kernels import (
    descent_count as _descent_count,
    descent_set as _descent_set,
    diamond_words,
    fibers_of,
    grade_table,
    is_surjection,
    pack_word,
    surjections as _enumerate,
    apply_to_blocks,
)
from .words import (
    BracketWord,
    Combination,
    Expansion,
    WordLike,
    accumulate,
    as_word,
    graded_pairs,
)


class Surjection(tuple):
    """Value sequence of a surjective map [n] -> [k]; empty is the unit."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()) -> "Surjection":
        vals = tuple([_count("surjection value", v) for v in values])
        if not is_surjection(vals):
            raise ValueError(f"{vals} is not onto 1..max")
        return super().__new__(cls, vals)

    @classmethod
    def identity(cls, n: int) -> "Surjection":
        return cls._wrap(range(1, n + 1))

    @property
    def onto(self) -> int:
        """The target size k."""
        return max(self) if self else 0

    def descent_set(self) -> tuple[int, ...]:
        """Positions i < n (1-based) where value i >= value i+1."""
        return _descent_set(self)

    def descent_count(self) -> int:
        return _descent_count(self)

    def is_bijection(self) -> bool:
        return self.onto == len(self)

    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Preimages of 1..k, each a sorted tuple of 1-based positions."""
        return tuple(tuple(pos + 1 for pos in fb) for fb in fibers_of(self))

    def __str__(self) -> str:
        if not self:
            return "()"
        if self.onto <= 9:
            return "".join(str(v) for v in self)
        return "(" + ",".join(str(v) for v in self) + ")"

    def __repr__(self) -> str:
        return f"Surjection({str(self)!r})"


Surjection._wrap = partial(tuple.__new__, Surjection)


def parse_surjection(text: str) -> Surjection:
    """Inverse of str and of an element's term display.

    Accepts a digit string '212', the same in parentheses '(212)' (how
    SurjElement.pretty shows it) or a comma list '(2,1,2)'; '()' is the unit.
    """
    text = _typed("surjection literal", text, str).strip()
    if text in ("", "()"):
        return Surjection()
    body = text
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1]
        if "," in body:
            return Surjection(int(p) for p in body.split(","))
    if not body.isdigit():
        raise ValueError(f"cannot parse surjection from {text!r}")
    return Surjection(int(ch) for ch in body)


def pack(values: Sequence[int]) -> Surjection:
    """Rank-normalize any positive-integer word onto 1..k, e.g. 35731 -> 23421."""
    return Surjection._wrap(pack_word(tuple(values)))


def enumerate_surjections(n: int, k: int) -> list[Surjection]:
    """All surjections [n] onto [k] in lexicographic order."""
    n, k = check_grade(_count("n", n, 0)), _count("k", k, 0)
    if n == 0 and k == 0:
        return [Surjection()]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return [Surjection._wrap(f) for f in _enumerate(n, k)]


def enumerate_grade(n: int) -> list[Surjection]:
    """All surjections of arity n, any target size, in (k, lex) order.

    A fresh list each call, copied from the arity's table in _grade_table.
    """
    return list(_grade_table(check_grade(_count("n", n, 0)))[0])


def _grade_table(n: int) -> tuple[tuple[Surjection, ...], tuple[int, ...]]:
    """The surjections of arity n in (k, lex) order, and beside them their
    descent counts, as two tuples (kernels.grade_table, wrapped).

    Kept for n up to DEFAULT_GRADE_CAP, at most 8 tables, least recently
    used dropped first; a larger arity, reachable only under a raised
    grade cap, is enumerated afresh on each call and not kept.  Measured
    with tracemalloc, the kept tables of arities 1 to 6 take 0.56 MiB
    together.  The table is not checked against the grade cap: every
    caller checks n first, so a lowered cap still raises CapExceeded on a
    warm table.
    """
    if n <= DEFAULT_GRADE_CAP:
        return _kept_grade_table(n)
    return _wrapped_grade_table(n)


def _wrapped_grade_table(n: int):
    surjs, descents = grade_table(n)
    return tuple(map(Surjection._wrap, surjs)), descents


_kept_grade_table = lru_cache(maxsize=8)(_wrapped_grade_table)


SurjLike = Union[Surjection, Sequence[int]]


def as_surjection(f: SurjLike) -> Surjection:
    return f if isinstance(f, Surjection) else Surjection(f)


class SurjElement(Combination):
    """Finite rational linear combination of surjections, graded by arity."""

    __slots__ = ()

    _coerce = staticmethod(as_surjection)
    _grade = len
    _json_key = "f"
    _product = "diamond for products of surjection elements"

    @staticmethod
    def _render(f: Surjection) -> str:
        s = str(f)  # the unit and the comma form are already parenthesized
        return s if s.startswith("(") else f"({s})"

    def _json_header(self) -> dict:
        """The arity of a homogeneous element, else None."""
        grades = self.grades()
        return {"grade": grades[0] if len(grades) == 1 else None}


ElementLike = Union[SurjElement, Surjection, Sequence[int]]


def _as_element(x: ElementLike) -> SurjElement:
    if isinstance(x, SurjElement):
        return x
    return SurjElement.of(as_surjection(x))


def diamond(a: ElementLike, b: ElementLike, max_grade: int | None = None) -> SurjElement:
    """Product on surjections, extended bilinearly.

    For surjections f, g the product is the multiplicity-free sum of all h
    with pack(h restricted to the first block) = f and pack(rest) = g, so
    every term has the summed arity of its factors.  max_grade prunes per
    grade class: an element's terms are grouped by arity the first time it
    is an operand and kept on it, and a pair of classes whose arities sum
    past max_grade is skipped whole, before the cap check and before any
    coefficient work.  That keeps truncated
    series work bounded.  As in qsh, the terms are added into one dict of
    plain tuples, and each distinct term is wrapped once at the end.
    """
    if max_grade is not None:
        max_grade = _count("max_grade", max_grade, 0)
    ea, eb = _as_element(a), _as_element(b)
    data: dict = {}
    get = data.get
    for f, g, c in graded_pairs(ea._graded(), eb._graded(), max_grade, check_grade):
        for h in diamond_words(f, g):
            prev = get(h)
            data[h] = c if prev is None else prev + c
    wrapped = zip(map(Surjection._wrap, data), data.values())
    return SurjElement._raw({h: c for h, c in wrapped if c})


def diamond_reference(f: SurjLike, g: SurjLike) -> SurjElement:
    """Brute-force oracle for diamond: filter every surjection of arity n+m."""
    f, g = as_surjection(f), as_surjection(g)
    n, m = len(f), len(g)
    out = []
    for h in enumerate_grade(n + m):
        if pack(h[:n]) == f and pack(h[n:]) == g:
            out.append((h, 1))
    return SurjElement(out)


# -- descent statistics -------------------------------------------------------


def descent_sum_exact(n: int, positions: Iterable[int]) -> SurjElement:
    """Sum of all arity-n surjections whose descent set equals the given one."""
    target = tuple(sorted(set(positions)))
    _check_positions(n, target)
    return SurjElement(
        (f, 1) for f in enumerate_grade(n) if f.descent_set() == target
    )


def descent_sum_within(n: int, positions: Iterable[int]) -> SurjElement:
    """Sum of all arity-n surjections whose descents all lie in the given set."""
    allowed = frozenset(positions)
    _check_positions(n, tuple(allowed))
    return SurjElement(
        (f, 1)
        for f in enumerate_grade(n)
        if all(i in allowed for i in f.descent_set())
    )


def _check_positions(n: int, positions: tuple[int, ...]) -> None:
    for i in positions:
        if not 1 <= i <= n - 1:
            raise ValueError(f"descent position {i} outside 1..{n - 1}")


# -- compositions and the quasi-symmetric embedding ---------------------------


class Composition(tuple):
    """Finite sequence of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        return super().__new__(cls, [_count("composition part", p) for p in parts])

    @property
    def total(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)})"


def compositions_of(n: int) -> list[Composition]:
    """All compositions of n, in length-then-lex order."""
    n = check_grade(_count("n", n, 0))
    if not n:
        return [Composition()]
    # k cut points of 1..n-1, in lex order, give k + 1 parts in lex order
    return [
        Composition(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        for k in range(n)
        for cuts in itertools.combinations(range(1, n), k)
    ]


def embed_composition(c: Composition | Sequence[int]) -> SurjElement:
    """Image of a product of single-part generators inside the algebra.

    A composition (n1, ..., nk) maps to the sum of all arity-(n1+...+nk)
    surjections whose descents lie within the cut points
    {n1, n1+n2, ..., n1+...+n(k-1)}.  This is an injective algebra map:
    concatenation of compositions goes to the diamond product.
    """
    c = Composition(c)
    if not c:
        return SurjElement.unit()
    return descent_sum_within(c.total, itertools.accumulate(c[:-1]))


# -- action on bracket words --------------------------------------------------


def apply_surjection(f: SurjLike, w: WordLike) -> BracketWord:
    """Merge the blocks of w along the fibers of f.

    Block i of the result is the multiset union of the blocks of w at the
    positions f maps to i; f must have one value per block of w.  On words
    with singleton blocks this is the action defining the product rule for
    iterated integrals.
    """
    f, w = as_surjection(f), as_word(w)
    if len(f) != len(w):
        raise ValueError(f"arity {len(f)} does not match word length {len(w)}")
    return BracketWord._wrap(apply_to_blocks(tuple(f), tuple(w)))


def apply_element(e: SurjElement, w: WordLike) -> Expansion:
    """Linear extension of apply_surjection in the surjection slot.

    One apply_surjection per term: the oracle for the log element's action
    in matrix_log, which merges along fibers worked out once per call.
    """
    _typed("e", e, SurjElement)
    w = as_word(w)
    data: dict[BracketWord, Fraction] = {}
    for f, c in e._terms.items():
        accumulate(data, apply_surjection(f, w), c)
    return Expansion._raw(data)
