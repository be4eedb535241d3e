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
from functools import partial
from typing import Iterable, Sequence, Union

from ._config import _count, _decimal, _typed, check_grade
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
    as_word,
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
        return cls._wrap(range(1, _count("n", n, 0) + 1))

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
        return tuple([tuple([pos + 1 for pos in fb]) for fb in fibers_of(self)])

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
    items = list(text)
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1]
        items = [p.strip() for p in body.split(",")] if "," in body else list(body)
    values = [_decimal(p) for p in items]
    if None in values:
        bad = items[values.index(None)]
        raise ValueError(f"cannot parse surjection from {text!r}: bad value {bad!r}")
    return Surjection(values)


def pack(values: Sequence[int]) -> Surjection:
    """Rank-normalize any positive-integer word onto 1..k, e.g. 35731 -> 23421."""
    return Surjection._wrap(pack_word(tuple([_count("packed value", v) for v in values])))


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

    A fresh list each call: the arity's kernels.grade_table, each entry
    wrapped as a Surjection.
    """
    return list(map(Surjection._wrap, grade_table(check_grade(_count("n", n, 0)))[0]))


SurjLike = Union[Surjection, Sequence[int]]


def as_surjection(f: SurjLike) -> Surjection:
    return f if isinstance(f, Surjection) else Surjection(f)


class SurjElement(Combination):
    """Finite rational linear combination of surjections, graded by arity."""

    __slots__ = ()

    _coerce = staticmethod(as_surjection)
    _view = Surjection._wrap
    _grade = len
    _check = staticmethod(check_grade)
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


def diamond(a: ElementLike, b: ElementLike, max_grade: int | None = None) -> SurjElement:
    """Product on surjections, extended bilinearly.

    For surjections f, g the product is the multiplicity-free sum of all h
    with pack(h restricted to the first block) = f and pack(rest) = g, so
    every term has the summed arity of its factors.  max_grade prunes per
    grade class: a pair of an operand's arity buckets whose arities sum
    past max_grade is skipped whole, before the cap check and before any
    coefficient work.  That keeps truncated series work bounded.  As in
    qsh, Combination._bilinear adds the terms into one dict of plain tuples
    per arity, and those dicts are the result's arity buckets.
    """
    if max_grade is not None:
        max_grade = _count("max_grade", max_grade, 0)
    # the kernel is read from this module at each call, where a recorder may rebind it
    return SurjElement._bilinear(diamond_words, a, b, max_grade)


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
    target = tuple(sorted(_check_positions(n, positions)))
    return SurjElement(
        (f, 1) for f in enumerate_grade(n) if f.descent_set() == target
    )


def descent_sum_within(n: int, positions: Iterable[int]) -> SurjElement:
    """Sum of all arity-n surjections whose descents all lie in the given set."""
    allowed = _check_positions(n, positions)
    return SurjElement(
        (f, 1)
        for f in enumerate_grade(n)
        if all(i in allowed for i in f.descent_set())
    )


def _check_positions(n: int, positions: Iterable[int]) -> frozenset[int]:
    """The descent positions as a set of ints, each in 1..n-1, else ValueError."""
    out = frozenset([_count("descent position", i) for i in positions])
    for i in out:
        if i > n - 1:
            raise ValueError(f"descent position {i} outside 1..{n - 1}")
    return out


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
    Merging keeps the weight of w, so every term is filed under it.
    """
    _typed("e", e, SurjElement)
    w = as_word(w)
    data: dict[BracketWord, int] = {}
    for f, c in e._flat().items():
        v = apply_surjection(f, w)
        data[v] = data.get(v, 0) + c
    return Expansion._bucketed({w.weight: data}, e._den)
