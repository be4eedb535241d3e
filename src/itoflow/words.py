"""Bracket words and their exact rational linear combinations.

A bracket word is a finite sequence of blocks.  Each block is a nonempty
multiset of positive integer driver letters and stands for the iterated
quadratic-covariation bracket of those drivers; the sequence stands for
nested left-point integration, innermost first.  The empty word is the unit.

Blocks are canonicalized as sorted tuples (the bracket is commutative and
associative), so plain tuple equality and hashing are canonical equality.
Deterministic output order is length-lexicographic: fewer blocks first, then
blockwise lexicographic comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from math import lcm
from operator import is_
from typing import Iterable, Iterator, Mapping, Union

from ._config import _count, _typed

Block = tuple  # sorted tuple of positive ints


def block(*letters: int) -> Block:
    """Canonical block from letters, keeping multiplicity: block(3,1,3) == (1,3,3)."""
    if not letters:
        raise ValueError("a block needs at least one letter")
    # a loop, not a comprehension: before Python 3.12 that costs a frame per block
    checked = []
    for x in letters:
        checked.append(_count("letter", x))
    checked.sort()
    return tuple(checked)


def block_product(a: Block, b: Block) -> Block:
    """Bracket product of blocks: the multiset union of their letters."""
    return tuple(sorted(tuple(a) + tuple(b)))


class BracketWord(tuple):
    """Immutable word of canonical blocks; behaves as a tuple of tuples."""

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Iterable[int]] = ()) -> "BracketWord":
        canon = []
        for b in blocks:
            if isinstance(b, int):
                raise TypeError(
                    f"blocks must be iterables of letters, got bare int {b!r}; "
                    "use BracketWord.from_letters for singleton-block words"
                )
            c = block(*b)
            # a canonical block tuple of int letters is kept, not copied:
            # words built from shared blocks share them
            canon.append(b if type(b) is tuple and all(map(is_, b, c)) else c)
        return super().__new__(cls, canon)

    @classmethod
    def from_letters(cls, *letters: int) -> "BracketWord":
        """Word of singleton blocks, one per letter: from_letters(2,1) = (2)(1)."""
        return cls((x,) for x in letters)

    @property
    def weight(self) -> int:
        """Total letter count over all blocks, with multiplicity."""
        return sum(map(len, self))

    def __add__(self, other: "BracketWord") -> "BracketWord":
        """Concatenation."""
        return BracketWord(tuple(self) + tuple(other))

    def __mul__(self, other):  # block repetition is never meaningful here
        return NotImplemented

    def __repr__(self) -> str:
        return f"BracketWord({word_literal(self)!r})"


# adopt already-canonical blocks without re-validating (hot paths)
BracketWord._wrap = partial(tuple.__new__, BracketWord)

UNIT_WORD = BracketWord()

WordLike = Union[BracketWord, Iterable[Iterable[int]]]


def as_word(w: WordLike) -> BracketWord:
    return w if isinstance(w, BracketWord) else BracketWord(w)


# -- text forms ---------------------------------------------------------------
#
# Literal grammar (CLI input form): blocks joined by ".", bracket blocks as
# "[a,b,...]", letters as positive decimal integers; "e" is the unit word.
# Compact display form, usable when every letter is a single digit: blocks
# juxtaposed, singleton as the digit, bracket block as "[13]".  The parser
# accepts both, so every rendering round-trips.


def word_literal(w: WordLike) -> str:
    """Dotted literal: (2)([1,3]) -> '2.[1,3]'; unit -> 'e'."""
    w = as_word(w)
    if not w:
        return "e"
    return ".".join(str(b[0]) if len(b) == 1 else f"[{','.join(map(str, b))}]" for b in w)


def word_compact(w: WordLike) -> str:
    """Digit-juxtaposed form: (2)([1,3]) -> '2[13]'; falls back to the literal."""
    w = as_word(w)
    if not w:
        return "e"
    if any(x > 9 for b in w for x in b):
        return word_literal(w)
    return "".join(str(b[0]) if len(b) == 1 else f"[{''.join(map(str, b))}]" for b in w)


def pretty_word(w: WordLike) -> str:
    """Iterated-integral notation: (2)([1,3]) -> 'I_{2[13]}'; unit -> '1'."""
    w = as_word(w)
    if not w:
        return "1"
    return "I_{" + word_compact(w) + "}"


class WordParseError(ValueError):
    """Word literal rejected; carries the 0-based offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {text!r}")


def parse_word(text: str) -> BracketWord:
    """Parse either literal form.

    Dotted: '2.[1,3]' or '[1,3].2.2'.  Compact (single-digit letters only):
    '2[13]', '112'.  The unit word is written 'e'; an empty string is an
    error so that silently blank CLI arguments do not pass as units.
    """
    text = _typed("word literal", text, str).strip()
    if not text:
        raise WordParseError(text, 0, "empty word literal (write 'e' for the unit)")
    if text == "e":
        return UNIT_WORD
    if "." in text or "," in text:
        return _parse_dotted(text)
    return _parse_compact(text)


def _parse_dotted(text: str) -> BracketWord:
    blocks = []
    pos = 0
    chunks = text.split(".")
    for chunk in chunks:
        if not chunk:
            raise WordParseError(text, pos, "empty block")
        if chunk.startswith("["):
            if not chunk.endswith("]"):
                raise WordParseError(text, pos + len(chunk) - 1, "unclosed '['")
            inner = chunk[1:-1]
            letters = []
            off = pos + 1
            for item in inner.split(","):
                item_s = item.strip()
                if not item_s.isdigit() or int(item_s) < 1:
                    raise WordParseError(text, off, f"bad letter {item!r}")
                letters.append(int(item_s))
                off += len(item) + 1
            blocks.append(letters)
        else:
            if not chunk.isdigit() or int(chunk) < 1:
                raise WordParseError(text, pos, f"bad letter {chunk!r}")
            blocks.append([int(chunk)])
        pos += len(chunk) + 1
    return BracketWord(blocks)


def _parse_compact(text: str) -> BracketWord:
    blocks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "[":
            j = text.find("]", i)
            if j < 0:
                raise WordParseError(text, i, "unclosed '['")
            inner = text[i + 1 : j]
            if not inner.isdigit():
                raise WordParseError(text, i + 1, f"bad bracket content {inner!r}")
            letters = [int(ch) for ch in inner]
            if any(x < 1 for x in letters):
                raise WordParseError(text, i + 1, "letter 0 is not allowed")
            blocks.append(letters)
            i = j + 1
        elif c.isdigit():
            if c == "0":
                raise WordParseError(text, i, "letter 0 is not allowed")
            blocks.append([int(c)])
            i += 1
        else:
            raise WordParseError(text, i, f"unexpected character {c!r}")
    return BracketWord(blocks)


# -- exact coefficients -------------------------------------------------------


# Fraction(n) for 0 <= n < 256, one shared object per value.  A product of
# words has non-negative int multiplicities; taking its coefficients from
# this fixed table makes two equal products hold the same objects, so
# comparing them is decided by identity, never by Fraction.__eq__.
_WHOLE = tuple(map(Fraction, range(256)))


def whole(n: int) -> Fraction:
    """Fraction(n) for an int multiplicity n >= 0, shared while n < 256."""
    return _WHOLE[n] if n < 256 else Fraction(n)


def frac_to_json(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def frac_from_json(obj) -> Fraction:
    """Inverse of frac_to_json; also reads an int or a fraction string.

    A float or a bool is refused with ValueError: JSON numbers with a
    fraction part are binary floats, not the exact rational meant.
    """
    if isinstance(obj, dict):
        return Fraction(int(_exact(obj["num"])), int(_exact(obj["den"])))
    return Fraction(_exact(obj))


def _exact(x):
    if isinstance(x, (bool, float)):
        raise ValueError(f"inexact JSON coefficient {x!r}; write integers as strings")
    return x


@contextmanager
def refuse_malformed(kind: str):
    """Raise ValueError where reading a malformed JSON blob would raise
    KeyError, TypeError or ZeroDivisionError."""
    try:
        yield
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind} JSON: {type(exc).__name__}: {exc}") from exc


def frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def graded_pairs(left: dict, right: dict, max_grade, check):
    """Term pairs (x, y, cx * cy) of two coefficient maps, by grade class.

    left and right are the maps bucketed by grade, as Combination._graded
    keeps them; the grade must add up on products (word weight for qsh,
    arity for the surjection product).  A bucket pair whose summed grade
    exceeds max_grade (None: no limit) is skipped whole, before check and
    before any coefficient multiply.  check(summed grade) is the size cap,
    applied once per surviving bucket pair, so a pruned pair never raises.
    """
    for gx, xs in left.items():
        for gy, ys in right.items():
            g = gx + gy
            if max_grade is not None and g > max_grade:
                continue
            check(g)
            for x, cx in xs:
                for y, cy in ys:
                    yield x, y, cx * cy


def accumulate(data: dict, key, c) -> None:
    """data[key] += c for exact coefficients; a zero sum drops the key.

    A new key starts at c itself: 0 + c would take the slow
    Fraction.__radd__ route for every new term.
    """
    prev = data.get(key)
    tot = c if prev is None else prev + c
    if tot:
        data[key] = tot
    else:
        data.pop(key, None)


def add_scaled(data: dict, terms: dict, s) -> None:
    """data[key] += s * c for every term of terms.

    A zero sum stays in data: each caller drops its zeros once, at the
    end, as Combination._over does.
    """
    get = data.get
    for k, c in terms.items():
        prev = get(k)
        data[k] = s * c if prev is None else prev + s * c


def _json_list(key):
    """A tuple key (nested or flat) as JSON lists: BracketWord -> [[1], [2, 3]]."""
    return [_json_list(x) for x in key] if isinstance(key, tuple) else key


class Combination:
    """Finite formal sum of graded keys with exact rational coefficients.

    Zero coefficients are never stored; equality is exact coefficient-map
    equality between combinations of one type.  A subclass sets what is
    particular to its keys: _coerce (key coercion), _grade (key grade),
    _render (display; an empty string marks a constant term), _json_key
    (name of the key field in JSON) and _product (where the product of two
    combinations lives).  Keys are tuples, listed in length-lexicographic
    order: fewer entries first, then lexicographic.
    """

    # _classes: the terms bucketed by grade, filled on first use (_graded)
    __slots__ = ("_terms", "_classes")

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            coerce = self._coerce
            items = terms.items() if isinstance(terms, Mapping) else terms
            for k, c in items:
                accumulate(data, coerce(k), Fraction(c))
        self._terms = data

    # construction helpers
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls):
        """The empty key with coefficient 1."""
        return cls([((), 1)])

    @classmethod
    def of(cls, key, coeff=1):
        return cls([(key, coeff)])

    @classmethod
    def _raw(cls, data: dict):
        e = cls.__new__(cls)
        e._terms = data
        return e

    @classmethod
    def sum(cls, combinations: Iterable["Combination"]):
        """Sum of combinations, accumulated into one dict (no copy per term);
        zero sums are dropped once, at the end."""
        data: dict = {}
        get = data.get
        for e in combinations:
            for k, c in e._terms.items():
                prev = get(k)
                data[k] = c if prev is None else prev + c
        return cls._raw({k: c for k, c in data.items() if c})

    # integer numerators: the exact series loops multiply and add int-valued
    # combinations over one common denominator and build one Fraction per
    # output term at the end, instead of normalizing a Fraction per step
    def _numerators(self, d: int | None = None):
        """(copy with int coefficients c * d, d).

        d defaults to the lcm of the denominators; a given d must be a
        multiple of each of them.
        """
        terms = self._terms
        if d is None:
            d = self._denominator()
        return self._raw({k: c.numerator * (d // c.denominator) for k, c in terms.items()}), d

    def _denominator(self) -> int:
        """lcm of the coefficient denominators (1 for zero)."""
        return lcm(*(c.denominator for c in self._terms.values()))

    @classmethod
    def _over(cls, nums: dict, d: int):
        """The Fraction-valued combination nums / d; zero numerators are dropped.

        One Fraction is built per distinct numerator and shared by its terms.
        """
        fracs = {n: Fraction(n, d) for n in set(nums.values()) if n}
        return cls._raw({k: fracs[n] for k, n in nums.items() if n})

    def _graded(self) -> dict:
        """The terms as grade -> [(key, coeff), ...], worked out once and kept.

        A combination never changes after it is built, so an operand used
        in many products is bucketed once.  The slot takes no part in ==,
        hash or JSON.
        """
        try:
            return self._classes
        except AttributeError:
            classes: dict = {}
            grade = self._grade
            for k, c in self._terms.items():
                classes.setdefault(grade(k), []).append((k, c))
            self._classes = classes
            return classes

    # container protocol
    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple]:
        for k in self.support():
            yield k, self._terms[k]

    def __getitem__(self, key) -> Fraction:
        return self._terms.get(self._coerce(key), Fraction(0))

    def __contains__(self, key) -> bool:
        return self._coerce(key) in self._terms

    def support(self) -> list:
        """The keys in length-lexicographic order."""
        # two sorts with C-level keys: the second is stable, so keys of one
        # length stay in lexicographic order
        return sorted(sorted(self._terms), key=len)

    # arithmetic
    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            accumulate(data, k, c)
        return self._raw(data)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, type(self)):
            raise TypeError(f"use {self._product}")
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError(
                f"coefficients are exact rationals; got {type(scalar).__name__} "
                "(wrap in fractions.Fraction)"
            )
        c = Fraction(scalar)
        if not c:
            return type(self)()
        return self._raw({k: b * c for k, b in self._terms.items()})

    __rmul__ = __mul__

    # grading
    def grades(self) -> list[int]:
        return sorted({self._grade(k) for k in self._terms})

    def max_grade(self) -> int:
        return max(map(self._grade, self._terms), default=0)

    def restrict(self, grade: int):
        """Homogeneous part of the given grade."""
        grade = _count("grade", grade, 0)
        g = self._grade
        return self._raw({k: c for k, c in self._terms.items() if g(k) == grade})

    def truncate(self, max_grade: int):
        """Drop every term of grade above max_grade."""
        max_grade = _count("max_grade", max_grade, 0)
        g = self._grade
        return self._raw({k: c for k, c in self._terms.items() if g(k) <= max_grade})

    # rendering
    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (k, c) in enumerate(self):
            mag = abs(c)
            body = self._render(k)
            if not body:
                term = frac_str(mag)
            else:
                term = body if mag == 1 else f"{frac_str(mag)} {body}"
            if i == 0:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(f"{'-' if c < 0 else '+'} {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pretty()})"

    # serialization
    def to_json_dict(self) -> dict:
        key = self._json_key
        terms = [{key: _json_list(k), "coeff": frac_to_json(c)} for k, c in self]
        return {**self._json_header(), "terms": terms}

    def _json_header(self) -> dict:
        """Fields written ahead of "terms"."""
        return {}

    @classmethod
    def from_json_dict(cls, obj: dict):
        """Inverse of to_json_dict; a malformed blob raises ValueError."""
        key = cls._json_key
        with refuse_malformed(cls.__name__):
            return cls((t[key], frac_from_json(t["coeff"])) for t in obj["terms"])


class Expansion(Combination):
    """Finite formal sum of bracket words, graded by word weight.

    The quasi-shuffle product of expansions lives in itoflow.quasishuffle.
    """

    __slots__ = ()

    _coerce = staticmethod(as_word)
    _grade = staticmethod(BracketWord.weight.fget)  # no property lookup per term
    _json_key = "word"
    _product = "itoflow.quasishuffle.qsh for products of expansions"

    @staticmethod
    def _render(w: BracketWord) -> str:
        return pretty_word(w) if w else ""

    # perfbench/tracing.py records calls by rebinding these six names in
    # this class's own namespace, so they are bound here, not only inherited.
    __init__ = Combination.__init__
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__
    __neg__ = Combination.__neg__
    __mul__ = Combination.__mul__
    __rmul__ = Combination.__rmul__

    words = Combination.support  # the name perfbench/tracing.py calls
