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

from ._config import _ascii, _count, _decimal, _typed

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

    __rmul__ = __mul__

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
    return _rendered(as_word(w), ".", ",")


def word_compact(w: WordLike) -> str:
    """Digit-juxtaposed form: (2)([1,3]) -> '2[13]'; falls back to the literal."""
    w = as_word(w)
    return word_literal(w) if any(x > 9 for b in w for x in b) else _rendered(w, "", "")


def _rendered(w: BracketWord, between: str, within: str) -> str:
    """w's blocks joined by between, a bracket block's letters by within; unit -> 'e'."""
    blocks = (str(b[0]) if len(b) == 1 else f"[{within.join(map(str, b))}]" for b in w)
    return between.join(blocks) if w else "e"


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
            letters = []
            off = pos + 1
            for item in chunk[1:-1].split(","):
                letters.append(_letter(text, off, item.strip()))
                off += len(item) + 1
            blocks.append(letters)
        else:
            blocks.append([_letter(text, pos, chunk)])
        pos += len(chunk) + 1
    return BracketWord(blocks)


def _parse_compact(text: str) -> BracketWord:
    blocks = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == "[":
            j = text.find("]", i)
            if j < 0:
                raise WordParseError(text, i, "unclosed '['")
            if j == i + 1:
                raise WordParseError(text, i + 1, "empty bracket")
            blocks.append([_letter(text, k, text[k]) for k in range(i + 1, j)])
            i = j + 1
        else:
            blocks.append([_letter(text, i, text[i])])
            i += 1
    return BracketWord(blocks)


def _letter(text: str, pos: int, digits: str) -> int:
    """The letter that digits, read at pos of text, writes in ASCII, else
    WordParseError at pos."""
    letter = _decimal(digits)
    if letter is None:
        raise WordParseError(text, pos, f"bad letter {digits!r}")
    return letter


# -- exact coefficients -------------------------------------------------------


def frac_to_json(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def frac_from_json(obj) -> Fraction:
    """Inverse of frac_to_json; also reads an int or an ASCII fraction string.

    A float or a bool is refused with ValueError: JSON numbers with a
    fraction part are binary floats, not the exact rational meant.
    """
    if isinstance(obj, dict):
        return Fraction(_exact(obj["num"], int), _exact(obj["den"], int))
    return _exact(obj, Fraction)


def _exact(x, read):
    if isinstance(x, (bool, float)):
        raise ValueError(f"inexact JSON coefficient {x!r}; write integers as strings")
    return _ascii(x, read, "a JSON coefficient") if isinstance(x, str) else read(x)


@contextmanager
def refuse_malformed(kind: str):
    """Raise ValueError where reading a malformed JSON blob would raise
    KeyError, TypeError or ZeroDivisionError."""
    try:
        yield
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind} JSON: {type(exc).__name__}: {exc}") from exc


def _prune(classes: dict) -> dict:
    """classes, grade -> {key: numerator}, with its zero numerators and then
    its empty grades deleted, in place; the scan for a zero runs in C."""
    for g in list(classes):
        data = classes[g]
        if 0 in data.values():
            for k in [k for k, c in data.items() if not c]:
                del data[k]
        if not data:
            del classes[g]
    return classes


def _json_list(key):
    """A tuple key (nested or flat) as JSON lists: BracketWord -> [[1], [2, 3]]."""
    return [_json_list(x) for x in key] if isinstance(key, tuple) else key


class Combination:
    """Finite formal sum of graded keys with exact rational coefficients.

    The terms have one stored form: _classes files them by grade,
    {grade: {key: numerator}}, every key under its own grade, with no
    empty grade and no zero numerator, over _den, one positive denominator
    shared by every term and not necessarily the least one.  Products
    multiply denominators and sums take their lcm, so every exact loop adds
    and multiplies ints, grade by grade; iteration, [], pretty and JSON
    read each coefficient out as a reduced Fraction.  Equality is equality
    of those values between combinations of one type.

    Every route builds its result in this form: the constructor and
    apply_vanishing_rules file each key under the grade they work out for
    it, the products and maps under a grade they know (qsh and diamond add
    the grades of a bucket pair, matrix_log keeps a word's weight,
    matrix_ito_taylor files its layer n under weight n).  Each adds its
    terms up first and drops zero numerators and empty grades once, at the
    end.  A combination never changes once built, so a scalar product by
    numerator 1, restrict and truncate share its grade dicts.

    A key is a canonical tuple, plain or already an instance of the key
    class: the key classes are tuple subclasses that hash and compare as
    tuples, so ==, hash, in and [] see no difference.  Products keep the
    plain tuples their kernels return, and take a bare key operand as its
    one-term combination (_operand); support(), and so iteration, pretty
    and JSON, hand out each key wrapped by _view.

    A subclass sets what is particular to its keys: _coerce (key coercion),
    _view (a canonical tuple as the key class, unchecked), _grade (key
    grade), _render (display; an empty string marks a constant term),
    _json_key (name of the key field in JSON) and _product (where the
    product of two combinations lives).  Keys are tuples, listed in
    length-lexicographic order: fewer entries first, then lexicographic.
    """

    __slots__ = ("_classes", "_den")

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            coerce = self._coerce
            items = terms.items() if isinstance(terms, Mapping) else terms
            for k, c in items:
                k = coerce(k)
                data[k] = data.get(k, 0) + _typed("coefficient", c, int, Fraction)
        # a zero sum has denominator 1, so it leaves den as it is
        den = lcm(*(c.denominator for c in data.values()))
        classes: dict = {}
        grade = self._grade
        for k, c in data.items():
            classes.setdefault(grade(k), {})[k] = c.numerator * (den // c.denominator)
        self._classes = _prune(classes)
        self._den = den

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
    def _raw(cls, classes: dict, den: int = 1):
        """The combination classes / den, taken as it is: every key filed
        under its grade, no empty grade, nonzero int numerators."""
        e = cls.__new__(cls)
        e._classes = classes
        e._den = den
        return e

    @classmethod
    def _operand(cls, x):
        """A combination as it is; a key as its one-term combination."""
        if isinstance(x, cls):
            return x
        key = cls._coerce(x)
        return cls._raw({cls._grade(key): {key: 1}})

    @classmethod
    def _bucketed(cls, classes: dict, den: int = 1):
        """The combination classes / den, every key filed under its grade,
        once its zero numerators and then its empty grades are dropped, in
        place (_prune, which the constructor runs too)."""
        return cls._raw(_prune(classes), den)

    @classmethod
    def sum(cls, combinations: Iterable["Combination"]):
        """Sum of combinations over the lcm of their denominators, added
        grade by grade into one dict per grade (no copy per term); zero
        sums are dropped once, at the end."""
        combinations = list(combinations)
        den = lcm(*(e._den for e in combinations))
        classes: dict = {}
        for e in combinations:
            s = den // e._den
            for g, part in e._classes.items():
                data = classes.setdefault(g, {})
                if not data and s == 1:
                    data.update(part)
                    continue
                get = data.get
                for k, c in part.items():
                    prev = get(k)
                    data[k] = c * s if prev is None else prev + c * s
        return cls._bucketed(classes, den)

    @classmethod
    def _bilinear(cls, pair, a, b, check, max_grade=None):
        """a times b, combinations or keys, where pair(x, y) is the list of
        the keys of the product of two keys, coefficient 1 each, every one
        of grade grade(x) + grade(y), as qsh_words and diamond_words list
        them.

        A pair of grade buckets whose grades sum past max_grade (None: no
        limit) is skipped whole, before the size cap check(summed grade)
        and before any coefficient multiply, so a pruned pair never raises.
        Each key of a kept pair adds cx * cy into the dict of its grade,
        over the product of the denominators; those dicts, once their zero
        sums are dropped, are the product's grade buckets.
        """
        a, b = cls._operand(a), cls._operand(b)
        classes: dict = {}
        for gx, xs in a._classes.items():
            for gy, ys in b._classes.items():
                g = gx + gy
                if max_grade is not None and g > max_grade:
                    continue
                check(g)
                data = classes.setdefault(g, {})
                get = data.get
                for x, cx in xs.items():
                    for y, cy in ys.items():
                        c = cx * cy
                        for k in pair(x, y):
                            prev = get(k)
                            data[k] = c if prev is None else prev + c
        return cls._bucketed(classes, a._den * b._den)

    def _flat(self) -> dict:
        """The terms as one {key: numerator} map, to read and not to change:
        a lone grade's dict is the map itself, more grades are merged."""
        classes = self._classes
        if len(classes) == 1:
            (terms,) = classes.values()
            return terms
        terms = {}
        for part in classes.values():
            terms.update(part)
        return terms

    # container protocol
    def __len__(self) -> int:
        return sum(map(len, self._classes.values()))

    def __bool__(self) -> bool:
        return bool(self._classes)

    def __iter__(self) -> Iterator[tuple]:
        terms, den = self._flat(), self._den
        for k in self.support():
            yield k, Fraction(terms[k], den)

    def _numerator(self, key) -> int:
        """The numerator of key, 0 if it is not a term."""
        key = self._coerce(key)
        return self._classes.get(self._grade(key), {}).get(key, 0)

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._numerator(key), self._den)

    def __contains__(self, key) -> bool:
        return bool(self._numerator(key))

    def support(self) -> list:
        """The keys in length-lexicographic order, as instances of the key class."""
        # two sorts with C-level keys: the second is stable, so keys of one
        # length stay in lexicographic order
        return list(map(self._view, sorted(sorted(self._flat()), key=len)))

    # arithmetic
    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            return self._classes == other._classes
        a, b = self._flat(), other._flat()
        return a.keys() == b.keys() and all(c * db == b[k] * da for k, c in a.items())

    def __hash__(self):
        den = self._den
        return hash(
            frozenset(
                (k, Fraction(c, den)) for part in self._classes.values() for k, c in part.items()
            )
        )

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1, self._den)

    def __mul__(self, scalar):
        if isinstance(scalar, type(self)):
            raise TypeError(f"use {self._product}")
        c = _typed("coefficient", scalar, int, Fraction)
        if not c:
            return type(self)()
        return self._scaled(c.numerator, self._den * c.denominator)

    __rmul__ = __mul__

    def _scaled(self, n: int, den: int):
        """Every numerator times the nonzero int n, over den.  A combination
        never changes once built, so by n = 1 its grade dicts serve two."""
        if n == 1:
            return self._raw(self._classes, den)
        return self._raw(
            {g: {k: c * n for k, c in part.items()} for g, part in self._classes.items()}, den
        )

    # grading
    def grades(self) -> list[int]:
        return sorted(self._classes)

    def max_grade(self) -> int:
        return max(self._classes, default=0)

    def restrict(self, grade: int):
        """Homogeneous part of the given grade."""
        grade = _count("grade", grade, 0)
        part = self._classes.get(grade)
        return self._raw({grade: part} if part else {}, self._den)

    def truncate(self, max_grade: int):
        """Drop every term of grade above max_grade."""
        max_grade = _count("max_grade", max_grade, 0)
        classes = {g: part for g, part in self._classes.items() if g <= max_grade}
        return self._raw(classes, self._den)

    # rendering
    def pretty(self) -> str:
        if not self._classes:
            return "0"
        parts = []
        for i, (k, c) in enumerate(self):
            mag = abs(c)
            body = self._render(k)
            if not body:
                term = str(mag)
            else:
                term = body if mag == 1 else f"{mag} {body}"
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
    _view = BracketWord._wrap
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
