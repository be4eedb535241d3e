"""Entry-wise iterated-integral expansions for linear matrix flows.

The flow of dX = X_- dM, X_0 = Id, is the series over n of the n-fold
left-point integral of M against itself.  Entry (i, j) of the n-fold
term is the sum over index chains i = i_0, i_1, ..., i_n = j of the word
of matrix-entry letters M^{i_0 i_1} ... M^{i_(n-1) i_n}.  Entry letters
are packed into single integers row-major so the scalar bracket-word
machinery applies unchanged: letter(i, j) = (i - 1) * dim + j.

The logarithm applies the surjection log element grade by grade to each
entry word; the exponential multiplies matrices whose entry products are
quasi-shuffle products.  exp(log) equals the flow series exactly, grade
by grade, in rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from ._config import _count, _typed, check_weight
from .kernels import _picker, fibers_of
from .logseries import log_identity_closed_form
from .quasishuffle import qsh
from .words import BracketWord, Expansion, refuse_malformed

LETTER_ENCODING = "row-major: letter(i, j) = (i - 1) * dim + j, 1-based"


def entry_letter(i: int, j: int, dim: int) -> int:
    """Pack the 1-based matrix position (i, j) into a single positive letter:
    the one position rule, which m[i, j] and the series' letters read."""
    i, j, dim = _count("i", i), _count("j", j), _count("dim", dim)
    if not (i <= dim and j <= dim):
        raise ValueError(f"entry ({i},{j}) outside a {dim}x{dim} matrix")
    return (i - 1) * dim + j


class MatrixExpansion:
    """Square grid of bracket-word expansions; m[i, j] is entry (i, j), 1-based."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Iterable[Iterable[Expansion]]):
        dim = _count("dim", dim)
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != dim or any(len(row) != dim for row in grid):
            raise ValueError(f"entries must form a {dim}x{dim} grid")
        for row in grid:
            for e in row:
                _typed("entries", e, Expansion)
        self.dim = dim
        self.entries = grid

    @classmethod
    def identity(cls, dim: int) -> "MatrixExpansion":
        unit, zero = Expansion.unit, Expansion.zero
        return cls(dim, [[unit() if i == j else zero() for j in range(dim)] for i in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> "MatrixExpansion":
        return cls(dim, [[Expansion.zero()] * dim for _ in range(dim)])

    def __getitem__(self, ij: tuple[int, int]) -> Expansion:
        row, col = divmod(entry_letter(*ij, self.dim) - 1, self.dim)
        return self.entries[row][col]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixExpansion):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    @classmethod
    def sum(cls, matrices: Iterable["MatrixExpansion"]) -> "MatrixExpansion":
        """One Expansion.sum per entry of one or more matrices of one dimension."""
        matrices = list(matrices)
        if not matrices:
            raise ValueError("a matrix sum needs a matrix, for its dimension")
        for m in matrices:
            cls._check(matrices[0], m)
        rows = zip(*(m.entries for m in matrices))
        return cls(matrices[0].dim, [list(map(Expansion.sum, zip(*row))) for row in rows])

    def __add__(self, other: "MatrixExpansion") -> "MatrixExpansion":
        return self.sum((self, other))

    def __sub__(self, other: "MatrixExpansion") -> "MatrixExpansion":
        return self.sum((self, other * -1))

    def __mul__(self, scalar) -> "MatrixExpansion":
        return self.map_entries(lambda e: e * scalar)

    __rmul__ = __mul__

    def _check(self, other: "MatrixExpansion") -> None:
        if not isinstance(other, MatrixExpansion) or other.dim != self.dim:
            raise ValueError("dimension mismatch")

    def matmul(self, other: "MatrixExpansion", max_weight: int | None = None) -> "MatrixExpansion":
        """Matrix product with quasi-shuffle products of entries.

        max_weight truncates every product term above that weight, keeping
        truncated-series arithmetic from exploding past the working order.
        """
        self._check(other)
        if max_weight is not None:
            max_weight = _count("max_weight", max_weight, 0)
        cols = list(zip(*other.entries))
        return MatrixExpansion(
            self.dim,
            [
                [
                    Expansion.sum(
                        qsh(a, b, max_weight=max_weight)
                        for a, b in zip(row, col)
                        if a and b
                    )
                    for col in cols
                ]
                for row in self.entries
            ],
        )

    def map_entries(self, fn: Callable[[Expansion], Expansion]) -> "MatrixExpansion":
        return MatrixExpansion(
            self.dim, [[fn(e) for e in row] for row in self.entries]
        )

    def truncate_weight(self, max_weight: int) -> "MatrixExpansion":
        # every entry's truncate checks max_weight: dim is at least 1
        return self.map_entries(lambda e: e.truncate(max_weight))

    def max_weight(self) -> int:
        return max(e.max_grade() for row in self.entries for e in row)

    def has_constant_part(self) -> bool:
        return any(
            BracketWord() in e for row in self.entries for e in row
        )

    def pretty(self) -> str:
        lines = []
        for i in range(self.dim):
            for j in range(self.dim):
                lines.append(f"({i + 1},{j + 1}): {self.entries[i][j].pretty()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MatrixExpansion(dim={self.dim})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "letter_encoding": LETTER_ENCODING,
            "entries": [
                [e.to_json_dict() for e in row] for row in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MatrixExpansion":
        """Inverse of to_json_dict; a malformed blob raises ValueError."""
        with refuse_malformed(cls.__name__):
            entries = [[Expansion.from_json_dict(e) for e in row] for row in obj["entries"]]
            return cls(obj["dim"], entries)


def matrix_ito_taylor(dim: int, order: int) -> MatrixExpansion:
    """Flow series to the given order: identity plus iterated integrals of M.

    Built layer by layer: entry (i, j)'s weight-n bucket holds entry
    (i, k)'s weight-(n-1) words, each with the letter of M^{k j} appended
    as a new final singleton block, for every k.  The words of distinct k
    end in distinct letters, so every numerator is 1, over 1.

    dim has no cap: the series has sum over k <= order of dim^(k+1) terms.
    """
    order = check_weight(_count("order", order, 0))
    d = _count("dim", dim)
    ix = range(d)
    # appended[k][j]: the one-block suffix of the letter of M^{k+1, j+1}
    appended = [[((entry_letter(k + 1, j + 1, d),),) for j in ix] for k in ix]
    layer = [[{(): 1} if i == j else {} for j in ix] for i in ix]
    buckets = [[{0: part} if part else {} for part in row] for row in layer]
    for n in range(1, order + 1):
        layer = [
            [{w + ends[j]: 1 for words, ends in zip(row, appended) for w in words} for j in ix]
            for row in layer
        ]
        for grades, row in zip(buckets, layer):
            for classes, part in zip(grades, row):
                classes[n] = part  # d^(n-1) chains from any i to any j: never empty
    return MatrixExpansion(d, [[Expansion._raw(classes) for classes in row] for row in buckets])


def _log_plan(element) -> list:
    """Per arity n, (subsets, terms): the distinct fibers of the element's
    arity-n terms, and each term's pick of its word from the subsets'
    merges (_merges) beside its numerator, in the bucket's order."""
    plan = [((), ())] * (max(element._classes, default=0) + 1)  # the unit word maps to nothing
    for n, part in element._classes.items():
        slot: dict = {}
        picks = [_picker([slot.setdefault(fb, len(slot)) for fb in fibers_of(f)]) for f in part]
        plan[n] = (tuple(slot), list(zip(picks, part.values())))
    return plan


def _merges(w: tuple, subsets: tuple) -> tuple:
    """w's blocks merged on each subset; a one-position subset is its block."""
    return tuple([
        w[s[0]] if len(s) == 1 else tuple(sorted([x for i in s for x in w[i]])) for s in subsets
    ])


def _log_map(element) -> Callable[[Expansion], Expansion]:
    """A surjection element as a map on Expansions: its arity-n terms act on
    each length-n word, merging its blocks along their fibers.  The element
    becomes picks once (_log_plan); each word then merges each of its
    arity's subsets once, and every term's word is a pick of those merges.
    Merging keeps a word's weight, so each weight bucket maps into the same
    weight.  apply_element is the per-term oracle."""
    plan = _log_plan(element)

    def log(e: Expansion) -> Expansion:
        classes: dict = {}
        for g, part in e._classes.items():
            data = classes[g] = {}
            get = data.get
            for w, cw in part.items():
                subsets, terms = plan[len(w)]
                merged = _merges(w, subsets)
                for pick, c in terms:
                    v = pick(merged)
                    prev = get(v)
                    data[v] = cw * c if prev is None else prev + cw * c
        return Expansion._bucketed(classes, e._den * element._den)

    return log


def matrix_log(dim: int, order: int) -> MatrixExpansion:
    """Logarithm of the flow series, entry-wise, to the given order.

    The surjection log element of each grade n acts on every length-n entry
    word (_log_map): its blocks merge along the fibers of each arity-n
    term, so fibers of two or more positions become bracket blocks of
    entry letters.
    """
    order = check_weight(_count("order", order))
    log = _log_map(log_identity_closed_form(order))  # the grade cap, then the dim
    return matrix_ito_taylor(dim, order).map_entries(log)


def matrix_exp(me: MatrixExpansion, order: int) -> MatrixExpansion:
    """Truncated exponential via quasi-shuffle matrix powers.

    The input must have no constant (weight-0) part, so the series stops
    at the order-th power; MatrixExpansion.sum adds the powers over k!.
    """
    order = check_weight(_count("order", order, 0))
    _typed("me", me, MatrixExpansion)
    if me.has_constant_part():
        raise ValueError("exp needs an expansion with no weight-0 part")
    me = me.truncate_weight(order)
    power = MatrixExpansion.identity(me.dim)
    terms = [power]
    for k in range(1, order + 1):
        power = power.matmul(me, max_weight=order)
        terms.append(power * Fraction(1, factorial(k)))
    return MatrixExpansion.sum(terms)
