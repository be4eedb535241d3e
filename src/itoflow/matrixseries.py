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

import itertools
import operator
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Mapping

from ._config import _count, _typed, check_weight
from .flowmaps import DriverAlphabet, apply_vanishing_rules
from .kernels import fibers_of, merge_fibers
from .logseries import _exp_weights, log_identity_closed_form
from .quasishuffle import qsh
from .words import (
    UNIT_WORD,
    BracketWord,
    Expansion,
    accumulate,
    add_scaled,
    refuse_malformed,
)

LETTER_ENCODING = "row-major: letter(i, j) = (i - 1) * dim + j, 1-based"


def entry_letter(i: int, j: int, dim: int) -> int:
    """Pack matrix position (i, j) into a single positive letter."""
    i, j, dim = _count("i", i), _count("j", j), _count("dim", dim)
    if not (i <= dim and j <= dim):
        raise ValueError(f"entry ({i},{j}) outside a {dim}x{dim} matrix")
    return (i - 1) * dim + j


class MatrixExpansion:
    """Square grid of bracket-word expansions with exact coefficients."""

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
        i, j = ij
        return self.entries[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixExpansion):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __add__(self, other: "MatrixExpansion") -> "MatrixExpansion":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "MatrixExpansion") -> "MatrixExpansion":
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other: "MatrixExpansion") -> "MatrixExpansion":
        self._check(other)
        rows = zip(self.entries, other.entries)
        return MatrixExpansion(self.dim, [list(map(op, ra, rb)) for ra, rb in rows])

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


def _integrate_against(me: MatrixExpansion) -> MatrixExpansion:
    """Left-point integral of a matrix expansion against dM.

    Entry (i, j) of the result sums entry (i, k) of the input with the
    letter of M^{k j} appended as a new final singleton block.
    """
    d = me.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc: dict[BracketWord, Fraction] = {}
            for k in range(d):
                letter = entry_letter(k + 1, j + 1, d)
                for w, c in me.entries[i][k]:
                    accumulate(acc, BracketWord._wrap(tuple(w) + ((letter,),)), c)
            row.append(Expansion._raw(acc))
        rows.append(row)
    return MatrixExpansion(d, rows)


def matrix_ito_taylor(dim: int, order: int) -> MatrixExpansion:
    """Flow series to the given order: identity plus iterated integrals of M.

    dim has no cap: the series has sum over k <= order of dim^(k+1) terms.
    """
    order = check_weight(_count("order", order, 0))
    total = MatrixExpansion.identity(dim)
    layer = MatrixExpansion.identity(dim)
    for _ in range(order):
        layer = _integrate_against(layer)
        total = total + layer
    return total


def matrix_log(dim: int, order: int) -> MatrixExpansion:
    """Logarithm of the flow series, entry-wise, to the given order.

    The surjection log element of each grade n acts on every length-n entry
    word: its blocks merge along the fibers of each arity-n term, worked out
    once per call, so fibers of two or more positions become bracket blocks
    of entry letters.  apply_element is the per-term oracle.
    """
    order = check_weight(_count("order", order))
    log_nums, d = log_identity_closed_form(order)._numerators()
    fibers = [[] for _ in range(order + 1)]
    coeffs = [[] for _ in range(order + 1)]
    for f, c in log_nums._terms.items():
        fibers[len(f)].append(fibers_of(f))
        coeffs[len(f)].append(c)

    def log(e: Expansion) -> Expansion:
        nums, t = e._numerators()
        data: dict = {}
        get = data.get
        for w, cw in nums._terms.items():
            n = len(w)
            for v, c in zip(map(merge_fibers, fibers[n], itertools.repeat(w)), coeffs[n]):
                prev = get(v)
                data[v] = cw * c if prev is None else prev + cw * c
        return Expansion._over({BracketWord._wrap(v): c for v, c in data.items()}, t * d)

    return matrix_ito_taylor(dim, order).map_entries(log)


def linear_field_log(alphabet: DriverAlphabet, order: int, generators: Mapping) -> tuple:
    """Flow-map log of the linear fields V_i x = x A_i: dim rows of dim Expansions.

    generators maps each driver letter i to A_i, a square int or Fraction
    matrix; the A_i need not commute.  Entry (p, q) is that of matrix_log with
    each entry letter M^{ab} replaced by sum_i (A_i)_{ab} z_i, multilinearly,
    under the alphabet's vanishing rules.  1x1 is the scalar log; [[n]] counts a driver n times.
    """
    _typed("alphabet", alphabet, DriverAlphabet)
    mats = {}
    for letter, matrix in _typed("generators", generators, Mapping).items():
        letter = _count("letter", letter)
        alphabet.bracket_depth(letter)  # refuses a letter outside it, before any work
        mats[letter] = [[_typed("generator entry", a, int, Fraction) for a in r] for r in matrix]
    sizes = {len(m) for m in mats.values()}
    if len(sizes) != 1 or any(len(r) != len(m) for m in mats.values() for r in m):
        raise ValueError("generators must be one or more square matrices of one size")
    (dim,) = sizes
    # entry letter (a - 1) * dim + b: the (driver letter, nonzero (A_i)_ab) pairs
    positions = itertools.product(range(dim), repeat=2)
    subs = [()] + [[(i, m[a][b]) for i, m in mats.items() if m[a][b]] for a, b in positions]

    def entry(e: Expansion) -> Expansion:
        nums, d = e._numerators()
        data: dict = {}
        for w, cw in nums._terms.items():
            for combo in itertools.product(*(subs[m] for b in w for m in b)):
                letters = iter(combo)
                word = tuple(tuple(sorted(next(letters)[0] for _ in b)) for b in w)
                accumulate(data, BracketWord._wrap(word), cw * prod(a for _, a in combo))
        return apply_vanishing_rules(Expansion._over(data, d), alphabet)

    return tuple(tuple(map(entry, row)) for row in matrix_log(dim, order).entries)


def matrix_exp(me: MatrixExpansion, order: int) -> MatrixExpansion:
    """Truncated exponential via quasi-shuffle matrix powers.

    The input must have no constant (weight-0) part, so the series stops
    at the order-th power.
    """
    order = check_weight(_count("order", order, 0))
    _typed("me", me, MatrixExpansion)
    if me.has_constant_part():
        raise ValueError("exp needs an expansion with no weight-0 part")
    # as in exp_element: me = nums / d, and the sum is scaled by n! d^n
    # (n = order), so the k-th power of nums enters with weight n!/k! d^(n-k)
    me = me.truncate_weight(order)
    dim = me.dim
    d = lcm(*(e._denominator() for row in me.entries for e in row))
    nums = me.map_entries(lambda e: e._numerators(d)[0])
    weights = _exp_weights(order, d)
    diagonal = [[i == j for j in range(dim)] for i in range(dim)]
    total = [[{UNIT_WORD: weights[0]} if on else {} for on in row] for row in diagonal]
    power = MatrixExpansion(
        dim, [[Expansion._raw({UNIT_WORD: 1} if on else {}) for on in row] for row in diagonal]
    )
    for k in range(1, order + 1):
        power = power.matmul(nums, max_weight=order)
        for acc_row, row in zip(total, power.entries):
            for acc, e in zip(acc_row, row):
                add_scaled(acc, e._terms, weights[k])
    return MatrixExpansion(
        dim, [[Expansion._over(acc, weights[0]) for acc in row] for row in total]
    )
