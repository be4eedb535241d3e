"""Logarithm of the flow map of a driver system, in template form.

The log of the iterated-integral series of a system driven by letters
1..N (plus, optionally, their quadratic-variation letters N+1..2N) is a
sum over surjections f of arity n:

    coeff(f) * V_{i_1} ... V_{i_n} I(partition of f)

where the partition lists the fibers of f in target order (the order of
integration), the coefficient is (-1)^d / (n * binomial(n-1, d)) with d
the descent count, and the V's are abstract noncommuting generators, one
per position.  Terms are emitted as templates over symbolic positions;
linear_field_log sums them over concrete driver letters for linear
fields, under the standing assumptions (continuity, vanishing
cross-brackets, named quadratic variations): its exponential blowup is opt-in.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ._config import _count, _typed, check_grade, check_weight
from .logseries import log_identity_closed_form
from .matrixseries import _log_map
from .surjections import SurjElement, Surjection
from .words import (
    BracketWord,
    Expansion,
    frac_from_json,
    frac_to_json,
    refuse_malformed,
)

POSITION_SYMBOLS = "ijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class DriverAlphabet:
    """Driver letters 1..n_primary and the standing vanishing assumptions.

    continuous: brackets of three or more factors vanish.
    cross_brackets_zero: brackets of two distinct primary drivers vanish,
        as they do for independent Brownian motions.  On a grid the
        discrete bracket, the sum of dW1 dW2 over the cells, is not zero,
        so an identity exact on the grid, in jump mode, needs
        cross_brackets_zero=False.
    paired_qv: letter i + n_primary names the bracket of driver i with
        itself, so exact self-bracket blocks fold to a single letter and
        quadratic-variation letters count as two bracket factors.
    """

    n_primary: int
    continuous: bool = True
    cross_brackets_zero: bool = True
    paired_qv: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_primary", _count("n_primary", self.n_primary))
        for flag in ("continuous", "cross_brackets_zero", "paired_qv"):
            _typed(flag, getattr(self, flag), bool)

    @property
    def n_letters(self) -> int:
        """Total letter count: 2N with named quadratic variations, else N."""
        return 2 * self.n_primary if self.paired_qv else self.n_primary

    def is_primary(self, letter: int) -> bool:
        return 1 <= letter <= self.n_primary

    def qv_letter(self, letter: int) -> int:
        """The letter naming the quadratic variation of a primary driver."""
        if not self.is_primary(letter):
            raise ValueError(f"{letter} is not a primary driver")
        return letter + self.n_primary

    def bracket_depth(self, letter: int) -> int:
        """Number of semimartingale factors the letter stands for."""
        if letter < 1 or letter > self.n_letters:
            raise ValueError(f"letter {letter} outside alphabet of {self.n_letters}")
        return 2 if self.paired_qv and letter > self.n_primary else 1


@dataclass(frozen=True)
class LogTerm:
    """One template term: order, fiber partition, exact coefficient."""

    order: int
    partition: tuple[tuple[int, ...], ...]
    coeff: Fraction

    def __post_init__(self):
        order, partition = _count("order", self.order), tuple(self.partition)
        if {*map(type, partition)} != {tuple} or {*map(type, itertools.chain(*partition))} != {int}:
            # JSON lists, or a position that is not a plain int: tuples of checked ints
            partition = tuple([tuple([_count("position", p) for p in b]) for b in partition])
        positions = sorted(itertools.chain(*partition))
        # lengths first: the range is built only when it is as short as the partition
        if not all(partition) or len(positions) != order or positions != list(range(1, order + 1)):
            raise ValueError(f"partition {partition} is not a set partition of 1..{order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "partition", partition)
        _typed("coeff", self.coeff, int, Fraction)

    def surjection(self) -> Surjection:
        """Recover f: position p maps to the index of its block."""
        block_of = {p: idx for idx, positions in enumerate(self.partition, 1) for p in positions}
        return Surjection(block_of[p] for p in range(1, self.order + 1))

    def pretty(self) -> str:
        """Theorem-style rendering, e.g. '-1/6 V_i V_j V_k I_{j[ik]}'."""
        syms = POSITION_SYMBOLS[: self.order]
        if len(syms) < self.order:
            raise ValueError(f"pretty names at most {len(syms)} positions, not {self.order}")
        vs = " ".join(f"V_{s}" for s in syms)
        parts = []
        for positions in self.partition:
            body = "".join(syms[p - 1] for p in positions)
            parts.append(body if len(positions) == 1 else f"[{body}]")
        coeff = "" if self.coeff == 1 else f"{self.coeff} "
        if self.coeff == -1:
            coeff = "-"
        return f"{coeff}{vs} I_{{{''.join(parts)}}}"

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "partition": [list(b) for b in self.partition],
            "coeff": frac_to_json(self.coeff),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LogTerm":
        """Inverse of to_json_dict; a malformed blob raises ValueError."""
        with refuse_malformed(cls.__name__):
            return cls(obj["n"], obj["partition"], frac_from_json(obj["coeff"]))


def _flow_log_element(alphabet: DriverAlphabet, order: int) -> SurjElement:
    """The flow-log templates as one element, which log_flow_terms and
    linear_field_log read: every term of log_identity_closed_form(order), or
    in continuous mode those whose fibers have at most two positions (larger
    fibers are iterated brackets of three or more continuous factors)."""
    _typed("alphabet", alphabet, DriverAlphabet)
    element = log_identity_closed_form(check_grade(_count("order", order)))
    if not alphabet.continuous:
        return element
    classes = element._classes.items()
    kept = {n: {f: c for f, c in part.items() if max(map(f.count, f)) <= 2} for n, part in classes}
    return SurjElement._raw(kept, element._den)  # the identity of each arity is kept


def log_flow_terms(alphabet: DriverAlphabet, order: int) -> list[LogTerm]:
    """All template terms of the flow-map logarithm up to the given order:
    those of _flow_log_element, bucket by bucket in its (k, lex) order."""
    element = _flow_log_element(alphabet, order)
    return [
        LogTerm(order=n, partition=Surjection._wrap(f).fibers(), coeff=Fraction(c, element._den))
        for n, part in element._classes.items()
        for f, c in part.items()
    ]


def apply_vanishing_rules(e: Expansion, alphabet: DriverAlphabet) -> Expansion:
    """Normalize a concrete-letter expansion under the standing assumptions.

    Per block: a bracket of two distinct primary drivers is zero when
    cross-brackets vanish; a bracket of three or more factors (counting a
    quadratic-variation letter as two) is zero for continuous drivers; an
    exact self-bracket {i, i} of a primary driver folds to its
    quadratic-variation letter when those are named.  A letter outside
    the alphabet raises ValueError, wherever it stands.
    """
    _typed("e", e, Expansion)
    _typed("alphabet", alphabet, DriverAlphabet)
    # folding a self-bracket lowers a word's weight: each result is filed by its own
    classes: dict[int, dict] = {}
    terms = e._flat()
    for w in e.support():
        # every block's depth before any rule, so each letter is checked
        depths = [sum(map(alphabet.bracket_depth, b)) for b in w]
        blocks = []
        for b, depth in zip(w, depths):
            if alphabet.cross_brackets_zero and len({x for x in b if alphabet.is_primary(x)}) >= 2:
                break
            if alphabet.continuous and depth >= 3:
                break
            if alphabet.paired_qv and len(b) == 2 and b[0] == b[1] and alphabet.is_primary(b[0]):
                b = (alphabet.qv_letter(b[0]),)
            blocks.append(b)
        else:  # no block vanished
            v = BracketWord(blocks)
            data = classes.setdefault(v.weight, {})
            data[v] = data.get(v, 0) + terms[w]
    return Expansion._bucketed(classes, e._den)


def linear_field_log(alphabet: DriverAlphabet, order: int, generators: Mapping) -> tuple:
    """Flow-map log of the linear fields V_i x = x A_i: dim rows of dim Expansions.

    generators maps each driver letter i to A_i, a square int or Fraction
    matrix; the A_i need not commute.  Entry (p, q) of the flow series sums
    each word i_1 ... i_n of driver letters times (A_{i_1} ... A_{i_n})_pq;
    the arity-n templates act on its length-n words (matrixseries._log_map),
    and the vanishing rules apply.  1x1 is the scalar log; [[n]] counts a
    driver n times.  verify._substituted_log, through matrix_log, is the oracle.
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
    element = _flow_log_element(alphabet, check_weight(_count("order", order)))
    dim = _count("dim", sizes.pop())  # a 0x0 generator is refused after the order
    flow = [[{} for _ in range(dim)] for _ in range(dim)]  # the flow series: w (A_w)_pq
    for p, row in enumerate(flow):
        layer = {BracketWord(): {p: 1}}  # words w of one length: row p of A_w where nonzero
        for n in range(order + 1):
            words, layer = layer, {}
            for w, v in words.items():
                for q, c in v.items():
                    row[q][w] = c
                for i, a in mats.items() if n < order else ():
                    u = {r: x for r in range(dim) if (x := sum(c * a[q][r] for q, c in v.items()))}
                    if u:  # a zero product is never extended
                        layer[BracketWord._wrap(w + ((i,),))] = u
    log = _log_map(element)
    return tuple(tuple(apply_vanishing_rules(log(Expansion(d)), alphabet) for d in r) for r in flow)


def terms_to_json(terms: Iterable[LogTerm], **kwargs) -> str:
    return json.dumps({"terms": [t.to_json_dict() for t in terms]}, **kwargs)


def terms_from_json(text: str) -> list[LogTerm]:
    """Inverse of terms_to_json; a malformed blob raises ValueError."""
    with refuse_malformed("LogTerm list"):
        return [LogTerm.from_json_dict(t) for t in json.loads(text)["terms"]]
