"""Logarithm of the flow map of a driver system, in template form.

The log of the iterated-integral series of a system driven by letters
1..N (plus, optionally, their quadratic-variation letters N+1..2N) is a
sum over surjections f of arity n:

    coeff(f) * V_{i_1} ... V_{i_n} I(partition of f)

where the partition lists the fibers of f in target order (the order of
integration), the coefficient is (-1)^d / (n * binomial(n-1, d)) with d
the descent count, and the V's are abstract noncommuting generators, one
per position.  Terms are emitted as templates over symbolic positions;
the log over concrete driver letters, under the standing assumptions
(continuity, vanishing cross-brackets, named quadratic variations), is
matrixseries.linear_field_log, so its exponential blowup is opt-in.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ._config import _count, _typed, check_grade
from .logseries import _descent_law_terms
from .surjections import Surjection
from .words import (
    BracketWord,
    Expansion,
    accumulate,
    frac_from_json,
    frac_str,
    frac_to_json,
    refuse_malformed,
)

POSITION_SYMBOLS = "ijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class DriverAlphabet:
    """Driver letters 1..n_primary and the standing vanishing assumptions.

    continuous: brackets of three or more factors vanish.
    cross_brackets_zero: brackets of two distinct primary drivers vanish.
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

    def surjection(self) -> Surjection:
        """Recover f: position p maps to the index of its block."""
        block_of = {p: idx for idx, positions in enumerate(self.partition, 1) for p in positions}
        return Surjection(block_of.get(p, 0) for p in range(1, self.order + 1))

    def pretty(self) -> str:
        """Theorem-style rendering, e.g. '-1/6 V_i V_j V_k I_{j[ik]}'."""
        syms = [POSITION_SYMBOLS[p % len(POSITION_SYMBOLS)] for p in range(self.order)]
        vs = " ".join(f"V_{s}" for s in syms)
        parts = []
        for positions in self.partition:
            body = "".join(syms[p - 1] for p in positions)
            parts.append(body if len(positions) == 1 else f"[{body}]")
        coeff = "" if self.coeff == 1 else frac_str(self.coeff) + " "
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
            n = _count("n", obj["n"])
            partition = tuple(tuple(_count("position", p) for p in b) for b in obj["partition"])
            positions = sorted(itertools.chain(*partition))
            # lengths first: the range is built only when it is as short as the blob
            if not all(partition) or len(positions) != n or positions != list(range(1, n + 1)):
                raise ValueError(f"partition {partition} is not a set partition of 1..{n}")
            return cls(order=n, partition=partition, coeff=frac_from_json(obj["coeff"]))


def log_flow_terms(alphabet: DriverAlphabet, order: int) -> list[LogTerm]:
    """All template terms of the flow-map logarithm up to the given order.

    In continuous mode only surjections with fibers of at most two
    positions survive (larger fibers are iterated brackets of three or
    more continuous factors); with jumps every surjection contributes.
    """
    _typed("alphabet", alphabet, DriverAlphabet)
    order = check_grade(_count("order", order))
    max_fiber = 2 if alphabet.continuous else order
    return [
        LogTerm(order=n, partition=f.fibers(), coeff=c)
        for n in range(1, order + 1)
        for f, c in _descent_law_terms(n)
        if max(map(f.count, f)) <= max_fiber
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
    _typed("alphabet", alphabet, DriverAlphabet)
    out: dict[BracketWord, Fraction] = {}
    for w, c in e:
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
            accumulate(out, BracketWord(blocks), c)
    return Expansion._raw(out)


def terms_to_json(terms: Iterable[LogTerm], **kwargs) -> str:
    return json.dumps({"terms": [t.to_json_dict() for t in terms]}, **kwargs)


def terms_from_json(text: str) -> list[LogTerm]:
    """Inverse of terms_to_json; a malformed blob raises ValueError."""
    with refuse_malformed("LogTerm list"):
        return [LogTerm.from_json_dict(t) for t in json.loads(text)["terms"]]
