"""Quasi-shuffle products of bracket words.

The product qsh(u, v) encodes the pathwise product of two iterated Ito
integrals: interleave the blocks of u and v in all order-preserving ways,
optionally merging one block of u with one block of v via the bracket
(multiset union).  Dropping every merged term recovers the classical
shuffle product of Riemann/Stratonovich calculus.

For nonempty words the product splits into three half-products keyed by
what the final block is:

    half_up(u, v)    terms ending with the last block of u
    half_down(u, v)  terms ending with the last block of v
    bullet(u, v)     terms ending with the merged last blocks

and qsh = half_up + half_down + bullet.  The empty word is the unit of
qsh; the half-products are left undefined on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from ._config import check_weight
from .kernels import diamond_words, qsh_words, apply_to_blocks
from .words import (
    BracketWord,
    Expansion,
    WordLike,
    accumulate,
    as_word,
    block_product,
    graded_pairs,
)

_weight = attrgetter("weight")


def _as_expansion(x) -> Expansion:
    return x if isinstance(x, Expansion) else Expansion.of_word(as_word(x))


def _weight_pairs(a, b, max_weight: int | None = None):
    """Term pairs (u, v, cu * cv) of words or expansions, pruned by weight."""
    ea, eb = _as_expansion(a), _as_expansion(b)
    return graded_pairs(ea._terms, eb._terms, _weight, max_weight, check_weight)


def qsh(*operands, max_weight: int | None = None) -> Expansion:
    """Quasi-shuffle product of words or expansions, extended bilinearly.

    With more than two operands the product is folded left to right, which
    is safe because qsh is associative.  Every term of a product of words
    has the summed weight of its factors, so max_weight prunes per weight
    class: both operands' terms are grouped by weight once, and a pair of
    classes whose weights sum past max_weight is skipped whole, before the
    cap check and before any coefficient work.  This is the tool for
    truncated-series arithmetic.
    """
    if not operands:
        return Expansion.unit()
    acc = _as_expansion(operands[0])
    for rhs in operands[1:]:
        data = {}
        for u, v, c in _weight_pairs(acc, rhs, max_weight):
            for w, mult in qsh_words(tuple(u), tuple(v)).items():
                accumulate(data, BracketWord._wrap(w), c if mult == 1 else c * mult)
        acc = Expansion._raw(data)
    return acc


def _require_nonempty(u: BracketWord, v: BracketWord) -> None:
    if not u or not v:
        raise ValueError("half-products are defined on nonempty words only")


def _half_up_pair(u: BracketWord, v: BracketWord):
    last = u[-1]
    for w, mult in qsh_words(tuple(u[:-1]), tuple(v)).items():
        yield BracketWord._wrap(w + (last,)), mult


def _bullet_pair(u: BracketWord, v: BracketWord):
    merged = block_product(u[-1], v[-1])
    for w, mult in qsh_words(tuple(u[:-1]), tuple(v[:-1])).items():
        yield BracketWord._wrap(w + (merged,)), mult


def _bilinear(pair_op, a, b) -> Expansion:
    data = {}
    for u, v, c in _weight_pairs(a, b):
        _require_nonempty(u, v)
        for w, mult in pair_op(u, v):
            accumulate(data, w, c * mult)
    return Expansion._raw(data)


def half_up(u, v) -> Expansion:
    """Terms of qsh(u, v) whose final block is the last block of u.

    Extends bilinearly when either operand is an Expansion; every word in
    either operand must be nonempty.
    """
    return _bilinear(_half_up_pair, u, v)


def half_down(u, v) -> Expansion:
    """Terms of qsh(u, v) whose final block is the last block of v."""
    return _bilinear(lambda a, b: _half_up_pair(b, a), u, v)


def bullet(u, v) -> Expansion:
    """Terms of qsh(u, v) ending with the merge of both last blocks."""
    return _bilinear(_bullet_pair, u, v)


@lru_cache(maxsize=64)
def _identity_diamond(n: int, m: int) -> tuple:
    """Terms of ident_n diamond ident_m, the surjections of qsh shape (n, m)."""
    return tuple(diamond_words(tuple(range(1, n + 1)), tuple(range(1, m + 1))))


def qsh_via_surjections(u: WordLike, v: WordLike) -> Expansion:
    """qsh computed from its surjection-sum form, as an independent route.

    Sum, over surjections f from the n+m block positions onto 1..r that are
    strictly increasing on the first n and on the last m positions, of the
    word obtained by merging the concatenated blocks along the fibers of f.
    Those f are exactly the terms of the product of the two identity
    surjections, so the enumeration is shared with the surjection algebra.

    The terms depend only on the shape (n, m), so they are enumerated once
    per shape and kept in a memo of at most 64 shapes (least recently used
    dropped first), which holds every shape the default weight cap allows.
    The weight cap is checked before the memo is read, so a memoized shape
    still raises CapExceeded when the cap is lowered.
    """
    u, v = as_word(u), as_word(v)
    check_weight(u.weight + v.weight)
    cat = tuple(u) + tuple(v)
    counts: dict = {}
    for f in _identity_diamond(len(u), len(v)):
        w = apply_to_blocks(f, cat)
        counts[w] = counts.get(w, 0) + 1
    return Expansion._raw(
        {BracketWord._wrap(w): Fraction(c) for w, c in counts.items()}
    )


def shuffle_projection(e: Expansion) -> Expansion:
    """Kill every term containing a block of two or more letters.

    Applied to a quasi-shuffle product of singleton-block words this leaves
    the classical shuffle product.
    """
    return Expansion(
        (w, c) for w, c in e if all(len(b) == 1 for b in w)
    )


def shuffle(u: WordLike, v: WordLike) -> Expansion:
    """Classical shuffle product (quasi-shuffle with merges dropped)."""
    return shuffle_projection(qsh(u, v))
