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

from collections import Counter

from ._config import _count, check_weight
from .kernels import diamond_plan, qsh_words
from .words import (
    UNIT_WORD,
    BracketWord,
    Expansion,
    WordLike,
    as_word,
    block_product,
)


def qsh(*operands, max_weight: int | None = None) -> Expansion:
    """Quasi-shuffle product of words or expansions, extended bilinearly.

    With more than two operands the product is folded left to right, which
    is safe because qsh is associative; a lone operand is its product with
    the unit word.  Every term of a product of words has the summed weight
    of its factors, so max_weight prunes per weight class and the weight
    cap is checked once per kept pair of weight buckets (see Combination._bilinear).
    This is the tool for truncated-series arithmetic.  A word operand is
    taken once as a one-term expansion.
    """
    if max_weight is not None:
        max_weight = _count("max_weight", max_weight, 0)
    if not operands:
        return Expansion.unit()
    acc, *rest = operands if len(operands) > 1 else (operands[0], UNIT_WORD)
    for rhs in rest:
        # the kernel is read from this module at each call, where a recorder may rebind it
        acc = Expansion._bilinear(qsh_words, acc, rhs, check_weight, max_weight)
    return acc


def _require_nonempty(u: BracketWord, v: BracketWord) -> None:
    if not u or not v:
        raise ValueError("half-products are defined on nonempty words only")


def _half_up_pair(u, v) -> list:
    _require_nonempty(u, v)
    last = (u[-1],)
    return [w + last for w in qsh_words(u[:-1], v)]


def _bullet_pair(u, v) -> list:
    _require_nonempty(u, v)
    merged = (block_product(u[-1], v[-1]),)
    return [w + merged for w in qsh_words(u[:-1], v[:-1])]


def half_up(u, v) -> Expansion:
    """Terms of qsh(u, v) whose final block is the last block of u.

    Extends bilinearly when either operand is an Expansion; every word in
    either operand must be nonempty.
    """
    return Expansion._bilinear(_half_up_pair, u, v, check_weight)


def half_down(u, v) -> Expansion:
    """Terms of qsh(u, v) whose final block is the last block of v."""
    return Expansion._bilinear(lambda a, b: _half_up_pair(b, a), u, v, check_weight)


def bullet(u, v) -> Expansion:
    """Terms of qsh(u, v) ending with the merge of both last blocks."""
    return Expansion._bilinear(_bullet_pair, u, v, check_weight)


def qsh_via_surjections(u: WordLike, v: WordLike) -> Expansion:
    """qsh computed from its surjection-sum form, as an independent route.

    Sum, over surjections f from the n+m block positions onto 1..r that are
    strictly increasing on the first n and on the last m positions, of the
    word obtained by merging the concatenated blocks along the fibers of f.
    Those f are exactly the terms of the product of the two identity
    surjections, so the enumeration is shared with the surjection algebra.

    The terms depend only on the shape (n, m): they are the entries of
    kernels.diamond_plan(n, m), enumerated once per shape and kept for
    every shape the default weight cap allows (a larger one is built on
    each call and dropped), each term beside its pick: the term's blocks
    as indices into u's blocks, v's blocks and the merges of a block of u
    with a block of v, which are worked out once per call.  The weight cap is
    checked before the memo is read, so a memoized shape still raises
    CapExceeded when the cap is lowered.  Each word's count is its
    numerator, over 1, and every word has weight |u| + |v|.
    """
    u, v = as_word(u), as_word(v)
    weight = check_weight(u.weight + v.weight)
    _, picks = diamond_plan(len(u), len(v))
    blocks = (*u, *v, *[block_product(a, b) for a in u for b in v])
    counts = Counter(pick(blocks) for pick in picks)
    return Expansion._raw({weight: {BracketWord._wrap(w): c for w, c in counts.items()}})


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
