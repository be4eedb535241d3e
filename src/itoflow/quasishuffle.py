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
    BracketWord,
    Expansion,
    WordLike,
    accumulate,
    add_into,
    as_word,
    block_product,
    graded_pairs,
)


def _as_expansion(x) -> Expansion:
    """An expansion as it is; a word as its one-term expansion, filed
    under its weight."""
    if isinstance(x, Expansion):
        return x
    w = as_word(x)
    return Expansion._raw({w.weight: {w: 1}})


def qsh(*operands, max_weight: int | None = None) -> Expansion:
    """Quasi-shuffle product of words or expansions, extended bilinearly.

    With more than two operands the product is folded left to right, which
    is safe because qsh is associative.  Every term of a product of words
    has the summed weight of its factors, so max_weight prunes per weight
    class: a pair of an operand's weight buckets whose weights sum past
    max_weight is skipped whole, before the cap check and before any
    coefficient work.  This is the tool for truncated-series arithmetic.
    A lone operand comes back truncated at max_weight.

    A word operand is taken once as a one-term expansion.  The int
    numerators of the terms of a pair of weight buckets are added into the
    dict of their summed weight, over the product of the operands'
    denominators, keyed by the plain tuples the kernel returns; zero sums
    are dropped in place at the end, and those dicts are the product's
    weight buckets, ready for the next product.
    """
    if max_weight is not None:
        max_weight = _count("max_weight", max_weight, 0)
    if not operands:
        return Expansion.unit()
    acc = _as_expansion(operands[0])
    if len(operands) == 1:
        return acc if max_weight is None else acc.truncate(max_weight)
    for rhs in map(_as_expansion, operands[1:]):
        classes: dict = {}
        for g, us, vs in graded_pairs(acc._classes, rhs._classes, max_weight, check_weight):
            data = classes.setdefault(g, {})
            for u, cu in us:
                for v, cv in vs:
                    add_into(data, qsh_words(u, v), cu * cv)
        acc = Expansion._bucketed(classes, acc._den * rhs._den)
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
    """pair_op extended bilinearly; like qsh's, each term of a pair of
    weight buckets has their summed weight."""
    a, b = _as_expansion(a), _as_expansion(b)
    classes: dict = {}
    for g, us, vs in graded_pairs(a._classes, b._classes, None, check_weight):
        data = classes.setdefault(g, {})
        for u, cu in us:
            for v, cv in vs:
                _require_nonempty(u, v)
                for w, mult in pair_op(u, v):
                    accumulate(data, w, cu * cv * mult)
    return Expansion._bucketed(classes, a._den * b._den)


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


def qsh_via_surjections(u: WordLike, v: WordLike) -> Expansion:
    """qsh computed from its surjection-sum form, as an independent route.

    Sum, over surjections f from the n+m block positions onto 1..r that are
    strictly increasing on the first n and on the last m positions, of the
    word obtained by merging the concatenated blocks along the fibers of f.
    Those f are exactly the terms of the product of the two identity
    surjections, so the enumeration is shared with the surjection algebra.

    The terms depend only on the shape (n, m): they are the entries of
    kernels.diamond_plan(n, m), enumerated once per shape in the kernel's
    memo of at most 64 shapes, which holds every shape the default weight
    cap allows, each term beside its pick: the term's blocks as indices
    into u's blocks, v's blocks and the merges of a block of u with a
    block of v, which are worked out once per call.  The weight cap is
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
