"""Pure-Python combinatorial kernels.

Everything here works on plain tuples: words are tuples of blocks, blocks
are sorted tuples of ints, surjections are tuples of values covering 1..k.

These functions are the hot loops of the symbolic layer; keep them free of
class machinery.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations, compress, count
from operator import ge, itemgetter

from ._config import DEFAULT_GRADE_CAP, DEFAULT_WEIGHT_CAP

# Kept for callers that record it in run metadata; there is no other backend.
BACKEND = "python"


def _kept(cap, size):
    """Keep-or-rebuild, the one rule for every memo of these kernels.

    The decorated build is kept, in an lru_cache of at most size entries
    reachable as .kept, for every shape whose sizes sum to at most cap:
    exactly the shapes the default caps reach.  A larger shape, reachable
    only under a raised cap, is built on each call and dropped, so a raised
    cap never grows a memo.  The default caps fill grade_table with 6
    tables, 0.52 MiB (arity 7 alone would keep 5.1 MiB), _lattice_plan
    with 28 shapes and 1664 picks, 0.26 MiB, and diamond_plan with 45
    shapes, 0.44 MiB (the (7, 7) plan alone would keep 17 MiB), all by
    tracemalloc.  No build calls an exported kernel, so a traced run makes
    the same kernel calls on a cold memo as on a warm one.  Every caller
    checks its cap before reading a memo, so a lowered cap still raises
    CapExceeded on a kept shape.
    """

    def keep(build):
        kept = lru_cache(maxsize=size)(build)

        @wraps(build)
        def read(*shape):
            return kept(*shape) if sum(shape) <= cap else build(*shape)

        read.kept = kept
        return read

    return keep


def pack_word(values):
    """Rank-normalize a sequence of ints onto 1..k preserving order.

    pack((3, 5, 7, 3, 1)) == (2, 3, 4, 2, 1); pack((7, 7, 2)) == (2, 2, 1).
    """
    ranks = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return tuple(ranks[v] for v in values)


def is_surjection(values):
    """True when values is onto 1..k for k = max(values) (empty is onto [0])."""
    if not values:
        return True
    k = max(values)
    return min(values) >= 1 and len(set(values)) == k


def descent_count(f):
    """Number of positions i with f[i] >= f[i+1] (ties count as descents)."""
    return _descents(f)


def _descents(f):
    return sum(map(ge, f, f[1:]))


def descent_set(f):
    """Positions i (1-based) with f[i-1] >= f[i], as a sorted tuple."""
    return tuple(compress(count(1), map(ge, f, f[1:])))


def surjections(n, k):
    """All surjections [n] -> [k] as value tuples, lexicographically sorted."""
    return _surjections(n, k)


def _surjections(n, k):
    if k > n or k < 0:
        return []
    out = []
    word = []
    counts = [0] * (k + 1)  # uses of each value 1..k in word; counts[0] stays 0
    values = range(1, k + 1)

    def rec():
        if len(word) == n:
            out.append(tuple(word))
            return
        # as many slots left as values unused: each must take an unused one
        tight = counts.count(0) - 1 == n - len(word)
        for v in values:
            c = counts[v]
            if c and tight:
                continue
            counts[v] = c + 1
            word.append(v)
            rec()
            del word[-1]
            counts[v] = c

    rec()
    return out


@_kept(DEFAULT_GRADE_CAP, 8)
def grade_table(n):
    """The surjections of arity n onto any k in (k, lex) order, and beside
    them their descent counts, as two tuples of plain tuples and ints.

    The only cache of these tables.  The enumeration and descent rule are
    those of surjections and descent_count, reached without calling them.
    """
    surjs = tuple(f for k in range(n + 1) for f in _surjections(n, k))
    return surjs, tuple(map(_descents, surjs))


def qsh_words(u, v):
    """Quasi-shuffle of two block words, as the list of its terms'
    words, coefficient 1 each: a word reached by several paths is listed
    that many times, as diamond_words lists its terms.

    Each term is a lattice path from (0, 0) to (len(u), len(v)) whose
    steps append the next block of u, the next block of v, or their
    merge.  The paths depend only on the two lengths, so each shape's
    picks come from _lattice_plan: every call forms its len(u) * len(v)
    merged blocks once and applies every pick to (*u, *v, *merges).
    """
    nu, nv = len(u), len(v)
    if nu == 0:
        return [tuple(v)]
    if nv == 0:
        return [tuple(u)]
    blocks = (*u, *v, *[tuple(sorted(x + y)) for x in u for y in v])
    return [pick(blocks) for pick in _lattice_plan(nu, nv)]


@_kept(DEFAULT_WEIGHT_CAP, 32)
def _lattice_plan(a, b):
    """Picks of every lattice path of shape (a, b), a, b >= 1, as a tuple.

    A path is an index tuple into (*u, *v, *merges) for words u, v of
    lengths a and b: u[i] sits at i, v[j] at a + j, and the merge of u[i]
    and v[j] at a + b + i * b + j.  Rows are built one i at a time: the
    paths to (i, j) end with a v-step from (i, j - 1), a u-step from
    (i - 1, j) or a merge from (i - 1, j - 1), listed in that order, as
    the recursion on last blocks lists them.  There are sum over k of
    C(a, k) C(b, k) 2^k paths (the Delannoy number).

    This enumeration shares no code with diamond_plan, which the
    surjection route reads, so qsh_via_surjections stays an independent
    check of qsh; the two turn index tuples into picks by one _picker.
    """
    row = [[tuple(range(a, a + j))] for j in range(b + 1)]
    for i in range(1, a + 1):
        cur = [[tuple(range(i))]]
        for j in range(1, b + 1):
            v_step, u_step, merge = a + j - 1, i - 1, a + b + (i - 1) * b + j - 1
            cur.append(
                [p + (v_step,) for p in cur[j - 1]]
                + [p + (u_step,) for p in row[j]]
                + [p + (merge,) for p in row[j - 1]]
            )
        row = cur
    return tuple(map(_picker, row[b]))


def apply_to_blocks(f, blocks):
    """Merge a tuple of blocks along the fibers of a surjection f.

    Block i of the result is the multiset union of input blocks at positions
    mapped to i; len(f) must equal len(blocks).
    """
    if not f:
        return ()
    k = max(f)
    fibers = [[] for _ in range(k)]
    for pos, val in enumerate(f):
        fibers[val - 1].extend(blocks[pos])
    return tuple(tuple(sorted(fb)) for fb in fibers)


def fibers_of(f):
    """Fibers of a surjection f: for each value 1..k, its 0-based positions."""
    out = [[] for _ in range(max(f, default=0))]
    for pos, val in enumerate(f):
        out[val - 1].append(pos)
    return tuple(map(tuple, out))


def _picker(index):
    """Selector of the items at index from a tuple, as a tuple for any
    number of them: itemgetter(i) would return the bare item, so one index,
    or none, is picked by a slice."""
    if len(index) > 1:
        return itemgetter(*index)
    return itemgetter(slice(index[0], index[0] + 1) if index else slice(0))


def _pick(term, k, l):
    """Selector of term's word from (*u, *v, *merges) for identity operands.

    term = alpha + beta with alpha, beta strictly increasing, so a fiber
    holds one position of u (index i), one of v (index k + j), or one of
    each, whose merge sits at index k + l + i * l + j.
    """
    slot = {}
    for i, x in enumerate(term[:k]):
        slot[x] = i
    for j, x in enumerate(term[k:]):
        slot[x] = k + l + slot[x] * l + j if x in slot else k + j
    return _picker([slot[x] for x in range(1, len(slot) + 1)])


@_kept(DEFAULT_WEIGHT_CAP, 64)
def diamond_plan(k, l):
    """Index pairs of every surjection product of shape (k, l), in term order.

    One tuple alpha + beta per pair of strictly increasing maps
    alpha: [k] -> [r] and beta: [l] -> [r] whose images jointly cover [r].
    The pairs depend only on the targets k and l, so they are enumerated
    once per shape.  For identity operands the entries are the terms
    themselves: alpha o id = alpha.  Returns (values, picks): the value
    tuples, and beside each a selector that, applied to the tuple
    (*u, *v, *(block_product(a, b) for a in u for b in v)) of two words
    of lengths k and l, returns the term's word as a tuple of blocks.
    """
    out = []
    for r in range(max(k, l), k + l + 1):
        universe = range(1, r + 1)
        for alpha in combinations(universe, k):
            aset = set(alpha)
            need = [x for x in universe if x not in aset]
            # beta must contain every value alpha misses: r - k <= l of them
            free = [x for x in universe if x in aset]
            for extra in combinations(free, l - len(need)):
                out.append(alpha + tuple(sorted(need + list(extra))))
    return tuple(out), tuple(_pick(term, k, l) for term in out)


def diamond_words(f, g):
    """All terms of the surjection product f diamond g, coefficient 1 each.

    A term is built from a pair of strictly increasing maps alpha: [k] -> [r]
    and beta: [l] -> [r] whose images jointly cover [r]; the term is the
    concatenation (alpha o f, beta o g).  Distinct pairs give distinct terms.
    Each term selects its values from the pair's entry of diamond_plan(k, l).
    """
    if not f:
        return [tuple(g)]
    if not g:
        return [tuple(f)]
    k = max(f)
    # both operands are nonempty, so pick always returns a tuple
    pick = itemgetter(*[x - 1 for x in f], *[k + y - 1 for y in g])
    return list(map(pick, diamond_plan(k, max(g))[0]))
