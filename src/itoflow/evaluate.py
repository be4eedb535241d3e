"""Left-point evaluation of bracket-word expansions on discrete paths.

A block evaluates to the running sum of the product of its letters'
increments (the realized iterated bracket); a word evaluates by repeated
left-point integration: the running value so far, taken at the left end
of each cell, times the next block's increment, summed.  Both operations
are plain cumulative sums, so the quasi-shuffle identity

    value(u) * value(v) = value(qsh(u, v))

holds exactly on every path, with no discretization error; floating
point round-off is the only noise.

A word's running path is a left-point integral of its parent prefix's
path, I_{w.b} = int I_w dX^b, so the Evaluator builds each word from its
parent: it keeps a stack holding the running paths of the last word's
prefixes, keeps the longest prefix the next word shares with it, and
adds one cumulative sum per block beyond that.  Words asked for in
sorted block order (Evaluator.terminals) are a depth-first walk of their
prefix trie, with one cumulative sum per distinct prefix.  At most
len(word) path arrays are live at a time.

A row-major cumulative sum is latency-bound: each element waits for the
one before it.  So Evaluator.terminals has a second route for wide
inputs, used when rows x (distinct nonempty prefixes of the words not
cached yet) is at least _SWEEP_WIDTH.  It sweeps the cells in time order
and, at each cell, updates the running value of every trie node on every
row at once: I_{w.b} += P_b * I_w, with the parent's value taken at the
left end of the cell.  Each running value sees the same products and the
same additions, in the same order, as the cumulative sum that builds it
on the stack route, and the first cell is assigned rather than added to
zero, as cumsum's first element is; so both routes give the same bits.
The sweep keeps one value per node and row, and no path array.  The
crossover was measured with the C10 words on 4 letters (ROADMAP.md);
below it the stack route is faster, since the sweep pays a few numpy
calls per cell whatever its width.

Each letter is held as one (rows, cells) array of its increments.  The
sweep reads the cells in chunks, in time order, each chunk one
(cells in the chunk, rows) array per letter, so Evaluator._streamed can
sweep increments that are never held whole, each chunk made as it is read
(the flow study's wide batches sweep the Euler recursion's dM so).

All core routines are shaped (..., cells): a batch axis in front
evaluates many Monte Carlo paths in one sweep.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import prod
from typing import Iterable, Union

import numpy as np

from ._config import FloatRangeError, _count, _finite, _typed
from .words import BracketWord, Expansion, WordLike, as_word, word_literal
from .paths import PathBundle


# A block's product is formed and summed a few rows at a time, about this
# many floats, so the cumsum reads it from cache and not from memory.
_CHUNK_FLOATS = 1 << 15
# terminals() sweeps the prefix trie cell by cell from this many
# (row, trie node) running values on
_SWEEP_WIDTH = 1024
# the sweep forms its block products for about this many floats' worth of
# cells at a time, so they are still in L2 when the cells read them
_SWEEP_FLOATS = 1 << 17


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Evaluator:
    """Evaluates words and expansions against one set of increment arrays.

    increments maps each letter to an array of finite per-cell increments,
    shaped (cells,) for one path or (batch, cells) for many.  Each array is
    held as it is.

    word_path builds a word's path from the running paths of its prefixes
    held on a stack, so at most len(longest word) path arrays are live.
    Those arrays are returned read-only: a caller cannot corrupt the words
    built on them later.  Word terminal values are cached as owned,
    read-only copies, which pin no path array.

    terminals takes one of two routes, with bit-identical results: the
    stack, for narrow inputs, or one cell-major sweep over the words'
    prefix trie once rows x trie nodes reaches _SWEEP_WIDTH.
    """

    def __init__(self, increments: Mapping[int, np.ndarray]):
        incs = {
            _count("letter", k): _finite(f"increments of letter {k}", v)
            for k, v in _typed("increments", increments, Mapping).items()
        }
        if not incs:
            raise ValueError("need at least one driver")
        shapes = {v.shape for v in incs.values()}
        if len(shapes) != 1:
            raise ValueError("drivers must share one grid shape")
        shape = shapes.pop()
        if not shape:
            raise ValueError(f"increments of letter {next(iter(incs))} need a cells axis")
        rows = prod(shape[:-1])
        self._bind(shape, {k: v.reshape(rows, shape[-1]) for k, v in incs.items()})

    @classmethod
    def _streamed(
        cls, shape: tuple, letters: Iterable[int], trie: dict, words: list, chunks
    ) -> "Evaluator":
        """An evaluator of the letters' increments, shaped shape, holding
        only the sorted words' terminals, with trie their prefix trie; no
        letter's increments are ever held whole.

        chunks yields the cells in time order, as _sweep reads them, and
        the words are swept from each chunk as it comes.  Nothing in the
        chunks is checked: a flow batch feeds its Euler recursion's dM
        entries, which the check of that recursion's product covers.
        """
        ev = cls.__new__(cls)
        ev._bind(shape, dict.fromkeys(letters))
        ev._sweep(trie, words, chunks)
        return ev

    def _bind(self, shape: tuple, incs: dict) -> None:
        """Hold each letter's increments as (rows, cells), or None for a
        letter whose increments are only streamed."""
        self.shape = shape
        rows, cells = prod(shape[:-1]), shape[-1]
        self._incs = incs
        # the row chunks blocks are built in
        step = max(1, _CHUNK_FLOATS // max(cells, 1))
        self._chunks = [slice(r, r + step) for r in range(0, rows, step)]
        self._terminal_cache: dict[BracketWord, np.ndarray] = {}
        # the last word's blocks, and the running path of each of its prefixes
        self._blocks: list[tuple] = []
        self._paths: list[np.ndarray] = []

    @classmethod
    def from_bundle(cls, bundle: PathBundle) -> "Evaluator":
        if not isinstance(bundle, PathBundle):
            raise TypeError(
                f"expected a PathBundle, not {type(bundle).__name__}; "
                "wrap a {letter: SamplePath} mapping in PathBundle(mapping)"
            )
        return cls({l: bundle[l].increments() for l in bundle.letters()})

    def _letters(self, block) -> list:
        """The increments of the block's letters, in order."""
        try:
            return [self._incs[letter] for letter in block]
        except KeyError as e:
            raise ValueError(f"letter {e.args[0]} is not bound to a path") from None

    def _extend(self, block, parent: np.ndarray | None) -> np.ndarray:
        """Running path of the parent prefix's word followed by block.

        Per cell: the block's letter increments multiplied in order, then
        by the parent's value at the left end of the cell (None stands for
        the empty word, all ones), then summed.  Chunking by rows changes
        no element's operations or their order.
        """
        incs = self._letters(block)
        rows, cells = incs[0].shape
        path = np.empty((rows, cells + 1))
        path[:, 0] = 0.0
        for r in self._chunks:
            step = incs[0][r]
            for inc in incs[1:]:
                step = step * inc[r]
            if parent is not None:
                step = step * parent[r, :-1]
            np.cumsum(step, axis=-1, out=path[r, 1:])
        return _read_only(path)

    def _descend(self, w: BracketWord) -> None:
        """Leave the running paths of w's nonempty prefixes on the stack."""
        blocks, paths = self._blocks, self._paths
        keep = 0
        for a, b in zip(blocks, w):
            if a != b:
                break
            keep += 1
        del blocks[keep:], paths[keep:]
        for b in w[keep:]:
            paths.append(self._extend(b, paths[-1] if paths else None))
            blocks.append(b)

    def word_path(self, w: WordLike) -> np.ndarray:
        """Full running path of the word's iterated integral, read-only."""
        w = as_word(w)
        self._descend(w)
        shape = self.shape[:-1] + (self.shape[-1] + 1,)
        if w:
            return self._paths[-1].reshape(shape)
        return _read_only(np.ones(shape))

    def word_terminal(self, w: WordLike) -> np.ndarray:
        """Terminal value(s) of the word's iterated integral, cached."""
        w = as_word(w)
        hit = self._terminal_cache.get(w)
        if hit is None:
            hit = _read_only(self.word_path(w)[..., -1].copy())
            self._terminal_cache[w] = hit
        return hit

    def terminals(self, words: Iterable[WordLike]) -> list[np.ndarray]:
        """Terminal values of the words, in the order given.

        When every word is cached, the cached values are returned as they
        are.  Otherwise the words not cached yet are evaluated in sorted
        block order, where every prefix comes before its extensions: on
        the stack, so each word's parent is on it when the word is built,
        or, for wide inputs, in one sweep over their prefix trie.
        """
        words = [as_word(w) for w in words]
        cache = self._terminal_cache
        try:
            return [cache[w] for w in words]
        except KeyError:  # some word is not cached yet
            pass
        todo = sorted({w for w in words if w not in cache})
        trie = _prefix_trie(todo)
        if _sweeps(prod(self.shape[:-1]), trie):
            self._sweep(trie, todo, [{k: inc.T for k, inc in self._incs.items()}])
        else:
            for w in todo:
                self.word_terminal(w)
        return [cache[w] for w in words]

    def _sweep(self, trie: dict[tuple, int], words: list[BracketWord], chunks) -> None:
        """Cache the words' terminals from one pass over the cells.

        chunks yields the cells in time order, a chunk at a time, each
        chunk a {letter: (cells in the chunk, rows) array} dict.  run holds
        each trie node's running value on each row, at the left end of the
        current cell; node 0 is the empty word, all ones.  Per cell, every
        node's parent value is gathered, multiplied by the node's block
        product (its letters' increments multiplied in order) and added to
        the node's value.  Where chunks split the cells changes no value's
        operations.  An unbound letter raises before any chunk is read,
        with nothing cached.
        """
        nodes = list(trie)[1:]
        # blocks, and their letters, in the order the stack route would first
        # build them, so an unbound letter is reported as that route reports it
        blocks = {b: k for k, b in enumerate(dict.fromkeys(key[-1] for key in nodes))}
        letters = dict.fromkeys(letter for b in blocks for letter in b)
        self._letters(letters)
        parent = np.array([trie[key[:-1]] for key in nodes], dtype=np.intp)
        block = np.array([blocks[key[-1]] for key in nodes], dtype=np.intp)
        rows, cells = prod(self.shape[:-1]), self.shape[-1]
        run = np.zeros((len(trie), rows))
        run[0] = 1.0
        values = run[1:]
        gathered, factor = np.empty_like(values), np.empty_like(values)
        step = max(1, _SWEEP_FLOATS // max(len(blocks) * rows, 1))
        products = np.empty((min(step, cells), len(blocks), rows))
        swept = 0  # cells before the current chunk
        for chunk in chunks:
            end = len(next(iter(chunk.values())))
            for c0 in range(0, end, step):
                c1 = min(c0 + step, end)
                # each letter's cells made contiguous once, for every block on it
                incs = {letter: np.ascontiguousarray(chunk[letter][c0:c1]) for letter in letters}
                for b, k in blocks.items():
                    out = products[: c1 - c0, k]
                    np.copyto(out, incs[b[0]])
                    for letter in b[1:]:
                        np.multiply(out, incs[letter], out=out)
                for i in range(c1 - c0):
                    # mode="clip" writes straight into out; "raise" buffers it.
                    # The methods skip np.take's Python wrapper, ~1 us a call.
                    run.take(parent, axis=0, out=gathered, mode="clip")
                    products[i].take(block, axis=0, out=factor, mode="clip")
                    np.multiply(gathered, factor, out=gathered)
                    if swept + c0 + i:
                        np.add(values, gathered, out=values)
                    else:  # as cumsum's out[0] = x[0]: 0 + x would lose a -0.0
                        values[...] = gathered
            swept += end
            chunk = incs = None  # freed before the next chunk is made
        shape = self.shape[:-1]
        for w in words:
            self._terminal_cache[w] = _read_only(run[trie[w]].reshape(shape).copy())

    def __call__(self, e: Union[Expansion, WordLike]) -> np.ndarray:
        """Terminal value of an expansion: rationals become floats here.

        A coefficient past the float range raises FloatRangeError naming its word.
        """
        if not isinstance(e, Expansion):
            return self.word_terminal(e)
        words, nums, den = e.support(), e._flat(), e._den
        out = np.zeros(self.shape[:-1])
        # one term at a time, in support order: a vectorised sum would add
        # in another order and change the bits
        for w, value in zip(words, self.terminals(words)):
            # int division is correctly rounded, whether den is the least or not
            try:
                c = nums[w] / den
            except OverflowError:
                raise FloatRangeError(
                    f"the coefficient of {word_literal(w)} is past the float range"
                ) from None
            out = out + c * value
        return out


def _sweeps(rows: int, trie: dict[tuple, int]) -> bool:
    """Whether the words of trie are swept, not built on the stack: rows x
    trie nodes past the empty word reaches _SWEEP_WIDTH."""
    return rows * (len(trie) - 1) >= _SWEEP_WIDTH


def _prefix_trie(words: Iterable[BracketWord]) -> dict[tuple, int]:
    """A slot for every prefix of the words, the empty one first.

    Slots are given in the order the words' prefixes are first met, so
    for sorted words every prefix's slot comes before its extensions'.
    """
    trie: dict[tuple, int] = {(): 0}
    for w in words:
        for i in range(1, len(w) + 1):
            trie.setdefault(w[:i], len(trie))
    return trie
