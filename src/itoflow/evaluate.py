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

All core routines are shaped (..., cells): a batch axis in front
evaluates many Monte Carlo paths in one sweep.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Mapping, Union

import numpy as np

from .words import BracketWord, Expansion, WordLike, as_word
from .paths import PathBundle, SamplePath


# A block's product is formed and summed a few rows at a time, about this
# many floats, so the cumsum reads it from cache and not from memory.
_CHUNK_FLOATS = 1 << 15


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Evaluator:
    """Evaluates words and expansions against one set of increment arrays.

    increments maps each letter to an array of finite per-cell increments,
    shaped (cells,) for one path or (batch, cells) for many.

    word_path builds a word's path from the running paths of its prefixes
    held on a stack, so at most len(longest word) path arrays are live.
    Those arrays are returned read-only: a caller cannot corrupt the words
    built on them later.  Word terminal values are cached as owned,
    read-only copies, which pin no path array.
    """

    def __init__(self, increments: Mapping[int, np.ndarray]):
        incs = {int(k): np.asarray(v, dtype=np.float64) for k, v in increments.items()}
        if not incs:
            raise ValueError("need at least one driver")
        shapes = {v.shape for v in incs.values()}
        if len(shapes) != 1:
            raise ValueError("drivers must share one grid shape")
        for letter, inc in incs.items():
            if not np.isfinite(inc).all():
                raise ValueError(f"increments of letter {letter} are not all finite")
        self.shape = shapes.pop()
        rows, cells = prod(self.shape[:-1]), self.shape[-1]
        # the increments as (rows, cells), and the row chunks blocks are built in
        self._inc = {k: v.reshape(rows, cells) for k, v in incs.items()}
        step = max(1, _CHUNK_FLOATS // max(cells, 1))
        self._chunks = [slice(r, r + step) for r in range(0, rows, step)]
        self._terminal_cache: dict[BracketWord, np.ndarray] = {}
        # the last word's blocks, and the running path of each of its prefixes
        self._blocks: list[tuple] = []
        self._paths: list[np.ndarray] = []

    @classmethod
    def from_bundle(cls, bundle: PathBundle) -> "Evaluator":
        return cls({l: bundle[l].increments() for l in bundle.letters()})

    @classmethod
    def from_paths(cls, paths: Mapping[int, SamplePath]) -> "Evaluator":
        grids = list(paths.values())
        for p in grids[1:]:
            if not grids[0].same_grid(p):
                raise ValueError("paths must share a grid")
        return cls({l: p.increments() for l, p in paths.items()})

    def _extend(self, block, parent: np.ndarray | None) -> np.ndarray:
        """Running path of the parent prefix's word followed by block.

        Per cell: the block's letter increments multiplied in order, then
        by the parent's value at the left end of the cell (None stands for
        the empty word, all ones), then summed.  Chunking by rows changes
        no element's operations or their order.
        """
        try:
            incs = [self._inc[letter] for letter in block]
        except KeyError as e:
            raise KeyError(f"letter {e.args[0]} is not bound to a path") from None
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

        The words not cached yet are evaluated in sorted block order,
        where every prefix comes before its extensions, so each word's
        parent is on the stack when the word is built.
        """
        words = [as_word(w) for w in words]
        cache = self._terminal_cache
        for w in sorted({w for w in words if w not in cache}):
            self.word_terminal(w)
        return [cache[w] for w in words]

    def __call__(self, e: Union[Expansion, WordLike]) -> np.ndarray:
        """Terminal value of an expansion: rationals become floats here."""
        if not isinstance(e, Expansion):
            return self.word_terminal(e)
        terms = list(e)
        out = np.zeros(self.shape[:-1])
        for (_, c), value in zip(terms, self.terminals(w for w, _ in terms)):
            out = out + float(c) * value
        return out


Binding = Union[PathBundle, Mapping[int, SamplePath]]


def _evaluator(binding: Binding) -> Evaluator:
    if isinstance(binding, PathBundle):
        return Evaluator.from_bundle(binding)
    return Evaluator.from_paths(binding)


def evaluate(e: Union[Expansion, WordLike], binding: Binding) -> float:
    """Terminal value of an expansion or word on one path set."""
    out = _evaluator(binding)(e)
    return float(out)


def evaluate_path(w: WordLike, binding: Binding) -> np.ndarray:
    """Full running path of one word on one path set."""
    return _evaluator(binding).word_path(w)
