"""Pathwise evaluation of bracket words on discretized drivers."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    DriverSpec,
    Evaluator,
    Expansion,
    SamplePath,
    PathBundle,
    evaluate,
    evaluate_path,
    make_grid,
    matrix_ito_taylor,
    matrix_log,
    qsh,
    simulate_bundle,
)
from itoflow.flows import _evaluate_matrix


def reference_word_path(increments, w):
    """Oracle: every word rebuilt from the empty word's path, no sharing.

    For each block, the letters' increments are multiplied in order, then
    by the running path at the left end of each cell, then summed.
    """
    shape = next(iter(increments.values())).shape
    path = np.ones(shape[:-1] + (shape[-1] + 1,))
    for b in w:
        inc = None
        for letter in b:
            try:
                x = increments[letter]
            except KeyError:
                raise KeyError(f"letter {letter} is not bound to a path") from None
            inc = x.copy() if inc is None else inc * x
        step = path[..., :-1] * inc
        path = np.zeros(shape[:-1] + (shape[-1] + 1,))
        np.cumsum(step, axis=-1, out=path[..., 1:])
    return path


def reference_value(increments, e):
    """Oracle terminal of an expansion, summed in the evaluator's order."""
    shape = next(iter(increments.values())).shape
    out = np.zeros(shape[:-1])
    for w, c in e:
        out = out + float(c) * reference_word_path(increments, w)[..., -1]
    return out


def random_increments(seed, shape, letters=(1, 2, 3)):
    rng = np.random.default_rng(seed)
    return {x: rng.normal(scale=0.1, size=shape) for x in letters}


def c10_words():
    """Every word the C10 flow study evaluates (orders 1-3)."""
    return sorted(
        {
            w
            for me in (matrix_ito_taylor(2, 4), matrix_log(2, 3))
            for row in me.entries
            for e in row
            for w in e.words()
        }
    )


def two_step_bundle(a1, a2, b1, b2):
    grid = [0.0, 1.0, 2.0]
    x = SamplePath(grid, [0.0, a1, a1 + a2])
    y = SamplePath(grid, [0.0, b1, b1 + b2])
    return PathBundle({1: x, 2: y})


class TestHandComputed:
    def test_single_letter_is_terminal(self):
        b = two_step_bundle(1.0, 2.0, 0.5, -0.5)
        assert evaluate(Expansion.of_word(BracketWord([(1,)])), b) == 3.0

    def test_two_letter_word_uses_left_endpoints(self):
        # integral of x dy on two cells: x_0 b1 + x_1 b2 = a1 * b2
        b = two_step_bundle(2.0, 9.0, 7.0, 3.0)
        assert evaluate_path(BracketWord([(1,), (2,)]), b)[-1] == pytest.approx(6.0)

    def test_bracket_block_is_increment_product_sum(self):
        b = two_step_bundle(2.0, 3.0, 5.0, 7.0)
        # [x, y] accumulates a1*b1 + a2*b2 = 10 + 21
        assert evaluate(Expansion.of_word(BracketWord([(1, 2)])), b) == pytest.approx(
            31.0
        )

    def test_unit_word_is_one(self):
        b = two_step_bundle(1.0, 1.0, 1.0, 1.0)
        assert evaluate(Expansion.unit(), b) == 1.0

    def test_word_path_starts_at_indicator(self):
        b = two_step_bundle(1.0, 1.0, 1.0, 1.0)
        path = evaluate_path(BracketWord([(1,)]), b)
        assert path[0] == 0.0
        unit_path = evaluate_path(BracketWord([]), b)
        assert unit_path[0] == 1.0


class TestQuasiShuffleIdentityNumerically:
    @pytest.mark.parametrize("steps", [16, 256])
    def test_product_rule_brownian(self, steps):
        grid = make_grid(1.0, steps)
        specs = {1: DriverSpec.brownian(1.0), 2: DriverSpec.brownian(0.5)}
        bundle = simulate_bundle(specs, grid, seed=9, path_index=0)
        u = BracketWord([(1,), (2,)])
        v = BracketWord([(1,)])
        lhs = evaluate(qsh(u, v), bundle)
        rhs = evaluate(Expansion.of_word(u), bundle) * evaluate(
            Expansion.of_word(v), bundle
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_square_of_single_letter(self):
        b = two_step_bundle(3.0, 4.0, 0.0, 0.0)
        total = evaluate(Expansion.of_word(BracketWord([(1,)])), b)
        sq = evaluate(qsh(BracketWord([(1,)]), BracketWord([(1,)])), b)
        assert sq == pytest.approx(total**2)


class TestEvaluator:
    def test_terminal_caching_returns_same_array_values(self):
        b = two_step_bundle(1.0, 2.0, 3.0, 4.0)
        ev = Evaluator.from_bundle(b)
        w = BracketWord([(1,), (2,)])
        assert ev.word_terminal(w) == ev.word_terminal(w)

    def test_unbound_letter_message(self):
        b = two_step_bundle(1.0, 2.0, 3.0, 4.0)
        ev = Evaluator.from_bundle(b)
        with pytest.raises(KeyError, match="letter 5"):
            ev.word_terminal(BracketWord([(5,)]))

    def test_expansion_with_rational_coefficients(self):
        b = two_step_bundle(1.0, 2.0, 3.0, 4.0)
        e = Fraction(1, 3) * Expansion.of_word(BracketWord([(1,)]))
        assert evaluate(e, b) == pytest.approx(1.0)

    def test_batched_paths(self):
        # evaluator broadcasts over leading axes of the increment arrays
        incs = {1: np.array([[1.0, 2.0], [3.0, 4.0]])}
        ev = Evaluator(incs)
        out = ev.word_terminal(BracketWord([(1,)]))
        assert out.shape == (2,)
        assert np.allclose(out, [3.0, 7.0])

    def test_nonfinite_increments_are_refused(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="letter 2"):
                Evaluator({1: np.zeros(3), 2: np.array([0.0, bad, 1.0])})


# words over letters 1-4, of which only 1..n are bound; short, so blocks
# and whole prefixes repeat often
eval_letters = st.integers(min_value=1, max_value=4)
eval_blocks = st.lists(eval_letters, min_size=1, max_size=3).map(lambda ls: tuple(sorted(ls)))
eval_words = st.lists(eval_blocks, min_size=0, max_size=4).map(BracketWord)


class TestPrefixStackAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        n_letters=st.integers(min_value=1, max_value=3),
        batch=st.sampled_from([None, 1, 3, 5]),
        # 7000 cells: batches of 5 rows are evaluated in two row chunks
        cells=st.sampled_from([1, 2, 5, 9, 7000]),
        seed=st.integers(min_value=0, max_value=2**16),
        calls=st.lists(
            st.tuples(eval_words, st.sampled_from(["path", "terminal"])),
            min_size=1,
            max_size=12,
        ),
    )
    def test_paths_and_terminals_are_bit_identical(self, n_letters, batch, cells, seed, calls):
        shape = (cells,) if batch is None else (batch, cells)
        inc = random_increments(seed, shape, letters=range(1, n_letters + 1))
        ev = Evaluator(inc)
        for w, kind in calls:
            unbound = [x for b in w for x in b if x > n_letters]
            method = ev.word_path if kind == "path" else ev.word_terminal
            if unbound:
                message = f"letter {unbound[0]} is not bound to a path"
                with pytest.raises(KeyError, match=message):
                    method(w)
                continue
            expected = reference_word_path(inc, w)
            if kind == "terminal":
                expected = expected[..., -1]
            got = method(w)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_terminals_keep_the_order_asked(self):
        inc = random_increments(5, (2, 17))
        ev = Evaluator(inc)
        words = [BracketWord([(2,), (1, 3)]), BracketWord([]), BracketWord([(2,)])] * 2
        for got, w in zip(ev.terminals(words), words):
            assert np.array_equal(got, reference_word_path(inc, w)[..., -1])

    def test_matrix_log_entries_equal_the_oracle(self):
        # 9000 cells: the 5 rows are evaluated in chunks of 3 and 2
        inc = random_increments(11, (5, 9000), letters=(1, 2, 3, 4))
        me = matrix_log(2, 3)
        got = _evaluate_matrix(me, Evaluator(inc), 5)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(got[:, i, j], reference_value(inc, me.entries[i][j]))


class TestMemory:
    def test_paths_are_read_only(self):
        ev = Evaluator(random_increments(1, (2, 8)))
        for w in (BracketWord([]), BracketWord([(1,)]), BracketWord([(1,), (2, 3)])):
            path = ev.word_path(w)
            with pytest.raises(ValueError, match="read-only"):
                path[..., 0] = 5.0

    def test_cached_terminals_own_their_data(self):
        for shape in ((8,), (3, 8)):
            ev = Evaluator(random_increments(2, shape))
            for w in (BracketWord([(1,), (2,)]), BracketWord([])):
                terminal = ev.word_terminal(w)
                assert terminal.base is None
                assert not terminal.flags.writeable

    def test_c10_words_peak_below_twelve_paths(self):
        shape = (8, 4096)
        ev = Evaluator(random_increments(3, shape, letters=(1, 2, 3, 4)))
        words = c10_words()
        assert len(words) == 160
        path_bytes = 8 * shape[0] * (shape[1] + 1)
        tracemalloc.start()
        try:
            ev.terminals(words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a cache of word_path(w)[..., -1] views would pin one full path per
        # word: more than 160 paths here
        assert peak < 12 * path_bytes
