"""Pathwise evaluation of bracket words on discretized drivers."""

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itoflow.evaluate as evaluate_module
import itoflow.flows as flows_module
from itoflow import (
    BracketWord,
    DriverAlphabet,
    DriverSpec,
    Evaluator,
    Expansion,
    FloatRangeError,
    FlowProblem,
    SamplePath,
    PathBundle,
    compare_flows,
    linear_field_log,
    make_grid,
    matrix_ito_taylor,
    matrix_log,
    qsh,
    simulate_bundle,
)
from itoflow.flows import _evaluate_matrix, brownian_increments
from itoflow.verify import flow_problem, words_up_to


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
                raise ValueError(f"letter {letter} is not bound to a path") from None
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
            for w in e.support()
        }
    )


# the words over the letters 1, 2, 3, by weight (weight 0 is the empty word)
CALL_WORDS = words_up_to(4)


# values of the terminals route's crossover that force the sweep or the stack
SWEEP, STACK = 0, 1 << 62


@contextmanager
def terminals_route(width, sweep_floats=None):
    """Evaluator.terminals with the crossover, and the sweep's chunk, set."""
    floats = evaluate_module._SWEEP_FLOATS if sweep_floats is None else sweep_floats
    with mock.patch.multiple(evaluate_module, _SWEEP_WIDTH=width, _SWEEP_FLOATS=floats):
        yield


def refuse(*args, **kwargs):
    raise AssertionError("the other route was taken")


def two_step_bundle(a1, a2, b1, b2):
    grid = [0.0, 1.0, 2.0]
    x = SamplePath(grid, [0.0, a1, a1 + a2])
    y = SamplePath(grid, [0.0, b1, b1 + b2])
    return PathBundle({1: x, 2: y})


class TestHandComputed:
    def test_single_letter_is_terminal(self):
        b = two_step_bundle(1.0, 2.0, 0.5, -0.5)
        assert Evaluator.from_bundle(b)(Expansion.of(BracketWord([(1,)]))) == 3.0

    def test_two_letter_word_uses_left_endpoints(self):
        # integral of x dy on two cells: x_0 b1 + x_1 b2 = a1 * b2
        b = two_step_bundle(2.0, 9.0, 7.0, 3.0)
        path = Evaluator.from_bundle(b).word_path(BracketWord([(1,), (2,)]))
        assert path[-1] == pytest.approx(6.0)

    def test_bracket_block_is_increment_product_sum(self):
        b = two_step_bundle(2.0, 3.0, 5.0, 7.0)
        # [x, y] accumulates a1*b1 + a2*b2 = 10 + 21
        assert Evaluator.from_bundle(b)(Expansion.of(BracketWord([(1, 2)]))) == pytest.approx(31.0)

    def test_unit_word_is_one(self):
        b = two_step_bundle(1.0, 1.0, 1.0, 1.0)
        assert Evaluator.from_bundle(b)(Expansion.unit()) == 1.0

    def test_word_path_starts_at_indicator(self):
        b = two_step_bundle(1.0, 1.0, 1.0, 1.0)
        ev = Evaluator.from_bundle(b)
        assert ev.word_path(BracketWord([(1,)]))[0] == 0.0
        unit_path = ev.word_path(BracketWord([]))
        assert unit_path[0] == 1.0


class TestBundleOnly:
    @pytest.mark.parametrize(
        "route",
        [
            lambda w, b: Evaluator.from_bundle(b)(w),
            pytest.param(lambda w, b: Evaluator.from_bundle(b).word_path(w), id="evaluate_path"),
        ],
    )
    @pytest.mark.parametrize(
        "binding",
        [
            {1: SamplePath([0.0, 1.0], [0.0, 2.0])},
            {1: np.array([2.0])},
            [SamplePath([0.0, 1.0], [0.0, 2.0])],
        ],
    )
    def test_anything_but_a_bundle_is_a_type_error(self, route, binding):
        with pytest.raises(TypeError, match=r"PathBundle\(mapping\)"):
            route(BracketWord([(1,)]), binding)


class TestQuasiShuffleIdentityNumerically:
    @pytest.mark.parametrize("steps", [16, 256])
    def test_product_rule_brownian(self, steps):
        grid = make_grid(1.0, steps)
        specs = {1: DriverSpec("brownian", sigma=1.0), 2: DriverSpec("brownian", sigma=0.5)}
        bundle = simulate_bundle(specs, grid, seed=9, path_index=0)
        u = BracketWord([(1,), (2,)])
        v = BracketWord([(1,)])
        ev = Evaluator.from_bundle(bundle)
        lhs = ev(qsh(u, v))
        rhs = ev(Expansion.of(u)) * ev(Expansion.of(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_square_of_single_letter(self):
        b = two_step_bundle(3.0, 4.0, 0.0, 0.0)
        ev = Evaluator.from_bundle(b)
        total = ev(Expansion.of(BracketWord([(1,)])))
        sq = ev(qsh(BracketWord([(1,)]), BracketWord([(1,)])))
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
        with pytest.raises(ValueError, match="letter 5"):
            ev.word_terminal(BracketWord([(5,)]))

    def test_expansion_with_rational_coefficients(self):
        b = two_step_bundle(1.0, 2.0, 3.0, 4.0)
        e = Fraction(1, 3) * Expansion.of(BracketWord([(1,)]))
        assert Evaluator.from_bundle(b)(e) == pytest.approx(1.0)

    @pytest.mark.parametrize("coeff", [10**400, Fraction(-(10**400), 3)], ids=["int", "Fraction"])
    def test_coefficient_past_the_float_range_is_named(self, coeff):
        ev = Evaluator({1: np.array([0.5, 0.25])})
        e = Expansion([(BracketWord.from_letters(1), 1), (BracketWord([(1,), (1, 1)]), coeff)])
        with pytest.raises(FloatRangeError, match=r"coefficient of 1\.\[1,1\] is past the float range"):
            ev(e)

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

    @pytest.mark.parametrize(
        "increments",
        [
            {1: np.ones(4), "1": 2 * np.ones(4)},
            {1.7: np.ones(4)},
            {True: np.ones(4)},
            {0: np.ones(4)},
            {-3: np.ones(4)},
        ],
        ids=["int-and-str", "float", "bool", "zero", "negative"],
    )
    def test_letters_are_positive_ints(self, increments):
        with pytest.raises(ValueError, match="letter must be"):
            Evaluator(increments)

    def test_numpy_letters_are_read_as_ints(self):
        ev = Evaluator({np.int64(1): np.ones(4), np.int32(2): 2 * np.ones(4)})
        assert ev.word_terminal(BracketWord.from_letters(2)) == 8.0
        assert ev.word_terminal(BracketWord.from_letters(1)) == 4.0

    @pytest.mark.parametrize("increments", [float("nan"), [1], None, np.zeros(3)])
    def test_increments_of_another_type_are_refused(self, increments):
        with pytest.raises(TypeError, match="increments must be Mapping"):
            Evaluator(increments)


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
                with pytest.raises(ValueError, match=message):
                    method(w)
                continue
            expected = reference_word_path(inc, w)
            if kind == "terminal":
                expected = expected[..., -1]
            got = method(w)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def cached_call(self, inc, e):
        """ev(e) on a one-row evaluator that already holds every word."""
        ev = Evaluator(inc)
        ev.terminals(e.support())
        with mock.patch.object(Evaluator, "_extend", refuse), mock.patch.object(
            Evaluator, "_sweep", refuse
        ):
            return ev(e)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.sampled_from([None, 1]),
        n_terms=st.integers(min_value=8, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cached_call_is_bit_identical(self, batch, n_terms, seed):
        """Terms are added one at a time, in support order: a pairwise or
        vectorised sum rounds in another order."""
        shape = (64,) if batch is None else (batch, 64)
        rng = np.random.default_rng(seed)
        inc = {x: rng.normal(scale=10.0 ** rng.integers(-3, 2), size=shape) for x in (1, 2, 3)}
        pool = [w for weight in range(1, 5) for w in CALL_WORDS[weight]]
        chosen = rng.choice(len(pool), size=n_terms, replace=False)
        numerators = rng.integers(1, 50, size=n_terms) * rng.choice([-1, 1], size=n_terms)
        denominators = rng.integers(1, 7, size=n_terms)
        e = Expansion(
            (pool[k], Fraction(int(a), int(b)))
            for k, a, b in zip(chosen, numerators, denominators)
        )
        got, expected = self.cached_call(inc, e), reference_value(inc, e)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_cached_call_of_negative_zeros_is_a_positive_zero(self):
        """Every term is -0.0: letter 1 moves by -0.0 on every cell and the
        prefixes before it are never negative.  The sum starts from 0.0, and
        0.0 + -0.0 is 0.0; a sum that starts from its first term keeps -0.0."""
        inc = {1: np.full((1, 5), -0.0), 2: np.full((1, 5), 0.5), 3: np.full((1, 5), 2.0)}
        prefixes = [BracketWord()] + CALL_WORDS[1] + CALL_WORDS[2]
        e = Expansion(
            (p + BracketWord.from_letters(1), 1)
            for p in prefixes
            if all(1 not in b for b in p)
        )
        assert len(e) >= 8
        got, expected = self.cached_call(inc, e), reference_value(inc, e)
        assert expected.tobytes() == np.zeros(1).tobytes()
        assert got.tobytes() == expected.tobytes()

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
        got = _evaluate_matrix(me.entries, Evaluator(inc), "log series")
        for i in range(2):
            for j in range(2):
                assert np.array_equal(got[:, i, j], reference_value(inc, me.entries[i][j]))

    @pytest.mark.parametrize("width", [STACK, SWEEP], ids=["stack", "sweep"])
    def test_a_one_path_grid_is_row_0_of_a_batch(self, width):
        # a grid is any square of expansions: a MatrixExpansion's entries,
        # or linear_field_log's rows over the letters 1-4
        inc = random_increments(12, (2, 300), letters=(1, 2, 3, 4))
        alphabet = DriverAlphabet(2, continuous=False, cross_brackets_zero=False)
        fields = linear_field_log(alphabet, 3, {1: [[0, 1], [1, 0]], 2: [[1, 2], [0, -1]]})
        for grid in (matrix_log(2, 3).entries, fields):
            with terminals_route(width):
                one = _evaluate_matrix(grid, Evaluator({k: v[0] for k, v in inc.items()}), "one")
                two = _evaluate_matrix(grid, Evaluator(inc), "two")
            assert one.shape == (2, 2) and two.shape == (2, 2, 2)
            assert one.tobytes() == two[0].tobytes()


# words over the bound letters 1-3
sweep_blocks = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
sweep_words = st.lists(sweep_blocks.map(lambda ls: tuple(sorted(ls))), max_size=4).map(
    BracketWord
)


class TestSweepAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.sampled_from([None, 1, 3]),
        cells=st.sampled_from([1, 2, 7, 33]),
        # 1 float is one cell per chunk; 64 and 512 give a few cells per
        # chunk, rarely dividing the cell count; the default is one chunk
        sweep_floats=st.sampled_from([1, 64, 512, None]),
        zero_letter=st.sampled_from([None, 1, 3]),
        seed=st.integers(min_value=0, max_value=2**16),
        words=st.lists(sweep_words, min_size=1, max_size=10),
    )
    # block (1,1) comes before its prefix block (1,) in trie order, so a
    # product grown from its prefix's must wait for that prefix to be formed
    @example(
        batch=3, cells=7, sweep_floats=None, zero_letter=None, seed=0,
        words=[BracketWord([(1, 1), (1,), (1, 1)])],
    )
    def test_terminals_are_bit_identical(
        self, batch, cells, sweep_floats, zero_letter, seed, words
    ):
        shape = (cells,) if batch is None else (batch, cells)
        inc = random_increments(seed, shape)
        if zero_letter is not None:
            # signed zeros: a -0.0 lost to 0.0 + -0.0 shows in the bytes
            inc[zero_letter] = np.random.default_rng(seed).choice([0.0, -0.0], size=shape)
        asked = words + words[::-1] + [BracketWord()]
        ev = Evaluator(inc)
        with terminals_route(SWEEP, sweep_floats), mock.patch.object(
            Evaluator, "_extend", refuse
        ):
            got = ev.terminals(asked)
        for w, value in zip(asked, got):
            expected = reference_word_path(inc, w)[..., -1]
            assert value.shape == expected.shape
            assert value.tobytes() == expected.tobytes()
            assert value.base is None
            assert not value.flags.writeable

    def test_unbound_letter_is_reported_as_on_the_stack(self):
        inc = random_increments(4, (3, 5), letters=(1, 2))
        # in sorted order the stack caches (1) and then fails on block (6),
        # which sorts after the unbound block (5)
        words = [BracketWord([(5,)]), BracketWord([(1,), (6,)]), BracketWord([(1,)])]
        messages = []
        for width in (STACK, SWEEP):
            ev = Evaluator(inc)
            with terminals_route(width), pytest.raises(ValueError) as err:
                ev.terminals(words)
            messages.append(err.value.args[0])
        assert messages == ["letter 6 is not bound to a path"] * 2
        assert ev._terminal_cache == {}

    def test_an_unbound_letter_raises_before_any_cell_is_swept(self):
        # 512 rows x 2 trie nodes is past the crossover.  A streamed batch
        # binds the letters its words read, so only a held batch can miss
        # one; reading the missing letter's cells would raise KeyError
        ev = Evaluator(random_increments(4, (512, 3)))
        words = [BracketWord([(1,), (2, 4)])]
        with mock.patch.object(Evaluator, "_extend", refuse), pytest.raises(
            ValueError, match="^letter 4 is not bound to a path$"
        ):
            ev.terminals(words)
        assert ev._terminal_cache == {}

    @pytest.mark.parametrize(
        "shape, unused",
        # 64 x 166 C10 trie nodes is past the crossover; 4 x 166 and 1 x 166
        # are not
        [((64, 4096), "_extend"), ((4, 256), "_sweep"), ((256,), "_sweep")],
    )
    def test_width_picks_the_route(self, monkeypatch, shape, unused):
        inc = random_increments(8, shape, letters=(1, 2, 3, 4))
        words = c10_words()
        with terminals_route(STACK):
            expected = Evaluator(inc).terminals(words)
        monkeypatch.setattr(Evaluator, unused, refuse)
        got = Evaluator(inc).terminals(words)
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("at", [False, True])
    def test_routes_agree_either_side_of_the_crossover(self, monkeypatch, rows, at):
        crossover = evaluate_module._SWEEP_WIDTH
        nodes = -(-crossover // rows) if at else (crossover - 1) // rows
        # a prefix-closed pool in sorted order: each word adds one trie node
        pool = sorted(w for ws in words_up_to(6).values() for w in ws if w)
        words = pool[:nodes]
        assert len(evaluate_module._prefix_trie(words)) - 1 == nodes
        assert (rows * nodes >= crossover) == at
        inc = random_increments(9, (rows, 24))
        with terminals_route(STACK if at else SWEEP):
            other = Evaluator(inc).terminals(words)
        monkeypatch.setattr(Evaluator, "_extend" if at else "_sweep", refuse)
        got = Evaluator(inc).terminals(words)
        assert [g.tobytes() for g in got] == [o.tobytes() for o in other]


class TestStreamedSweep:
    """Evaluator._streamed sweeps the per-letter chunks it is fed, in time
    order, to the bits of the oracle on the whole increments."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.sampled_from([1, 3]),
        cells=st.sampled_from([1, 2, 7, 33]),
        # where the chunks end, past the first cell
        cuts=st.sets(st.integers(1, 32), max_size=4),
        sweep_floats=st.sampled_from([1, 64, 512, None]),
        seed=st.integers(min_value=0, max_value=2**16),
        words=st.lists(sweep_words, min_size=1, max_size=10),
    )
    def test_streamed_terminals_are_bit_identical(
        self, batch, cells, cuts, sweep_floats, seed, words
    ):
        inc = random_increments(seed, (batch, cells))
        ends = [0, *sorted(c for c in cuts if c < cells), cells]
        words = sorted(set(words))
        # each chunk holds every letter's cells in it, as a contiguous
        # (cells, rows) array
        chunks = (
            {k: np.ascontiguousarray(v[:, a:b].T) for k, v in inc.items()}
            for a, b in zip(ends, ends[1:])
        )
        with terminals_route(SWEEP, sweep_floats), mock.patch.object(
            Evaluator, "_extend", refuse
        ):
            streamed = Evaluator._streamed((batch, cells), words, chunks)
        got = streamed.terminals(words)
        expected = [reference_word_path(inc, w)[..., -1] for w in words]
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


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
        # 8 rows x 166 trie nodes, on the stack route
        shape = (8, 4096)
        ev = Evaluator(random_increments(3, shape, letters=(1, 2, 3, 4)))
        words = c10_words()
        assert len(words) == 160
        path_bytes = 8 * shape[0] * (shape[1] + 1)
        tracemalloc.start()
        try:
            with terminals_route(STACK):
                ev.terminals(words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a cache of word_path(w)[..., -1] views would pin one full path per
        # word: more than 160 paths here
        assert peak < 12 * path_bytes

    def test_c10_sweep_peaks_below_two_paths(self, monkeypatch):
        shape = (64, 4096)
        ev = Evaluator(random_increments(3, shape, letters=(1, 2, 3, 4)))
        monkeypatch.setattr(Evaluator, "_extend", refuse)
        path_bytes = 8 * shape[0] * (shape[1] + 1)
        tracemalloc.start()
        try:
            ev.terminals(c10_words())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sweep keeps one running value per trie node and row, and block
        # products for a chunk of cells: no path array
        assert peak < 2 * path_bytes

    def test_flow_batch_peaks_below_three_increments_arrays(self):
        # one C10 batch of 64 paths, past the sweep's crossover: it draws dW
        # a chunk of steps at a time, so it holds neither dW nor a whole
        # letter array, and dW's size is only the yardstick
        problem = FlowProblem(
            dim=2,
            drift=np.array([[0.0, 1.0], [0.0, 0.0]]),
            diffusion=np.array([[0.5, 0.0], [1.0, -0.5]]),
            horizon=0.1,
            steps=4096,
        )
        dW_bytes = brownian_increments(problem, 3, range(64)).nbytes
        compare_flows(problem, [1, 2, 3], 64, 3)  # memos and symbolic series warm
        tracemalloc.start()
        try:
            compare_flows(problem, [1, 2, 3], 64, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # it read 1.33x; dW whole, with its four letters formed whole, read about 9x
        assert peak < 3 * dW_bytes

    def test_a_narrow_flow_batch_peaks_below_two_dM_stacks(self, monkeypatch):
        # 6 rows of C10's words are below the sweep's crossover, so the batch
        # holds dW whole and forms one letter-major stack of its dim**2
        # letters, with no copy; with the stack route's word paths on them
        # it read 9.45x dW's size
        monkeypatch.setattr(flows_module, "_streamed_batch", refuse)
        problem = flow_problem(2**14)
        dW_bytes = brownian_increments(problem, 3, range(6)).nbytes
        compare_flows(problem, [1, 2, 3], 6, 3)  # memos and symbolic series warm
        tracemalloc.start()
        try:
            compare_flows(problem, [1, 2, 3], 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a third whole stack would add dim**2 more
        assert peak < (2 * problem.dim**2 + 2) * dW_bytes

    def test_a_streamed_flow_batch_peak_does_not_grow_with_its_steps(self):
        # 64 rows x C10's 166 trie nodes is past the sweep's crossover, so a
        # batch draws dW a chunk of steps at a time and holds none of it whole
        compare_flows(flow_problem(2**12), [1, 2, 3], 64, 3)  # memos and symbolic series warm
        peaks = []
        for steps in (2**12, 2**14):
            tracemalloc.start()
            try:
                compare_flows(flow_problem(steps), [1, 2, 3], 64, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # with a whole dW the peak read 3.8 MB at 2^12 steps and 10.1 MB at 2^14
        assert peaks[1] <= 1.2 * peaks[0]
