"""Quasi-shuffle product: axioms, half-shuffle splitting, surjection route."""

import ast
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from itoflow import (
    UNIT_WORD,
    BracketWord,
    CapExceeded,
    Expansion,
    bullet,
    qsh,
    qsh_via_surjections,
    shuffle,
    shuffle_projection,
    half_down,
    half_up,
    caps,
    parse_word,
)
from itoflow import kernels, quasishuffle
from itoflow._config import DEFAULT_WEIGHT_CAP
from itoflow.verify import words_up_to

letters = st.integers(min_value=1, max_value=3)
blocks = st.lists(letters, min_size=1, max_size=2).map(lambda ls: tuple(sorted(ls)))
words = st.lists(blocks, min_size=0, max_size=3).map(BracketWord)
nonempty_words = st.lists(blocks, min_size=1, max_size=3).map(BracketWord)
small_words = st.lists(blocks, min_size=1, max_size=2).map(BracketWord)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# multi-term expansions whose words differ in weight
expansions = st.lists(st.tuples(words, coeffs), min_size=1, max_size=4).map(Expansion)
nonempty_expansions = st.lists(
    st.tuples(nonempty_words, coeffs), min_size=1, max_size=4
).map(Expansion)


def test_known_product_one_letter_each():
    # (1) qsh (2) = (1)(2) + (2)(1) + ([1,2])
    result = qsh(BracketWord.from_letters(1), BracketWord.from_letters(2))
    assert result == Expansion(
        {
            BracketWord([(1,), (2,)]): Fraction(1),
            BracketWord([(2,), (1,)]): Fraction(1),
            BracketWord([(1, 2)]): Fraction(1),
        }
    )


def test_known_product_square():
    # (1) qsh (1) = 2 (1)(1) + ([1,1])
    result = qsh(BracketWord.from_letters(1), BracketWord.from_letters(1))
    assert result == Expansion(
        {
            BracketWord([(1,), (1,)]): Fraction(2),
            BracketWord([(1, 1)]): Fraction(1),
        }
    )


def test_known_product_two_by_one_term_count():
    # (1)(2) qsh (3): three interleavings plus two merges, all coefficient 1
    result = qsh(BracketWord.from_letters(1, 2), BracketWord.from_letters(3))
    assert len(result) == 5
    assert all(c == 1 for _, c in result)
    assert BracketWord([(1,), (2, 3)]) in result
    assert BracketWord([(1, 3), (2,)]) in result


def test_unit():
    w = BracketWord([(1,), (2, 3)])
    assert qsh(UNIT_WORD, w) == Expansion.of(w)
    assert qsh(w, UNIT_WORD) == Expansion.of(w)


@pytest.mark.parametrize("max_weight", [None, 0, 3])
def test_no_operand_is_the_unit(max_weight):
    assert qsh(max_weight=max_weight) == Expansion.unit()


def test_accepts_expansions_and_words():
    w = BracketWord.from_letters(1)
    e = Expansion.of(w)
    assert qsh(w, e) == qsh(e, w) == qsh(w, w)


def test_variadic_folds_left():
    a, b, c = (BracketWord.from_letters(i) for i in (1, 2, 3))
    assert qsh(a, b, c) == qsh(qsh(a, b), c)


def test_max_weight_prunes_exactly():
    u = BracketWord.from_letters(1, 2)
    v = BracketWord.from_letters(3, 1)
    full = qsh(u, v)
    assert qsh(u, v, max_weight=3) == full.truncate(3)
    assert qsh(u, v, max_weight=0) == Expansion.zero()


@given(expansions, expansions, st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_max_weight_equals_truncated_full_product(a, b, k):
    assert qsh(a, b, max_weight=k) == qsh(a, b).truncate(k)


@given(st.one_of(expansions, words), st.integers(min_value=0, max_value=7))
@example(BracketWord.from_letters(1, 2, 3), 2)
@settings(max_examples=60, deadline=None)
def test_one_operand_is_truncated_at_max_weight(x, k):
    """A lone operand keeps no term above max_weight, as its product with
    the unit does not."""
    e = x if isinstance(x, Expansion) else Expansion.of(x)
    assert qsh(x, max_weight=k) == qsh(x, UNIT_WORD, max_weight=k) == e.truncate(k)


def _product_or_cap(*operands, max_weight):
    """qsh of the operands, or CapExceeded if it raises that."""
    try:
        return qsh(*operands, max_weight=max_weight)
    except CapExceeded:
        return CapExceeded


@given(
    st.one_of(expansions, words),
    st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    st.integers(min_value=1, max_value=7),
)
@example(BracketWord.from_letters(1, 2, 3), None, 2)
@settings(max_examples=80, deadline=None)
def test_lone_operand_is_its_product_with_the_unit(x, k, w):
    """Under any weight cap, a lone operand is truncated and checked as its
    product with the unit is: the same result, or CapExceeded from both."""
    with caps(weight=w):
        lone = _product_or_cap(x, max_weight=k)
        paired = _product_or_cap(x, UNIT_WORD, max_weight=k)
    assert (lone is CapExceeded) == (paired is CapExceeded)
    assert lone == paired


def test_pruned_pairs_do_not_hit_the_weight_cap():
    a = Expansion({BracketWord.from_letters(1): 1, BracketWord.from_letters(1, 2, 3): 2})
    b = Expansion({BracketWord.from_letters(2): -1, BracketWord([(1, 2), (3,)]): 3})
    full = qsh(a, b)
    with caps(weight=4):
        # weight 3 + 3 is over the cap, but max_weight prunes it first
        assert qsh(a, b, max_weight=4) == full.truncate(4)
        with pytest.raises(CapExceeded):
            qsh(a, b)


# every word of weight at most 6 over the letters 1, 2, 3, lightest first
light_words = st.sampled_from([w for ws in words_up_to(6).values() for w in ws])
max_weights = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@given(light_words, light_words, max_weights)
@settings(max_examples=150, deadline=None)
@example(BracketWord.from_letters(1, 1, 1), BracketWord.from_letters(1, 1, 1), None)
def test_word_products_are_exact_and_checked(u, v, max_weight):
    """A product of two words equals the product of their expansions, and
    the surjection route when nothing is pruned; its coefficients are
    Fractions; and only a kept pair meets the weight cap."""
    weight = u.weight + v.weight
    kept = max_weight is None or weight <= max_weight
    with caps(weight=12):
        product = qsh(u, v, max_weight=max_weight)
        assert product == qsh(Expansion.of(u), Expansion.of(v), max_weight=max_weight)
        if kept:
            assert product == qsh_via_surjections(u, v)
        else:
            assert product == Expansion.zero()
    assert all(type(c) is Fraction for _, c in product)
    with caps(weight=3):
        if kept and weight > 3:
            with pytest.raises(CapExceeded):
                qsh(u, v, max_weight=max_weight)
        else:
            assert qsh(u, v, max_weight=max_weight) == product


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_commutative(u, v):
    assert qsh(u, v) == qsh(v, u)


@given(small_words, small_words, small_words)
@settings(max_examples=40, deadline=None)
def test_associative(u, v, w):
    assert qsh(qsh(u, v), w) == qsh(u, qsh(v, w))


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_weight_homogeneous(u, v):
    target = u.weight + v.weight
    assert all(w.weight == target for w, _ in qsh(u, v))


@given(
    st.one_of(nonempty_words, nonempty_expansions),
    st.one_of(nonempty_words, nonempty_expansions),
)
@settings(max_examples=60, deadline=None)
def test_three_way_split(u, v):
    assert qsh(u, v) == half_up(u, v) + half_down(u, v) + bullet(u, v)


@given(nonempty_words, nonempty_words)
@settings(max_examples=60, deadline=None)
def test_half_shuffle_transpose(u, v):
    assert half_up(u, v) == half_down(v, u)


@given(nonempty_words, nonempty_words, nonempty_words)
@settings(max_examples=30, deadline=None)
def test_bullet_an_up_associate(u, v, w):
    # (u bullet v) up w == u bullet (v up w)
    assert half_up(bullet(u, v), w) == bullet(u, half_up(v, w))


@given(nonempty_words, nonempty_words, nonempty_words)
@settings(max_examples=30, deadline=None)
def test_up_up_against_full_product(u, v, w):
    # (u up v) up w == u up (v qsh w)
    assert half_up(half_up(u, v), w) == half_up(u, qsh(v, w))


def test_half_shuffles_reject_unit():
    w = BracketWord.from_letters(1)
    for op in (half_up, half_down, bullet):
        with pytest.raises(ValueError):
            op(UNIT_WORD, w)
        with pytest.raises(ValueError):
            op(w, UNIT_WORD)


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_surjection_route_matches(u, v):
    assert qsh_via_surjections(u, v) == qsh(u, v)


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_surjection_route_coefficients_are_fractions(u, v):
    assert all(type(c) is Fraction for _, c in qsh_via_surjections(u, v))


def test_surjection_route_checks_the_cap_on_a_memoized_shape():
    u, v = BracketWord.from_letters(1, 2), BracketWord.from_letters(3)
    qsh_via_surjections(u, v)  # shape (2, 1) is now memoized
    with caps(weight=2), pytest.raises(CapExceeded):
        qsh_via_surjections(u, v)


def test_surjection_route_memo_is_bounded():
    memo = kernels._kept_diamond_plan
    memo.cache_clear()
    for n in range(9):
        for m in range(9 - n):
            qsh_via_surjections(
                BracketWord.from_letters(*[1] * n), BracketWord.from_letters(*[2] * m)
            )
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
    # every shape the default weight cap allows fits without eviction
    assert memo.cache_info().currsize == 45


def test_surjection_route_keeps_no_shape_past_the_default_cap():
    """Under a raised cap a 9-letter shape is planned on each call and
    dropped; the kept memo holds only shapes within the default cap."""
    u, v = BracketWord.from_letters(1, 2, 3, 4, 5), BracketWord.from_letters(2, 3, 4, 5)
    before = kernels._kept_diamond_plan.cache_info()
    with caps(weight=16):
        assert qsh_via_surjections(u, v) == qsh(u, v)
    assert kernels._kept_diamond_plan.cache_info() == before
    assert kernels.diamond_plan(5, 4) is not kernels.diamond_plan(5, 4)
    assert kernels.diamond_plan(4, 4) is kernels.diamond_plan(4, 4)


# two letters, so equal blocks repeat and a word can come up more than once
repeating_words = st.lists(
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2).map(
        lambda ls: tuple(sorted(ls))
    ),
    max_size=4,
).map(BracketWord)


@settings(max_examples=200, deadline=None)
@given(u=repeating_words, v=repeating_words)
@example(u=UNIT_WORD, v=UNIT_WORD)
@example(u=UNIT_WORD, v=BracketWord.from_letters(2, 1))
@example(u=BracketWord([(1, 2)]), v=UNIT_WORD)
@example(u=BracketWord.from_letters(1, 1), v=BracketWord.from_letters(1))  # (1)(1)(1) 3 times
def test_surjection_route_merges_along_the_plan(u, v):
    """The picks of diamond_plan give the words apply_to_blocks builds
    from its value tuples, with the same multiplicities."""
    assume(u.weight + v.weight <= DEFAULT_WEIGHT_CAP)
    values, _ = kernels.diamond_plan(len(u), len(v))
    expected = Counter(kernels.apply_to_blocks(h, u + v) for h in values)
    assert qsh_via_surjections(u, v) == Expansion(expected.items())


# (1)(2) qsh (3)(4), every term with coefficient 1
TWO_BY_TWO = Expansion(
    (parse_word(w), 1)
    for w in [
        "1234", "1324", "1342", "3124", "3142", "3412",
        "[13]24", "[13]42", "3[14]2", "1[23]4", "13[24]", "31[24]",
        "[13][24]",
    ]
)


def refuse(*args):
    raise AssertionError("a refused function was called")


def test_surjection_route_does_not_use_qsh_words(monkeypatch):
    monkeypatch.setattr(quasishuffle, "qsh_words", refuse)
    kernels._kept_diamond_plan.cache_clear()
    got = qsh_via_surjections(
        BracketWord.from_letters(1, 2), BracketWord.from_letters(3, 4)
    )
    assert len(got) == 13
    assert got == TWO_BY_TWO


def test_surjection_route_does_not_use_the_lattice_planner(monkeypatch):
    u, v = BracketWord.from_letters(1, 2), BracketWord.from_letters(3, 4)
    monkeypatch.setattr(kernels, "_lattice_plan", refuse)
    kernels._kept_lattice_plan.cache_clear()
    with pytest.raises(AssertionError, match="refused"):
        qsh(u, v)  # the patch bites
    kernels._kept_diamond_plan.cache_clear()
    assert qsh_via_surjections(u, v) == TWO_BY_TWO


def test_the_lattice_route_does_not_use_diamond_plan(monkeypatch):
    u, v = BracketWord.from_letters(1, 2), BracketWord.from_letters(3, 4)
    kernels._kept_diamond_plan.cache_clear()
    monkeypatch.setattr(kernels, "diamond_plan", refuse)
    monkeypatch.setattr(quasishuffle, "diamond_plan", refuse)
    with pytest.raises(AssertionError, match="refused"):
        qsh_via_surjections(u, v)  # the patch bites
    kernels._kept_lattice_plan.cache_clear()
    assert qsh(u, v) == TWO_BY_TWO
    # (1)(2) qsh (5): 125, 152, 512, [15]2, 1[25]
    five = Expansion((parse_word(w), 1) for w in ["125", "152", "512", "[15]2", "1[25]"])
    assert qsh(u, Expansion({v: 2, BracketWord.from_letters(5): -1})) == TWO_BY_TWO * 2 - five
    assert half_up(u, v) == Expansion((w, c) for w, c in TWO_BY_TWO if w[-1] == (2,))
    assert bullet(u, v) == Expansion((w, c) for w, c in TWO_BY_TWO if w[-1] == (2, 4))


def recursive_qsh(u: tuple, v: tuple) -> Counter:
    """The textbook recursion on the last blocks, on plain tuples."""
    if not u or not v:
        return Counter([u + v])
    out = Counter()
    for w, c in recursive_qsh(u, v[:-1]).items():
        out[w + v[-1:]] += c
    for w, c in recursive_qsh(u[:-1], v).items():
        out[w + u[-1:]] += c
    for w, c in recursive_qsh(u[:-1], v[:-1]).items():
        out[w + (tuple(sorted(u[-1] + v[-1])),)] += c
    return out


# repeated blocks, so several paths give one word
U_BLOCKS = ((1,), (1, 2), (1,), (2,), (1,))
V_BLOCKS = ((1,), (2,), (1, 1), (1,))


@pytest.mark.parametrize("a", range(len(U_BLOCKS) + 1))
@pytest.mark.parametrize("b", range(len(V_BLOCKS) + 1))
def test_qsh_words_is_the_recursion(a, b):
    """Every shape up to (5, 4), the kept ones and (5, 4), which is not:
    the same words, each listed once per path that reaches it."""
    u, v = U_BLOCKS[:a], V_BLOCKS[:b]
    assert Counter(kernels.qsh_words(u, v)) == recursive_qsh(u, v)


# every shape within the default weight cap with both lengths positive
KEPT_SHAPES = [
    (a, b) for a in range(1, DEFAULT_WEIGHT_CAP) for b in range(1, DEFAULT_WEIGHT_CAP - a + 1)
]


def lattice_paths(plan, a, b):
    """The index tuples of a plan, read back by picking from the indices."""
    indices = tuple(range(a + b + a * b))
    return [pick(indices) for pick in plan]


class TestLatticePlan:
    def test_filling_the_memo_calls_no_exported_kernel(self, monkeypatch):
        """So a traced run makes the same kernel calls on a cold memo as
        on a warm one: every kernel perfbench records is refused."""
        tracing = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
        recorded = next(
            ast.literal_eval(node.value)
            for node in ast.parse(tracing).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "KERNELS"
        )
        assert "qsh_words" in recorded
        expected = [lattice_paths(kernels._kept_lattice_plan(a, b), a, b) for a, b in KEPT_SHAPES]
        for name in recorded:
            monkeypatch.setattr(kernels, name, refuse)
        kernels._kept_lattice_plan.cache_clear()
        got = [lattice_paths(kernels._kept_lattice_plan(a, b), a, b) for a, b in KEPT_SHAPES]
        assert got == expected

    def test_the_default_shapes_fill_28_entries(self):
        kernels._kept_lattice_plan.cache_clear()
        for n in range(DEFAULT_WEIGHT_CAP + 1):
            for m in range(DEFAULT_WEIGHT_CAP + 1 - n):
                qsh(BracketWord.from_letters(*[1] * n), BracketWord.from_letters(*[2] * m))
        info = kernels._kept_lattice_plan.cache_info()
        assert info.currsize == len(KEPT_SHAPES) == 28
        assert info.currsize <= info.maxsize
        assert sum(len(kernels._kept_lattice_plan(a, b)) for a, b in KEPT_SHAPES) == 1664

    def test_a_shape_past_the_default_cap_is_not_kept(self):
        u, v = BracketWord.from_letters(1, 2, 1, 2, 1), BracketWord.from_letters(2, 1, 1, 2, 2)
        before = kernels._kept_lattice_plan.cache_info().currsize
        with caps(weight=12):
            assert qsh(u, v) == qsh_via_surjections(u, v)
        assert kernels._kept_lattice_plan.cache_info().currsize == before

    @pytest.mark.parametrize("index", [(), (2,), (3, 0, 3)])
    def test_every_pick_returns_a_tuple(self, index):
        items = ("a", "b", "c", "d")
        assert kernels._picker(list(index))(items) == tuple(items[i] for i in index)

    @pytest.mark.parametrize("a", range(1, 7))
    @pytest.mark.parametrize("b", range(1, 7))
    def test_plan_lengths_are_delannoy_numbers(self, a, b):
        plan = kernels._lattice_plan(a, b)
        assert len(plan) == sum(comb(a, k) * comb(b, k) * 2**k for k in range(min(a, b) + 1))
        assert len(set(lattice_paths(plan, a, b))) == len(plan)


def test_shuffle_projection_kills_merged_blocks():
    e = qsh(BracketWord.from_letters(1), BracketWord.from_letters(2))
    proj = shuffle_projection(e)
    assert BracketWord([(1, 2)]) not in proj
    assert len(proj) == 2


def test_shuffle_is_projected_qsh():
    u = BracketWord.from_letters(1, 2)
    v = BracketWord.from_letters(3)
    sh = shuffle(u, v)
    assert len(sh) == 3
    assert all(all(len(b) == 1 for b in w) for w, _ in sh)
