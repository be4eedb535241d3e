"""Quasi-shuffle product: axioms, half-shuffle splitting, surjection route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    parse_word,
    set_weight_cap,
)
from itoflow import quasishuffle

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
    assert qsh(UNIT_WORD, w) == Expansion.of_word(w)
    assert qsh(w, UNIT_WORD) == Expansion.of_word(w)


def test_accepts_expansions_and_words():
    w = BracketWord.from_letters(1)
    e = Expansion.of_word(w)
    assert qsh(w, e) == qsh(e, w) == qsh(w, w)


def test_variadic_folds_left():
    a, b, c = (BracketWord.from_letters(i) for i in (1, 2, 3))
    assert qsh(a, b, c) == qsh(qsh(a, b), c)


def test_max_weight_prunes_exactly():
    u = BracketWord.from_letters(1, 2)
    v = BracketWord.from_letters(3, 1)
    full = qsh(u, v)
    assert qsh(u, v, max_weight=3) == full.truncate_weight(3)
    assert qsh(u, v, max_weight=0) == Expansion.zero()


@given(expansions, expansions, st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_max_weight_equals_truncated_full_product(a, b, k):
    assert qsh(a, b, max_weight=k) == qsh(a, b).truncate_weight(k)


def test_pruned_pairs_do_not_hit_the_weight_cap():
    a = Expansion({BracketWord.from_letters(1): 1, BracketWord.from_letters(1, 2, 3): 2})
    b = Expansion({BracketWord.from_letters(2): -1, BracketWord([(1, 2), (3,)]): 3})
    full = qsh(a, b)
    old = set_weight_cap(4)
    try:
        # weight 3 + 3 is over the cap, but max_weight prunes it first
        assert qsh(a, b, max_weight=4) == full.truncate_weight(4)
        with pytest.raises(CapExceeded):
            qsh(a, b)
    finally:
        set_weight_cap(old)


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
    old = set_weight_cap(2)
    try:
        with pytest.raises(CapExceeded):
            qsh_via_surjections(u, v)
    finally:
        set_weight_cap(old)


def test_surjection_route_memo_is_bounded():
    memo = quasishuffle._identity_diamond
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


def test_surjection_route_does_not_use_qsh_words(monkeypatch):
    def refuse(u, v):
        raise AssertionError("qsh_words called by the surjection route")

    monkeypatch.setattr(quasishuffle, "qsh_words", refuse)
    quasishuffle._identity_diamond.cache_clear()
    expected = Expansion(
        (parse_word(w), 1)
        for w in [
            "1234", "1324", "1342", "3124", "3142", "3412",
            "[13]24", "[13]42", "3[14]2", "1[23]4", "13[24]", "31[24]",
            "[13][24]",
        ]
    )
    got = qsh_via_surjections(
        BracketWord.from_letters(1, 2), BracketWord.from_letters(3, 4)
    )
    assert len(got) == 13
    assert got == expected


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
