"""Bracket words: construction, ordering, rendering, parsing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itoflow import (
    UNIT_WORD,
    BracketWord,
    Expansion,
    SurjElement,
    WordParseError,
    block,
    parse_word,
)
from itoflow.words import pretty_word, word_compact, word_literal

letters = st.integers(min_value=1, max_value=9)
blocks = st.lists(letters, min_size=1, max_size=3).map(lambda ls: tuple(sorted(ls)))
words = st.lists(blocks, min_size=0, max_size=4).map(BracketWord)


class TestBlock:
    def test_sorts_letters(self):
        assert block(3, 1, 2) == (1, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            block(0)
        with pytest.raises(ValueError):
            block(-1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            block()

    def test_numpy_letters_are_read_as_ints(self):
        # letters follow the one rule for integers, as sizes do
        assert block(np.int64(2)) == (2,)
        assert [type(x) for x in block(np.int64(3), 1)] == [int, int]
        w = BracketWord([(np.int64(1), np.int64(2))])
        assert w == BracketWord([(1, 2)]) and [type(x) for x in w[0]] == [int, int]


class TestBracketWord:
    def test_unit_is_empty(self):
        assert len(UNIT_WORD) == 0
        assert UNIT_WORD.weight == 0

    def test_weight_counts_letters_with_multiplicity(self):
        w = BracketWord([(1, 1), (2,), (1, 3)])
        assert w.weight == 5
        assert w.length == 3

    def test_canonicalizes_block_order(self):
        assert BracketWord([(3, 1)]) == BracketWord([(1, 3)])

    def test_keeps_canonical_block_tuples(self):
        canonical, unsorted, as_list = (1, 3), (3, 1), [1, 3]
        w = BracketWord([canonical, unsorted, as_list])
        assert w == BracketWord([(1, 3)] * 3)
        assert w[0] is canonical  # shared, not copied
        assert w[1] is not unsorted and w[2] == (1, 3) and type(w[2]) is tuple
        with pytest.raises(ValueError):
            BracketWord([(0, 1)])  # a sorted tuple is still checked

    def test_rejects_bare_ints(self):
        with pytest.raises(TypeError):
            BracketWord([1, 2])

    def test_from_letters(self):
        assert BracketWord.from_letters(2, 1, 2) == BracketWord([(2,), (1,), (2,)])

    def test_concatenation(self):
        u = BracketWord.from_letters(1)
        v = BracketWord.from_letters(2, 3)
        assert u + v == BracketWord.from_letters(1, 2, 3)
        assert UNIT_WORD + u == u

    @given(words)
    def test_weight_additive_under_concat(self, w):
        assert (w + w).weight == 2 * w.weight


class TestRendering:
    def test_literal(self):
        w = BracketWord([(2,), (1, 3)])
        assert word_literal(w) == "2.[1,3]"

    def test_compact_single_digits(self):
        w = BracketWord([(2,), (1, 3)])
        assert word_compact(w) == "2[13]"

    def test_pretty(self):
        w = BracketWord([(2,), (1, 3)])
        assert pretty_word(w) == "I_{2[13]}"

    def test_unit_renderings(self):
        assert word_literal(UNIT_WORD) == "e"
        assert pretty_word(UNIT_WORD) == "1"


class TestParsing:
    def test_dotted(self):
        assert parse_word("2.[1,3]") == BracketWord([(2,), (1, 3)])

    def test_compact(self):
        assert parse_word("2[13]") == BracketWord([(2,), (1, 3)])

    def test_unit(self):
        assert parse_word("e") == UNIT_WORD

    @pytest.mark.parametrize("bad", ["", "1..2", "[", "[]", "1.x", "0", "[1,]"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(WordParseError):
            parse_word(bad)

    @pytest.mark.parametrize("text", [12, None, b"12", ["1"]])
    def test_refuses_a_non_string(self, text):
        with pytest.raises(TypeError, match="word literal must be str"):
            parse_word(text)

    @given(words)
    def test_round_trip_literal(self, w):
        assert parse_word(word_literal(w)) == w

    @given(words)
    def test_round_trip_compact(self, w):
        assert parse_word(word_compact(w)) == w


class TestExpansion:
    def test_zero_and_unit(self):
        assert not Expansion.zero()
        assert Expansion.unit()[UNIT_WORD] == 1

    def test_drops_zero_coefficients(self):
        w = BracketWord.from_letters(1)
        e = Expansion({w: Fraction(1)}) - Expansion({w: Fraction(1)})
        assert not e
        assert w not in e

    def test_linear_arithmetic(self):
        w1 = BracketWord.from_letters(1)
        w2 = BracketWord.from_letters(2)
        e = 2 * Expansion.of(w1) - Expansion.of(w2)
        assert e[w1] == 2
        assert e[w2] == -1
        assert (e + e)[w1] == 4
        assert (-e)[w2] == 1

    def test_scalar_must_be_rational(self):
        with pytest.raises(TypeError):
            0.5 * Expansion.unit()

    def test_product_of_expansions_points_at_qsh(self):
        with pytest.raises(TypeError, match="qsh"):
            Expansion.unit() * Expansion.unit()

    def test_restrict_and_truncate_weight(self):
        e = Expansion.of(BracketWord.from_letters(1)) + Expansion.of(
            BracketWord([(1, 2)])
        ) + Expansion.of(BracketWord.from_letters(1, 2, 3))
        assert set(e.restrict(2).support()) == {BracketWord([(1, 2)])}
        assert e.truncate(2).max_grade() == 2

    def test_pretty_signs(self):
        e = Expansion.of(BracketWord.from_letters(1)) - Expansion.of(
            BracketWord.from_letters(2)
        )
        assert e.pretty() == "I_{1} - I_{2}"

    def test_pretty_constant_term_is_its_coefficient(self):
        i1 = Expansion.of(BracketWord.from_letters(1))
        assert Expansion.unit().pretty() == "1"
        assert (3 * Expansion.unit()).pretty() == "3"
        assert (Expansion.unit() - i1).pretty() == "1 - I_{1}"
        assert (i1 - Fraction(1, 2) * Expansion.unit()).pretty() == "-1/2 + I_{1}"
        assert repr(-Expansion.unit()) == "Expansion(-1)"
        # a surjection element's unit keeps its "()" rendering
        assert (3 * SurjElement.unit()).pretty() == "3 ()"
        assert SurjElement.unit().pretty() == "()"

    @given(words, words)
    def test_map_words_is_linear(self, u, v):
        e = Expansion.of(u) + 3 * Expansion.of(v)
        doubled = e.map_words(lambda w: 2 * Expansion.of(w))
        assert doubled == 2 * e
