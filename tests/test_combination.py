"""The linear-combination behaviour that Expansion and SurjElement share."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    Expansion,
    SurjElement,
    Surjection,
    diamond,
    enumerate_surjections,
    qsh,
    qsh_via_surjections,
)
from itoflow.surjections import diamond_reference

letters = st.integers(min_value=1, max_value=5)
blocks = st.lists(letters, min_size=1, max_size=3).map(lambda ls: tuple(sorted(ls)))
words = st.lists(blocks, min_size=0, max_size=3).map(BracketWord)


@st.composite
def surjections(draw, max_n=4):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Surjection()
    k = draw(st.integers(min_value=1, max_value=n))
    return draw(st.sampled_from(enumerate_surjections(n, k)))


# zero included; huge numerators and denominators must survive JSON exactly
coeffs = st.builds(
    Fraction,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)

KINDS = [
    pytest.param(Expansion, words, lambda w: w.weight, id="Expansion"),
    pytest.param(SurjElement, surjections(), len, id="SurjElement"),
]


@pytest.mark.parametrize("cls, keys, grade", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shared_behaviour(cls, keys, grade, data):
    # repeated keys, so construction has to sum and cancel
    terms = st.lists(st.tuples(keys, coeffs), max_size=6)
    a_terms, b_terms = data.draw(terms), data.draw(terms)
    a, b = cls(a_terms), cls(b_terms)
    scalar = data.draw(coeffs)
    g = data.draw(st.integers(min_value=0, max_value=8))

    summed = {}
    for k, c in a_terms:
        summed[k] = summed.get(k, 0) + c
    assert dict(a) == {k: c for k, c in summed.items() if c}
    assert all(c for _, c in a)

    assert not a - a
    assert a - a == cls.zero()
    assert (a + b) - b == a
    assert -a == (-1) * a
    assert all((-a)[k] == -c for k, c in a)
    assert a + (-a) == cls.zero()

    assert scalar * a == a * scalar == cls({k: c * scalar for k, c in a})
    assert (a * scalar).support() == (a.support() if scalar else [])

    same = cls(list(reversed(a_terms)))
    assert same == a
    assert hash(same) == hash(a)
    assert hash((a + b) - b) == hash(a)

    blob = json.loads(json.dumps(a.to_json_dict()))
    assert cls.from_json_dict(blob) == a

    kept = cls({k: c for k, c in a if grade(k) <= g})
    assert a.truncate(g) == kept
    assert a.restrict(g) == cls({k: c for k, c in a if grade(k) == g})


def test_cancelling_products_and_sums_keep_no_zero_term():
    one, two = BracketWord.from_letters(1), BracketWord.from_letters(2)
    # qsh(2, 1) - qsh(1, 2) = 0: the cross terms cancel in one product
    e = qsh(Expansion([(one, 1), (two, 1)]), Expansion([(one, 1), (two, -1)]))
    assert e == Expansion(
        [(one + one, 2), (BracketWord([(1, 1)]), 1), (two + two, -2), (BracketWord([(2, 2)]), -1)]
    )
    # (1, 1, 1) is a term of both diamond(1, 11) and diamond(11, 1)
    f, g = Surjection((1,)), Surjection((1, 1))
    d = diamond(SurjElement([(f, 1), (g, 1)]), SurjElement([(f, 1), (g, -1)]))
    assert d == diamond(f, f) - diamond(f, g) + diamond(g, f) - diamond(g, g)
    assert Surjection((1, 1, 1)) not in d
    s = Expansion.sum([e, -e, Expansion.of(one)])
    assert s == Expansion.of(one)
    assert not Expansion.sum([e, -e])
    for x in (e, d, s):
        assert all(c != 0 and type(c) is Fraction for _, c in x)


@pytest.mark.parametrize("cls, keys, grade", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_grade_buckets_stay_out_of_equality_hash_and_json(cls, keys, grade, data):
    terms = data.draw(st.lists(st.tuples(keys, coeffs), max_size=6))
    a, fresh = cls(terms), cls(terms)
    classes = a._graded()
    assert a._graded() is classes  # worked out once, then kept
    assert classes == {
        g: [(k, c) for k, c in a._terms.items() if grade(k) == g]
        for g in {grade(k) for k in a._terms}
    }
    assert a == fresh and hash(a) == hash(fresh)
    text = json.dumps(a.to_json_dict())
    assert text == json.dumps(fresh.to_json_dict())
    assert "_classes" not in text
    assert cls.from_json_dict(json.loads(text)) == a


# weight at most 4, so a product of two stays within the default weight cap
small_words = st.lists(
    st.lists(letters, min_size=1, max_size=2).map(lambda ls: tuple(sorted(ls))), max_size=2
).map(BracketWord)
small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@given(
    st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(Expansion),
    st.lists(small_words, min_size=1, max_size=4),
    st.none() | st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_qsh_of_an_operand_used_many_times_equals_the_surjection_route(a, ws, k):
    """a keeps its weight buckets after the first product; every later
    product, on either side, still equals a fresh copy's and the route
    through qsh_via_surjections, truncated at max_weight k."""
    def reference(left, right):
        return Expansion.sum(
            qsh_via_surjections(u, v) * (cu * cv)
            for u, cu in left
            for v, cv in right
            if k is None or u.weight + v.weight <= k
        )

    for w in ws + ws:
        v = Expansion.of(w)
        fresh = Expansion(dict(a))
        assert qsh(a, w, max_weight=k) == qsh(fresh, w, max_weight=k) == reference(a, v)
        assert qsh(v, a, max_weight=k) == qsh(v, Expansion(dict(a)), max_weight=k) == reference(v, a)
        assert qsh(a, a, max_weight=k) == reference(fresh, fresh)


@given(
    st.lists(st.tuples(surjections(max_n=3), small_coeffs), min_size=1, max_size=4).map(SurjElement),
    st.lists(surjections(max_n=3), min_size=1, max_size=4),
    st.none() | st.integers(min_value=0, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_diamond_of_an_operand_used_many_times_equals_the_reference(a, gs, k):
    """As for qsh: a reused element against diamond_reference, both sides."""
    def reference(left, right):
        return SurjElement.sum(
            diamond_reference(f, g) * (cf * cg)
            for f, cf in left
            for g, cg in right
            if k is None or len(f) + len(g) <= k
        )

    for g in gs + gs:
        e = SurjElement.of(g)
        fresh = SurjElement(dict(a))
        assert diamond(a, g, max_grade=k) == diamond(fresh, g, max_grade=k) == reference(a, e)
        assert diamond(e, a, max_grade=k) == reference(e, a)
        assert diamond(a, a, max_grade=k) == reference(fresh, fresh)


def test_types_never_compare_equal():
    assert Expansion() != SurjElement()
    assert Expansion.unit() != SurjElement.unit()
    with pytest.raises(TypeError):
        Expansion.unit() + SurjElement.unit()
    with pytest.raises(TypeError):
        Expansion.unit() - SurjElement.unit()



ONE = {"num": "1", "den": "1"}


@pytest.mark.parametrize(
    "cls, key, good",
    [
        pytest.param(Expansion, "word", [[1]], id="Expansion"),
        pytest.param(SurjElement, "f", [1], id="SurjElement"),
    ],
)
@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(lambda key, good: {}, id="no-terms"),
        pytest.param(lambda key, good: {"terms": [{key: 5, "coeff": ONE}]}, id="int-key"),
        pytest.param(
            lambda key, good: {"terms": [{key: good, "coeff": {"num": "1", "den": "0"}}]},
            id="zero-den",
        ),
    ],
)
def test_malformed_json_raises_value_error(cls, key, good, blob):
    obj = blob(key, good)
    assert cls.from_json_dict({"terms": [{key: good, "coeff": ONE}]})  # the well-formed twin
    with pytest.raises(ValueError):
        cls.from_json_dict(obj)
