"""The linear-combination behaviour that Expansion and SurjElement share."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import BracketWord, Expansion, SurjElement, Surjection, enumerate_surjections

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
    pytest.param(Expansion, words, lambda w: w.weight, "truncate_weight", id="Expansion"),
    pytest.param(SurjElement, surjections(), len, "truncate_grade", id="SurjElement"),
]


@pytest.mark.parametrize("cls, keys, grade, truncate_name", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shared_behaviour(cls, keys, grade, truncate_name, data):
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
    assert cls.from_json(a.to_json()) == a

    kept = cls({k: c for k, c in a if grade(k) <= g})
    assert a.truncate(g) == kept
    assert getattr(a, truncate_name)(g) == kept
    assert a.restrict(g) == cls({k: c for k, c in a if grade(k) == g})


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
    with pytest.raises(ValueError):
        cls.from_json(json.dumps(obj))
