"""The linear-combination behaviour that Expansion and SurjElement share."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    DriverAlphabet,
    Evaluator,
    Expansion,
    MatrixExpansion,
    SurjElement,
    Surjection,
    apply_element,
    apply_vanishing_rules,
    diamond,
    enumerate_grade,
    enumerate_surjections,
    linear_field_log,
    log_identity_closed_form,
    matrix_ito_taylor,
    matrix_log,
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


def _assert_filed(e):
    """e files every key under its own grade, with no empty grade, and
    every numerator is a nonzero int."""
    grade = type(e)._grade
    for g, part in e._classes.items():
        assert part, f"empty grade {g}"
        assert all(grade(k) == g for k in part), g
        assert all(type(c) is int and c for c in part.values())


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
    _assert_filed(a)
    assert a.grades() == sorted({grade(k) for k in a.support()})
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


def _readings(e):
    """All a reader sees of a combination: its terms, hash, JSON and display."""
    return list(e), hash(e), e.to_json_dict(), e.pretty()


# one evaluator for every letter the strategies draw: two paths of 8 cells
VALUES = Evaluator({k: np.random.default_rng(k).standard_normal((2, 8)) for k in range(1, 6)})


@given(
    st.lists(st.tuples(small_words, coeffs), max_size=4).map(Expansion),
    st.lists(st.tuples(small_words, coeffs), max_size=4).map(Expansion),
)
@settings(max_examples=40, deadline=None)
def test_one_rational_over_different_denominators_reads_the_same(a, b):
    """A combination holds int numerators over a denominator that need not
    be the least; the same values over another one read the same."""
    scaled = a * 3 * Fraction(1, 3)
    assert scaled._den == 3 * a._den  # not reduced
    pairs = [(a, scaled), (a, (a + b) - b), (qsh(a, b), qsh(a * Fraction(1, 2), b) * 2)]
    for e, same in pairs:
        assert e == same and same == e
        assert _readings(e) == _readings(same)
        for x in (e, same):
            _assert_filed(x)
            assert all(type(c) is Fraction for _, c in x)
    assert VALUES(scaled).tobytes() == VALUES(a).tobytes()


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


def _assert_finished(e, key_class):
    """e files its terms by grade, and hands out every key, by support()
    and by iteration, as key_class."""
    _assert_filed(e)
    assert all(type(k) is key_class for k in e.support())
    assert all(type(k) is key_class for k, _ in e)


@given(
    st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(Expansion),
    st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(Expansion),
    st.none() | st.integers(min_value=0, max_value=8),
    small_coeffs,
)
@settings(max_examples=60, deadline=None)
def test_qsh_products_and_their_sums_keep_their_weight_buckets(a, b, k, scalar):
    p, q = qsh(a, b, max_weight=k), qsh(b, a * scalar, max_weight=k)
    for e in (p, q, Expansion.sum([p, q]), qsh(p, a, max_weight=k), qsh(BracketWord(), a)):
        _assert_finished(e, BracketWord)
        # the kernels' plain tuples stay plain inside
        assert all(type(w) is tuple for w in e._flat())
    # a sum that cancels keeps no zero term and no empty bucket
    gone = Expansion.sum([p, qsh(-a, b, max_weight=k)])
    assert not gone and gone._classes == {}
    # by numerator 1 the buckets are shared; by any other they are scaled
    assert (p * Fraction(1, 3))._classes is p._classes
    _assert_finished(p * (scalar * 3), BracketWord)


@given(
    st.lists(st.tuples(surjections(max_n=3), small_coeffs), min_size=1, max_size=4).map(SurjElement),
    st.lists(st.tuples(surjections(max_n=3), small_coeffs), min_size=1, max_size=4).map(SurjElement),
    st.none() | st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_diamond_products_and_their_sums_keep_their_arity_buckets(a, b, k):
    p, q = diamond(a, b, max_grade=k), diamond(b, a, max_grade=k)
    for e in (p, q, SurjElement.sum([p, q]), p * Fraction(1, 2)):
        _assert_finished(e, Surjection)
    assert all(type(f) is tuple for f in p._flat())


@given(
    st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(Expansion),
    st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(Expansion),
)
@settings(max_examples=40, deadline=None)
def test_plain_keys_read_as_the_constructor_built_keys(a, b):
    """A product keeps its words as plain tuples; the same terms with
    checked BracketWord keys read the same everywhere."""
    product = qsh(a, b)
    classes = {g: {tuple(w): c for w, c in part.items()} for g, part in product._classes.items()}
    raw = Expansion._raw(classes, product._den)
    built = Expansion(dict(product))
    assert all(type(w) is BracketWord for w in built._flat())
    assert raw == built and built == raw and hash(raw) == hash(built)
    assert raw.pretty() == built.pretty()
    assert json.dumps(raw.to_json_dict()) == json.dumps(built.to_json_dict())
    assert VALUES(raw).tobytes() == VALUES(built).tobytes()
    for w in built.support():
        assert w in raw and raw[w] == built[w]


# letters 1 to 4 of a two-driver alphabet: (1, 1) folds to 3, a grade lower
alphabet_words = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=2).map(lambda ls: tuple(sorted(ls))),
    max_size=3,
).map(BracketWord)
small_expansions = st.lists(st.tuples(small_words, small_coeffs), min_size=1, max_size=4).map(
    Expansion
)
small_elements = st.lists(
    st.tuples(surjections(max_n=3), small_coeffs), min_size=1, max_size=4
).map(SurjElement)


def _terms_of(keys):
    return st.lists(st.tuples(keys, small_coeffs), min_size=1, max_size=4)


def _matrices(dim):
    def grid(es):
        return MatrixExpansion(dim, [es[i * dim : (i + 1) * dim] for i in range(dim)])

    return st.lists(small_expansions, min_size=dim * dim, max_size=dim * dim).map(grid)


@given(words, surjections())
@settings(max_examples=40, deadline=None)
def test_a_bare_operand_is_its_one_term_combination(w, f):
    """qsh and diamond take a key operand as its one-term combination, over 1."""
    for cls, key in ((Expansion, w), (SurjElement, f)):
        for given_key in (key, tuple(key)):
            e = cls._operand(given_key)
            assert e == cls.of(key) and e._den == 1
            _assert_finished(e, type(key))
        e = cls.of(key) * Fraction(1, 3)
        assert cls._operand(e) is e


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_matrix_sum_is_one_expansion_sum_per_entry(data):
    dim = data.draw(st.integers(1, 2))
    a, b, c = (data.draw(_matrices(dim)) for _ in range(3))
    total = MatrixExpansion.sum([a, b, c])
    assert total == a + b + c
    assert total - c == MatrixExpansion.sum(iter([a, b]))
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            assert total[i, j] == Expansion.sum([a[i, j], b[i, j], c[i, j]])
    for bad in ([], [a, MatrixExpansion.zero(dim + 1)], [Expansion.unit(), a], [a, None]):
        with pytest.raises(ValueError):
            MatrixExpansion.sum(bad)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_route_files_each_key_under_its_grade(data):
    """Whichever route builds a combination, each key sits under its own
    grade, with no empty grade and no zero numerator."""
    draw = data.draw
    a, b = draw(small_expansions), draw(small_expansions)
    s, t = draw(small_elements), draw(small_elements)
    u, v, w = draw(small_words), draw(small_words), draw(alphabet_words)
    k, arity, scalar = draw(st.integers(0, 8)), draw(st.integers(0, 3)), draw(small_coeffs)
    dim, order = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    alphabet = DriverAlphabet(
        2, continuous=draw(st.booleans()), cross_brackets_zero=draw(st.booleans())
    )
    f = draw(surjections(max_n=3))
    on_alphabet = draw(_terms_of(alphabet_words))
    acting = draw(_terms_of(st.sampled_from(enumerate_grade(len(w)))))
    row = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    generators = draw(
        st.dictionaries(st.integers(1, 2), st.lists(row, min_size=dim, max_size=dim), min_size=1)
    )

    taylor, log = matrix_ito_taylor(dim, order), matrix_log(dim, order)
    routes = [
        Expansion(list(a) + list(b)),
        SurjElement(list(s) + list(t)),
        qsh(a, b),
        qsh(a, u, max_weight=k),
        qsh(a, max_weight=k),
        qsh(u, max_weight=k),
        diamond(s, t),
        diamond(s, t, max_grade=k),
        Expansion.sum([a, b, -a]),
        a - a,
        s - s,
        -s,
        a * scalar,
        s * scalar,
        a.truncate(k),
        a.restrict(k),
        s.truncate(arity),
        s.restrict(arity),
        *(e for row in log.entries for e in row),
        *(e for row in taylor.entries for e in row),
        apply_element(SurjElement(acting), w),
        apply_vanishing_rules(Expansion(on_alphabet), alphabet),
        *(e for row in linear_field_log(alphabet, order, generators) for e in row),
        qsh_via_surjections(u, v),
        log_identity_closed_form(order),
        Expansion._operand(u),
        SurjElement._operand(f),
        *(e for row in MatrixExpansion.sum([taylor, taylor * scalar, log]).entries for e in row),
    ]
    for e in routes:
        _assert_filed(e)


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
