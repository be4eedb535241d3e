"""The exact series loops: Fraction-valued results and slow power-series oracles.

log_identity_series, exp_element, matrix_exp and matrix_log compute on
integer numerators over one common denominator and build the Fractions
at the end.  Fraction(2) == 2 and JSON reads only numerator and
denominator, so neither equality nor the golden digests would see an int
leaking out of that route; the type test below does.  The half products
of two words add int multiplicities and build their Fractions at the
end too.  The oracles are the plain-Fraction power series: sum over k of
the k-th diamond or matmul power over k!, built with the public products
and Combination arithmetic.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    Expansion,
    MatrixExpansion,
    SurjElement,
    Surjection,
    bullet,
    diamond,
    enumerate_surjections,
    exp_element,
    half_down,
    half_up,
    log_identity_closed_form,
    log_identity_series,
    matrix_exp,
    matrix_log,
    parse_word,
    qsh,
)


def coefficients(result):
    if isinstance(result, MatrixExpansion):
        return [c for row in result.entries for e in row for _, c in e]
    return [c for _, c in result]


RESULTS = [
    pytest.param(lambda: log_identity_series(1), id="log_identity_series-1"),
    pytest.param(lambda: log_identity_series(4), id="log_identity_series-4"),
    pytest.param(lambda: exp_element(log_identity_closed_form(3), 3), id="exp_element-log"),
    pytest.param(
        lambda: exp_element(SurjElement([((1,), 2), ((1, 1), Fraction(-1, 3))]), 3),
        id="exp_element-int-and-fraction",
    ),
    pytest.param(lambda: exp_element(SurjElement.zero(), 2), id="exp_element-zero"),
    pytest.param(lambda: matrix_log(1, 3), id="matrix_log-1-3"),
    pytest.param(lambda: matrix_log(2, 3), id="matrix_log-2-3"),
    pytest.param(lambda: matrix_exp(matrix_log(2, 3), 3), id="matrix_exp-log"),
    pytest.param(
        lambda: matrix_exp(MatrixExpansion(1, [[Expansion([(((1,),), 3)])]]), 2),
        id="matrix_exp-int",
    ),
    pytest.param(lambda: qsh(parse_word("12"), parse_word("3")), id="qsh-words"),
    pytest.param(
        lambda: qsh(
            Expansion([(parse_word("12"), 2)]), Expansion([(parse_word("3"), Fraction(1, 2))])
        ),
        id="qsh",
    ),
    *(
        pytest.param(lambda half=half, a=a, b=b: half(a, b), id=f"{half.__name__}-{kind}")
        for half in (half_up, half_down, bullet)
        for kind, a, b in [
            ("words", parse_word("1[23]"), parse_word("21")),
            (
                "expansions",
                Expansion([(parse_word("12"), 2), (parse_word("3"), Fraction(1, 3))]),
                Expansion([(parse_word("[13]"), Fraction(-1, 2))]),
            ),
        ]
    ),
    pytest.param(lambda: diamond((1, 2), (1,)), id="diamond-surjections"),
    pytest.param(lambda: diamond(log_identity_closed_form(2), SurjElement.of((1,), 3)), id="diamond"),
]


@pytest.mark.parametrize("build", RESULTS)
def test_every_coefficient_is_a_fraction(build):
    cs = coefficients(build())
    assert cs
    assert all(type(c) is Fraction for c in cs)


# mixed signs and denominators, zero included
coeffs = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=9)
)


@st.composite
def surjections(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    return draw(st.sampled_from(enumerate_surjections(n, k)))


elements = st.lists(st.tuples(surjections(), coeffs), max_size=4).map(SurjElement)

letters = st.integers(min_value=1, max_value=4)
blocks = st.lists(letters, min_size=1, max_size=2).map(lambda ls: tuple(sorted(ls)))
words = st.lists(blocks, min_size=1, max_size=3).map(BracketWord).filter(lambda w: w.weight <= 3)
entries = st.lists(st.tuples(words, coeffs), max_size=3).map(Expansion)
matrices = st.lists(entries, min_size=4, max_size=4).map(
    lambda es: MatrixExpansion(2, [es[:2], es[2:]])
)


def exp_element_oracle(e: SurjElement, n: int) -> SurjElement:
    out = power = SurjElement.unit()
    for k in range(1, n + 1):
        power = diamond(power, e, max_grade=n)
        out = out + power * Fraction(1, factorial(k))
    return out


def matrix_exp_oracle(me: MatrixExpansion, n: int) -> MatrixExpansion:
    out = power = MatrixExpansion.identity(me.dim)
    for k in range(1, n + 1):
        power = power.matmul(me, max_weight=n)
        out = out + power * Fraction(1, factorial(k))
    return out


@given(e=elements, n=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_exp_element_is_the_power_series(e, n):
    assert Surjection() not in e
    got = exp_element(e, n)
    assert got == exp_element_oracle(e, n)
    assert all(type(c) is Fraction for c in coefficients(got))


@given(me=matrices, n=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_matrix_exp_is_the_power_series(me, n):
    assert not me.has_constant_part()
    got = matrix_exp(me, n)
    assert got == matrix_exp_oracle(me, n)
    assert all(type(c) is Fraction for c in coefficients(got))
