"""Logarithm of the identity series of surjections.

The identity series is the unit plus the sum over n of the identity
surjection of each arity.  Its formal logarithm under the surjection
product has an exact closed form: the coefficient of a surjection f of
arity n with d descents is

    (-1)^d / (n * binomial(n-1, d)).

Three independent routes to that element are provided: the alternating
power series of log(1 + x), the closed form above, and the alternating
sum over descent-subset sums.  They must agree exactly; the test suite
checks this.  Applying the element to iterated-integral words yields the
log of the flow map, the reason this module exists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, lcm
from typing import Iterable

from ._config import _count, _typed, check_grade
from .kernels import grade_table
from .surjections import (
    SurjElement,
    Surjection,
    _check_positions,
    descent_sum_within,
    diamond,
)


def descent_coefficient(n: int, d: int) -> Fraction:
    """Log-element coefficient of an arity-n surjection with d descents."""
    return Fraction((-1) ** d, n * comb(n - 1, d))


def identity_series(max_grade: int) -> SurjElement:
    """Unit plus the identity surjection of every arity up to max_grade."""
    max_grade = check_grade(_count("max_grade", max_grade))
    return SurjElement(
        [(Surjection(), 1)]
        + [(Surjection.identity(n), 1) for n in range(1, max_grade + 1)]
    )


def log_identity_series(max_grade: int) -> SurjElement:
    """Formal log of the identity series by the alternating power series.

    log(1 + x) = sum over k >= 1 of (-1)^(k-1)/k x^k with x the sum of the
    positive-arity identities, truncated beyond max_grade.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    x = SurjElement._raw({n: {Surjection.identity(n): 1} for n in range(1, max_grade + 1)})
    power = SurjElement.unit()
    terms = []
    for k in range(1, max_grade + 1):
        power = diamond(power, x, max_grade=max_grade)
        terms.append(power * Fraction((-1) ** (k - 1), k))
    return SurjElement.sum(terms)


def log_identity_closed_form(max_grade: int) -> SurjElement:
    """The same element from the descent law directly, one arity bucket
    per arity: bucket n holds kernels.grade_table(n)'s surjections in
    (k, lex) order, and beside each f the numerator of
    descent_coefficient(n, d), d the descent count of f, over one
    denominator, the lcm of every arity's law.

    The one builder of the log element: matrix_log,
    strichartz_restriction and flowmaps._flow_log_element each read its
    buckets.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    laws = {n: [descent_coefficient(n, d) for d in range(n)] for n in range(1, max_grade + 1)}
    den = lcm(*(c.denominator for law in laws.values() for c in law))
    classes = {}
    for n, law in laws.items():
        surjs, descents = grade_table(n)
        by_descents = [c.numerator * (den // c.denominator) for c in law]
        classes[n] = dict(zip(surjs, map(by_descents.__getitem__, descents)))
    return SurjElement._raw(classes, den)


def log_identity_subset_form(max_grade: int) -> SurjElement:
    """Third route: alternating sum of descent-subset sums.

    For each arity n, sum over subsets I of {1, ..., n-1} of
    (-1)^|I| / (|I| + 1) times the sum of surjections with descents in I.
    Exponential in n; intended as a cross-check, not a compute path.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    out = SurjElement.zero()
    for n in range(1, max_grade + 1):
        for I in _subsets(range(1, n)):
            coeff = Fraction((-1) ** len(I), len(I) + 1)
            out = out + descent_sum_within(n, I) * coeff
    return out


def _subsets(items: Iterable[int]):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def subset_alternating_sum(n: int, positions: Iterable[int]) -> Fraction:
    """Sum of (-1)^|J| / (|J|+1) over supersets J of the given set in [n-1].

    Equals descent_coefficient(n, |I|); the identity that collapses
    the subset form into the closed form.  Exact rational arithmetic over
    2^(n-1-|I|) supersets, so n is bounded by the grade cap.
    """
    n = check_grade(_count("n", n))
    base = _check_positions(n, positions)
    rest = [i for i in range(1, n) if i not in base]
    total = Fraction(0)
    for extra in _subsets(rest):
        size = len(base) + len(extra)
        total += Fraction((-1) ** size, size + 1)
    return total


def exp_element(e: SurjElement, max_grade: int) -> SurjElement:
    """Truncated exponential: sum of diamond powers over factorials.

    The input must have no grade-0 part, so the sum terminates at the
    max_grade-th power.
    """
    _typed("e", e, SurjElement)
    max_grade = check_grade(_count("max_grade", max_grade))
    if Surjection() in e:
        raise ValueError("exp needs an element with no grade-0 term")
    power = e = e.truncate(max_grade)
    terms = [SurjElement.unit(), e]
    for k in range(2, max_grade + 1):
        power = diamond(power, e, max_grade=max_grade)
        terms.append(power * Fraction(1, factorial(k)))
    return SurjElement.sum(terms)


def strichartz_restriction(max_grade: int) -> SurjElement:
    """Bijection part of the log element.

    Restricting to permutations recovers the classical flow-logarithm
    coefficients of chronological calculus: (-1)^d / (n * binomial(n-1, d))
    with d the number of strict descents of the permutation.  Each arity
    bucket of log_identity_closed_form keeps its bijections (f onto its
    arity), over the element's denominator.
    """
    full = log_identity_closed_form(max_grade)
    return SurjElement._raw(
        {n: {f: c for f, c in part.items() if max(f) == n} for n, part in full._classes.items()},
        full._den,
    )
