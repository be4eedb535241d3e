"""JSON round trips, exactness of encoded rationals, stable ordering."""

import json
from fractions import Fraction

import pytest

from itoflow import (
    BracketWord,
    Expansion,
    SurjElement,
    Surjection,
    enumerate_grade,
    log_identity_closed_form,
    matrix_ito_taylor,
    MatrixExpansion,
)
from itoflow.flowmaps import (
    DriverAlphabet,
    LogTerm,
    log_flow_terms,
    terms_from_json,
    terms_to_json,
)
from itoflow.words import frac_from_json


def test_expansion_coefficients_survive_as_strings():
    huge = Fraction(10**60 + 7, 10**59 + 1)
    e = huge * Expansion.of(BracketWord([(1,)]))
    blob = json.loads(json.dumps(e.to_json_dict()))
    assert blob["terms"][0]["coeff"]["num"] == str(huge.numerator)
    assert Expansion.from_json_dict(blob) == e


def test_expansion_terms_sorted_by_word():
    e = Expansion.of(BracketWord([(2,), (1,)])) + Expansion.of(
        BracketWord([(1,)])
    )
    blob = e.to_json_dict()
    word_lists = [t["word"] for t in blob["terms"]]
    assert word_lists == sorted(word_lists, key=lambda w: (len(w), w))


def test_surj_element_round_trip_on_log():
    el = log_identity_closed_form(4)
    blob = json.loads(json.dumps(el.to_json_dict()))
    assert SurjElement.from_json_dict(blob) == el


def test_surj_element_grade_field():
    homogeneous = SurjElement({Surjection(f): Fraction(1) for f in enumerate_grade(2)})
    assert homogeneous.to_json_dict()["grade"] == 2
    mixed = homogeneous + SurjElement.of(Surjection((1,)))
    assert mixed.to_json_dict()["grade"] is None


def test_log_term_list_round_trip():
    terms = log_flow_terms(DriverAlphabet(n_primary=2), 3)
    blob = json.loads(json.dumps(terms_to_json(terms)))
    assert terms_from_json(blob) == terms


def test_matrix_expansion_round_trip():
    m = matrix_ito_taylor(2, 3)
    blob = json.loads(json.dumps(m.to_json_dict()))
    assert MatrixExpansion.from_json_dict(blob) == m


def test_matrix_expansion_header_names_encoding():
    blob = matrix_ito_taylor(2, 1).to_json_dict()
    assert blob["dim"] == 2
    assert "row-major" in blob["letter_encoding"]


@pytest.mark.parametrize(
    "coeff",
    [0.1, 1.0, True, False, {"num": 0.5, "den": "1"}, {"num": "1", "den": 2.0}, {"num": True, "den": "1"}],
    ids=["float", "integral-float", "true", "false", "float-num", "float-den", "bool-num"],
)
def test_inexact_coefficients_are_refused(coeff):
    with pytest.raises(ValueError, match="inexact"):
        frac_from_json(coeff)
    blob = {"terms": [{"word": [[1]], "coeff": coeff}]}
    with pytest.raises(ValueError):
        Expansion.from_json(json.dumps(blob))


@pytest.mark.parametrize(
    "coeff, value",
    [({"num": "-3", "den": "4"}, Fraction(-3, 4)), (7, Fraction(7)), ("2/6", Fraction(1, 3))],
)
def test_exact_coefficients_are_read(coeff, value):
    assert frac_from_json(coeff) == value


def _matrix_blob():
    return matrix_ito_taylor(2, 1).to_json_dict()


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(lambda: {}, id="empty"),
        pytest.param(lambda: {k: v for k, v in _matrix_blob().items() if k != "entries"}, id="no-entries"),
        pytest.param(lambda: {k: v for k, v in _matrix_blob().items() if k != "dim"}, id="no-dim"),
        pytest.param(lambda: {**_matrix_blob(), "entries": 5}, id="entries-not-rows"),
    ],
)
def test_malformed_matrix_json_raises_value_error(blob):
    assert MatrixExpansion.from_json_dict(_matrix_blob()) == matrix_ito_taylor(2, 1)
    with pytest.raises(ValueError):
        MatrixExpansion.from_json_dict(blob())
    with pytest.raises(ValueError):
        MatrixExpansion.from_json(json.dumps(blob()))


GOOD_TERM = {"n": 2, "partition": [[1, 2]], "coeff": {"num": "-1", "den": "2"}}


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"n": None}, id="no-n"),
        pytest.param({"partition": None}, id="no-partition"),
        pytest.param({"coeff": None}, id="no-coeff"),
        pytest.param({"coeff": {"num": "1", "den": "0"}}, id="zero-den"),
        pytest.param({"coeff": -0.5}, id="float-coeff"),
    ],
)
def test_malformed_log_term_json_raises_value_error(change):
    assert LogTerm.from_json_dict(GOOD_TERM).coeff == Fraction(-1, 2)
    bad = {k: v for k, v in {**GOOD_TERM, **change}.items() if v is not None}
    with pytest.raises(ValueError):
        LogTerm.from_json_dict(bad)
    with pytest.raises(ValueError):
        terms_from_json(json.dumps({"terms": [bad]}))


def test_log_term_list_without_terms_raises_value_error():
    with pytest.raises(ValueError):
        terms_from_json("{}")
