"""JSON round trips, exactness of encoded rationals, stable ordering."""

import json
from fractions import Fraction

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
from itoflow.flowmaps import DriverAlphabet, log_flow_terms, terms_from_json, terms_to_json


def test_expansion_coefficients_survive_as_strings():
    huge = Fraction(10**60 + 7, 10**59 + 1)
    e = huge * Expansion.of_word(BracketWord([(1,)]))
    blob = json.loads(json.dumps(e.to_json_dict()))
    assert blob["terms"][0]["coeff"]["num"] == str(huge.numerator)
    assert Expansion.from_json_dict(blob) == e


def test_expansion_terms_sorted_by_word():
    e = Expansion.of_word(BracketWord([(2,), (1,)])) + Expansion.of_word(
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
