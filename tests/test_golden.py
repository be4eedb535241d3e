"""Golden outputs: exact series are pinned term for term.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces)
of one exact result.  A refactor of the algebra must leave every digest
unchanged; a change that alters a result on purpose must say why and
re-pin it.
"""

import hashlib
import json

import pytest

from itoflow import (
    DriverAlphabet,
    exp_element,
    log_identity_closed_form,
    log_identity_series,
    log_flow_expansion,
    matrix_exp,
    matrix_log,
)

GOLDEN = [
    (
        "matrix_log(2,4)",
        lambda: matrix_log(2, 4),
        "338d577cc0b4813ab1bda219e0724a98ee1c8acaa441c9eb6d010fd47f89f932",
    ),
    (
        "matrix_exp(matrix_log(2,4),4)",
        lambda: matrix_exp(matrix_log(2, 4), 4),
        "76314bdb9982b240d75b10f7747ed5a80f6b2f70a875abd62805e5969b841794",
    ),
    (
        "matrix_log(3,3)",
        lambda: matrix_log(3, 3),
        "287c75923c937c776d2f543179d48f0ce17603081ff542facabcd5fce430fddc",
    ),
    (
        "log_identity_series(6)",
        lambda: log_identity_series(6),
        "276249c0689b42cf255ec700bddf4bd285d7c419961f6e09fa8c5eaedd969144",
    ),
    (
        "exp_element(log_identity_closed_form(5),5)",
        lambda: exp_element(log_identity_closed_form(5), 5),
        "2f22eee621040ab8f52fda34eea3505a97203a581eaea6468a796fc5d0bb8004",
    ),
    (
        "log_flow_expansion(DriverAlphabet(2),5)",
        lambda: log_flow_expansion(DriverAlphabet(2), 5),
        "210506e980b929cc0365947fac41d0003dcc3d3262ebf184e8ef9a61e55ce14c",
    ),
    (
        "log_flow_expansion(DriverAlphabet(2,continuous=False),5)",
        lambda: log_flow_expansion(DriverAlphabet(2, continuous=False), 5),
        "3e2cf603c0147e25d3fd82ed1c429868c8c7783714626b8495ad5856644a93cd",
    ),
    (
        "log_flow_expansion(DriverAlphabet(3,jumps,cross_brackets,no_qv),4)",
        lambda: log_flow_expansion(
            DriverAlphabet(3, continuous=False, cross_brackets_zero=False, paired_qv=False), 4
        ),
        "5c713b0bd794ac2378c2572747ff99feb6366a3fdfc5d8291ce5e7f357b49904",
    ),
]


def canonical_digest(obj) -> str:
    text = json.dumps(obj.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "build, digest", [pytest.param(b, d, id=name) for name, b, d in GOLDEN]
)
def test_exact_output_is_unchanged(build, digest):
    assert canonical_digest(build()) == digest
