"""Shared test configuration: relax the symbolic size caps.

The default caps are small on purpose (they catch accidental blowups in
interactive use); the tests deliberately build larger objects, so raise
them once for the whole session.  Tests that exercise the cap machinery
itself set their own values in a nested ``with caps(...)`` block.
"""

import pytest

from itoflow import caps


@pytest.fixture(autouse=True, scope="session")
def _relaxed_caps():
    with caps(weight=64, grade=16):
        yield
