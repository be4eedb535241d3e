"""The README's Python examples run as doctests, each block on its own."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each ```python block's body, without its fences, and the 0-based line
# of its first example
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_every_python_block_is_found():
    assert len(BLOCKS) == TEXT.count("\n```python\n") > 0


@pytest.mark.parametrize("start, block", BLOCKS, ids=[f"line-{s + 1}" for s, _ in BLOCKS])
def test_the_example_runs_as_shown(start, block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), start)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
