"""Repository hygiene: no tracked file is one that .gitignore marks as
generated, and no library module rebinds a module-level name from a function."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked but ignored:\n{listed.stdout}"


def test_library_has_no_global_statement():
    # state that must be settable lives in a ContextVar (see itoflow._config)
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {', '.join(node.names)}"
        for path in sorted((ROOT / "src" / "itoflow").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []
