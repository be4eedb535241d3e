"""Repository hygiene: no tracked file is one that .gitignore marks as
generated, no library module rebinds a module-level name from a function,
and no public library function takes a private parameter."""

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


def test_public_functions_take_no_private_parameter():
    # a parameter named _x on a public function is an option its callers
    # are told not to set: either it is part of the interface or it goes
    found = []
    for path in sorted((ROOT / "src" / "itoflow").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            found += [f"{node.name}.{p.arg}" for p in params if p.arg.startswith("_")]
    assert found == []
