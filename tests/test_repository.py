"""Repository hygiene: no tracked file is one that .gitignore marks as
generated, no library module rebinds a module-level name from a function,
every library memo has a stated finite size, no public library function
takes a private parameter, every argument check goes through
itoflow._config, and no public name hides a submodule."""

import ast
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import itoflow

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


def _callee_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else None


def _literal_maxsize(decorator):
    if not isinstance(decorator, ast.Call):
        return None  # bare @lru_cache / @cache: the size is not stated
    given = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
    if given and isinstance(given[0], ast.Constant):
        value = given[0].value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def test_library_memos_are_bounded():
    # a memo without a stated finite size grows with every distinct argument
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in sorted((ROOT / "src" / "itoflow").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
        if _callee_name(d) in ("lru_cache", "cache") and _literal_maxsize(d) is None
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


def _inline_check(node):
    """An np.isfinite call, an isinstance(x, bool), or a str.isdigit,
    isdecimal or isnumeric call: the checks that _config._finite,
    _config._count and _config._decimal make."""
    if not isinstance(node, ast.Call):
        return False
    if _callee_name(node) in ("isfinite", "isdigit", "isdecimal", "isnumeric"):
        return True
    return (
        _callee_name(node) == "isinstance"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "bool"
    )


def test_argument_checks_live_in_config():
    # _count checks integers, _decimal integers written as text and _finite
    # float inputs; a copy elsewhere drifts
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "itoflow").rglob("*.py"))
        if path.name != "_config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _inline_check(node)
    ]
    assert found == []


def test_no_public_name_is_a_submodule_name():
    # a package attribute named after a submodule shadows it: `import
    # itoflow.x as m` would bind the attribute, not the module
    submodules = {m.name for m in pkgutil.iter_modules(itoflow.__path__)}
    assert sorted(submodules.intersection(itoflow.__all__)) == []
