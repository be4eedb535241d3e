"""Repository hygiene: no tracked file is one that .gitignore marks as
generated, no library module rebinds a module-level name from a function,
every library memo is kept by kernels._kept with a stated finite size,
no public library function
takes a private parameter, every argument check goes through
itoflow._config, no public name hides a submodule, and every inline
Python script in the CI workflow parses and reads only names that
exist."""

import ast
import importlib
import pkgutil
import re
import shutil
import subprocess
import textwrap
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


def _library_trees():
    for path in sorted((ROOT / "src" / "itoflow").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _literal_size(decorator):
    """The size of a @_kept(cap, size) decorator, when it is an int literal."""
    if not isinstance(decorator, ast.Call):
        return None
    given = [k.value for k in decorator.keywords if k.arg == "size"] + decorator.args[1:2]
    if given and isinstance(given[0], ast.Constant):
        value = given[0].value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def test_library_memos_are_bounded():
    # a memo without a stated finite size grows with every distinct argument
    kept = [
        (f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}", _literal_size(d))
        for path, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
        if _callee_name(d) == "_kept"
    ]
    assert kept, "no @_kept memo found"
    assert [site for site, size in kept if size is None] == []


MEMOS = ("lru_cache", "cache")


def _memo_references(tree):
    """Every use of functools.lru_cache or functools.cache in a module,
    under any name an import binds to it."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in MEMOS}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield node
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield node


def test_every_library_memo_is_kept_by_one_rule():
    # kernels._kept is the one keep-or-rebuild rule; a memo made elsewhere
    # could keep shapes past the default caps, or state the rule again
    found, homes = [], 0
    for path, tree in _library_trees():
        rule = set()
        if path.name == "kernels.py":
            home = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_kept"]
            homes += len(home)
            rule = {id(n) for h in home for n in ast.walk(h)}
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in _memo_references(tree)
            if id(node) not in rule
        ]
    assert found == []
    assert homes == 1


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
    isdecimal, isnumeric or isascii call: the checks that _config._finite,
    _config._count, _config._decimal and _config._ascii make."""
    if not isinstance(node, ast.Call):
        return False
    if _callee_name(node) in ("isfinite", "isdigit", "isdecimal", "isnumeric", "isascii"):
        return True
    return (
        _callee_name(node) == "isinstance"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "bool"
    )


def test_argument_checks_live_in_config():
    # _count checks integers, _decimal and _ascii numbers written as text and
    # _finite float inputs; a copy elsewhere drifts
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


WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _workflow_scripts():
    """Every inline `python -c "..."` script in the CI workflow, dedented
    out of its YAML block; a script holds no double quote."""
    text = WORKFLOW.read_text(encoding="utf-8")
    scripts = re.findall(r'python3? (?:-W \S+ )?-c "([^"]*)"', text)
    assert len(scripts) == text.count('-c "'), "a python -c script was not read"
    return [textwrap.dedent(script) for script in scripts]


def _itoflow_reads(tree):
    """(module, attribute chain) for each name a script imports from
    itoflow, and for each dotted read of a name so bound: after
    `from itoflow import kernels`, `kernels.diamond_plan.kept` reads
    ("itoflow", ["kernels", "diamond_plan", "kept"])."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("itoflow"):
            for a in node.names:
                bound[a.asname or a.name] = (node.module, [a.name])
                yield node.module, [a.name]
        elif isinstance(node, ast.Import):
            bound.update({a.asname or a.name: (a.name, []) for a in node.names})
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            module, prefix = bound[node.id]
            if module.startswith("itoflow"):
                yield module, prefix + chain


def _resolves(module, chain):
    try:
        obj = importlib.import_module(module)
        for attr in chain:
            if not hasattr(obj, attr):  # a submodule not imported yet
                importlib.import_module(f"{obj.__name__}.{attr}")
            obj = getattr(obj, attr)
    except (ImportError, AttributeError, TypeError):
        return False
    return True


def test_workflow_scripts_parse_and_read_names_that_exist():
    # the workflow cannot run here: a script that reads a renamed private
    # name would fail only in CI
    scripts = _workflow_scripts()
    missing = []
    for script in scripts:
        tree = ast.parse(script)
        missing += [
            f"{module}: {'.'.join(chain)}"
            for module, chain in _itoflow_reads(tree)
            if not _resolves(module, chain)
        ]
    assert missing == []
    assert len(scripts) >= 10
