"""Every name a pcvote module imports at module level is used there, and
no module holds an `assert` statement.

A leftover import outlives the code that needed it and hides that the
code is gone; `__init__.py` is exempt, since its imports are the package's
re-exports. An `assert` is stripped under `python -O`, so a library
invariant is guarded by an explicit `InternalError` or `DomainError`
instead. Read with the standard library's `ast`, with no import run.
"""

import ast
from pathlib import Path

import pytest

import pcvote

PACKAGE = Path(pcvote.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line; `__future__`
    imports bind none."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string
    annotations such as `"Ranking"`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_the_modules_are_found():
    assert {"efficiency.py", "rules.py", "model.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from .model import _scaled, Lottery\nimport math\n\ndef f(x: 'Lottery'):\n    return x\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"_scaled", "math"}


def _asserts(tree: ast.Module) -> list[int]:
    """The line of every `assert` statement in the module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_holds_an_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _asserts(tree)
    assert not lines, f"{path.name} has assert statements, which python -O strips, at lines {lines}"


def test_an_assert_is_caught():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n")
    assert _asserts(tree) == [3]
