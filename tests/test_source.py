"""Checks on the source of the package itself, with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

import lagflow

PACKAGE = Path(lagflow.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads.

    A name counts as read when it appears as a name anywhere in the module
    (annotations included) or as a string in ``__all__``.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_checker_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(source) == ["dumps (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy anywhere in the module but a module-level ``__getattr__``."""
    tree = ast.parse(source)
    hooks = {id(node) for top in tree.body
             if isinstance(top, ast.FunctionDef) and top.name == "__getattr__"
             for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in hooks or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        found += [f"{name} (line {node.lineno})" for name in names
                  if name and name.split(".")[0] == "scipy"]
    return found


def test_the_checker_finds_a_scipy_import_outside_the_hooks():
    source = ("import scipy.linalg\n"
              "def f():\n    from scipy.linalg import schur\n"
              "def __getattr__(name):\n    from scipy.optimize import minimize\n")
    assert scipy_imports(source) == ["scipy.linalg (line 1)", "scipy.linalg (line 3)"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_outside_a_getattr_hook(module):
    assert scipy_imports(module.read_text(encoding="utf-8")) == []
