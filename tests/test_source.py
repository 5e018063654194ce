"""Checks on the source of the package itself, with the standard library's ``ast``."""

import ast
import re
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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, methods, classes, module constants and class-level
    attributes (dataclass fields among them) that nothing outside their own
    definition reads.

    ``sources`` maps module names to their source.  A name counts as read
    when any module, outside the defining node, loads it as a name or an
    attribute or imports it.  Attributes are matched by name alone, so a
    read of ``x._a`` keeps every private ``_a`` alive.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = []
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads.append((sub.id, sub))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.append((sub.attr, sub))
            elif isinstance(sub, ast.alias):
                reads.append((sub.name, sub))
    found = []
    for module, tree in trees.items():
        scopes = [tree]
        while scopes:
            for node in scopes.pop().body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                    if isinstance(node, ast.ClassDef):
                        scopes.append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [sub.id for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Name)]
                else:
                    continue
                inside = {id(sub) for sub in ast.walk(node)}
                found += [f"{module}: {name} (line {node.lineno})" for name in names
                          if name.startswith("_") and not name.startswith("__")
                          and not any(read == name and id(sub) not in inside
                                      for read, sub in reads)]
    return found


def test_the_checker_finds_a_dead_private_function():
    sources = {"a": ("def _used():\n    pass\ndef _dead():\n    _used()\n"
                     "def _recursive():\n    _recursive()\n"
                     "_USED, _DEAD = 1, 2\n"
                     "class _Held:\n"
                     "    _field: int = 0\n"
                     "    _read: int = 0\n"
                     "    def _helper(self):\n        return self._helper()\n"
                     "    def _called(self):\n        return _USED\n"
                     "    def run(self):\n        return self._called()\n"
                     "def __getattr__(name):\n    pass\n"),
               "b": "from a import _Held\nimport a\na._used()\nh = _Held()\nh._field = h._read\n"}
    # _field is only stored, and _recursive and _helper read only themselves
    assert dead_private_names(sources) == [
        "a: _dead (line 3)", "a: _recursive (line 5)", "a: _DEAD (line 7)",
        "a: _field (line 9)", "a: _helper (line 11)"]


def test_every_private_function_or_class_is_read_elsewhere_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads.

    A parameter counts as read when its body, nested functions included,
    loads it as a name; its own defaults and annotations do not count.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs]
        params += [p.arg for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        found += [f"{name}: {p} (line {node.lineno})" for p in params if p not in read]
    return found


def test_the_checker_finds_an_unused_parameter():
    source = ("def f(a, b, *, c: int = 0, **kw):\n    b = a\n    return lambda t, _j=c: t\n"
              "def g(x, y=None):\n    def h(z=y):\n        return x + z\n    return h\n")
    # c and y are read by the defaults of a nested lambda and function
    assert unused_parameters(source) == ["f: b (line 1)", "f: kw (line 1)", "lambda: _j (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_parameter_it_never_reads(module):
    assert unused_parameters(module.read_text(encoding="utf-8")) == []


def unresolved_references(sources: dict[str, str]) -> list[str]:
    """``:func:``, ``:meth:``, ``:class:`` and ``:mod:`` targets in docstrings
    that name nothing defined in the package.

    ``sources`` maps module names to their source.  A target resolves when
    it is a module (``m`` or ``lagflow.m``), or a function, class or method
    by its name or its qualified name (``C.m``), bare or after its module.
    Functions nested in functions are not targets.
    """
    defined, docstrings = set(), []
    for module, source in sources.items():
        defined |= {module, f"lagflow.{module}"}
        pending = [(ast.parse(source), "")]
        while pending:
            node, prefix = pending.pop()
            docstrings.append((module, node))
            for sub in node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = prefix + sub.name
                    defined |= {sub.name, qual, f"{module}.{qual}", f"lagflow.{module}.{qual}"}
                    pending.append((sub, qual + "."))
    found = []
    for module, node in docstrings:
        for role, target in re.findall(r":(func|meth|class|mod):`([^`]+)`",
                                       ast.get_docstring(node) or ""):
            if target not in defined:
                found.append(f"{module}: :{role}:`{target}`")
    return found


def test_the_checker_finds_a_reference_to_nothing():
    sources = {"a": ('"""See :mod:`b`, :mod:`lagflow.a` and :func:`gone`."""\n'
                     "class C:\n"
                     '    """:meth:`m`, :meth:`C.m`, :meth:`C.gone`, :func:`b.f`."""\n'
                     "    def m(self):\n"
                     '        """:class:`a.C`, :func:`inner`."""\n'
                     "        def inner():\n            pass\n"),
               "b": 'def f():\n    """:func:`lagflow.a.C.m`."""\n'}
    assert unresolved_references(sources) == [
        "a: :func:`gone`", "a: :meth:`C.gone`", "a: :func:`inner`"]


def test_every_docstring_reference_names_something_in_the_package():
    sources = {("lagflow" if p.stem == "__init__" else p.stem): p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unresolved_references(sources) == []
