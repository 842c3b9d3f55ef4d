"""Every module-level import of the package is used by its module, every
private name the package defines is used somewhere in the package, every
exception class it defines is raised somewhere in the package, and every
name the package exports resolves."""

import ast
import builtins
import pathlib

import pytest

import morley_ocp

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "morley_ocp"


def unused_imports(source):
    """Names bound by the module's top-level imports that the module never
    references; names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "__all__ = ['dataclass']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "field")]


def unreferenced_private_names(sources):
    """(module, line, name) of the private (single-underscore) module-level
    names and methods defined in ``sources`` (module name -> source) that
    no module of ``sources`` references: loads a name, reads an attribute
    or imports it.  A name only used in ``tests/`` is reported."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                defined.extend((module, n.lineno, n.id)
                               for n in ast.walk(target)
                               if isinstance(n, ast.Name))
            if isinstance(node, ast.ClassDef):
                defined.extend((module, f.lineno, f.name) for f in node.body
                               if isinstance(f, ast.FunctionDef))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
    return sorted(d for d in defined if d[2].startswith("_")
                  and not d[2].startswith("__") and d[2] not in used)


def test_every_private_name_is_used_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PKG.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {
        "a": ("_LIMIT, _SPARE = 1, 2\n"
              "def _helper():\n    return _LIMIT\n"
              "def _orphan():\n    pass\n"
              "class Box:\n"
              "    def __init__(self):\n        self._fill()\n"
              "    def _fill(self):\n        pass\n"
              "    def _stale(self):\n        pass\n"),
        "b": "from .a import _helper\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", 1, "_SPARE"), ("a", 4, "_orphan"), ("a", 11, "_stale")]


def unraised_exception_classes(sources):
    """(module, line, name) of the module-level exception classes defined in
    ``sources`` (module name -> source) that no ``raise`` statement of
    ``sources`` names.  A class is an exception class when one of its bases
    is a built-in exception or an exception class defined in ``sources``."""
    classes, raised = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = [getattr(b, "id", getattr(b, "attr", None))
                         for b in node.bases]
                classes[node.name] = (module, node.lineno, bases)
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))

    def is_exception(name):
        if name in classes:
            return any(is_exception(base) for base in classes[name][2])
        builtin = getattr(builtins, str(name), None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    return sorted((module, line, name)
                  for name, (module, line, _) in classes.items()
                  if is_exception(name) and name not in raised)


def test_every_exception_class_is_raised():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PKG.glob("*.py"))}
    assert unraised_exception_classes(sources) == []


def test_unraised_exception_class_is_found():
    sources = {
        "a": ("class UsedError(Exception):\n    pass\n"
              "class SpareError(ValueError):\n    pass\n"
              "class Plain:\n    pass\n"
              "def check():\n    raise UsedError('bad') from None\n"),
        "b": ("from . import a\n"
              "class ChildError(a.UsedError):\n    pass\n"
              "class OrphanError(ChildError):\n    pass\n"
              "def fail():\n    raise a.ChildError\n"),
    }
    assert unraised_exception_classes(sources) == [
        ("a", 3, "SpareError"), ("b", 4, "OrphanError")]


def test_all_names_resolve():
    # a removed import still listed in __all__ breaks `import *` only
    assert [n for n in morley_ocp.__all__ if not hasattr(morley_ocp, n)] == []
