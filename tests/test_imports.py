"""Every module-level import of the package is used by its module."""

import ast
import pathlib

import pytest

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
