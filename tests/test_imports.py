"""Every import is used: each name an import binds in src/, tests/ or tools/
is read somewhere in its module, unless the import says ``# noqa: F401``
(a re-export). Standard library only, so the check needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds and the module never reads.
    A read anywhere in the module counts, whatever the scope; an import
    statement with ``# noqa: F401`` on any of its lines is skipped."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = [(alias.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
             for alias in node.names if alias.name != "*" and getattr(node, "module", None) != "__future__"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy.testing as npt\nnp = 1\nnp\n", [(1, "npt")]),
    ("from a import b, c as d\nb\n", [(1, "d")]),
    ("from a import (\n    b,\n    c,\n)\nc\n", [(2, "b")]),
    ("from a import b  # noqa: F401  (re-exported)\n", []),
    ("from a import (  # noqa: F401\n    b,\n)\n", []),
    ("def f():\n    import numpy\n    return numpy\n", []),
    ("from __future__ import annotations\nfrom a import *\n", []),
])
def test_unused_imports_finds_each_unread_binding(source, unused):
    assert unused_imports(source) == unused


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests", "tools") for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
