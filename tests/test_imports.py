"""Every imported name is read somewhere in its file.

``perfbench/`` is left out: it imports its layers to patch them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in (ROOT / "src" / "usteen").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no ``ast.Name`` reads; an
    attribute chain ``a.b.c`` reads its base ``a`` as a Name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_the_scan_sees_unused_imports():
    src = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nx = d\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
