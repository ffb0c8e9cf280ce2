"""Every module-level import in the package is used by its module.

No linter runs on this repository, so this AST scan (stdlib only) is the
guard against imports left behind when the code that used them goes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hecke_lab"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never mentions.

    A string constant that is a bare identifier counts as a mention: that
    covers `__all__` re-exports and quoted annotations.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scanner_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Optional, Iterable as It\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'It') -> None:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
