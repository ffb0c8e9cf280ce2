"""Every module-level import in the package is used by its module, every
definition in the package is reached from somewhere, and importing the
package loads only numpy and the standard library.

No linter runs on this repository, so these AST scans (stdlib only) are the
guard against imports and definitions left behind when the code that used
them goes.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hecke_lab"
# where a mention keeps a package definition alive
CALLER_DIRS = [PACKAGE, ROOT / "tests", ROOT / "tools", ROOT / "perfbench"]
# test oracles only: the package must neither import nor mention them
ORACLE_PACKAGES = ("scipy", "sympy")


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


def definitions(source: str) -> list[tuple[str, int]]:
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes, as (name, line)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append((item.name, item.lineno))
    return out


def mentions(source: str) -> set[str]:
    """Identifiers a source file mentions: names, attributes and imported names.

    Strings do not count, so a definition reached only through a string of
    the same spelling is still reported.
    """
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def callerless(defined: dict[str, str], callers: list[str]) -> list[str]:
    """Keys of `defined` (a file name per source) whose definitions no source
    in `callers` mentions."""
    used = set().union(*(mentions(src) for src in callers))
    return [
        f"{name} line {line}: {fn}"
        for name, src in defined.items()
        for fn, line in definitions(src)
        if fn not in used
    ]


def test_scanner_finds_callerless_definitions():
    lib = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def __repr__(self): pass\n"
        "def helper(): pass\n"
        "def orphan():\n"
        "    def inner(): pass\n"
        "    return inner\n"
    )
    caller = "from lib import A as B, helper\nB().used()\nx = 'orphan'\n"
    assert callerless({"lib.py": lib}, [lib, caller]) == [
        "lib.py line 3: unused",
        "lib.py line 6: orphan",
    ]


def test_no_callerless_definitions():
    # re-exports in __init__.py do not count as callers
    callers = [
        path.read_text()
        for base in CALLER_DIRS
        for path in sorted(base.rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    defined = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert callerless(defined, callers) == []


def oracle_mentions(source: str) -> list[str]:
    """Lines where an import, a name, an attribute or a string constant
    (docstrings included) names one of ORACLE_PACKAGES, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            words = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            words = [node.module or ""]
        elif isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = [node.value]
        else:
            continue
        if any(pkg in word for word in words for pkg in ORACLE_PACKAGES):
            out.append(f"line {node.lineno}")
    return out


def test_scanner_finds_oracle_mentions():
    source = (
        '"""Docstring naming sympy."""\n'
        "import numpy as np\n"
        "def f():\n"
        "    from scipy.stats import qmc\n"
        "    return __import__('scipy.sparse')\n"
    )
    assert oracle_mentions(source) == ["line 1", "line 4", "line 5"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_mentions_oracle_packages(path):
    assert oracle_mentions(path.read_text()) == []


def test_import_loads_no_oracle_package():
    code = (
        "import sys, hecke_lab, hecke_lab.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {ORACLE_PACKAGES!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
