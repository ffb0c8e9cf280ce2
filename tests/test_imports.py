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
    """Module-level functions and classes as (name, line), and the non-dunder
    methods of module-level classes as ("Class.method", line)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append((f"{node.name}.{item.name}", item.lineno))
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


CONTAINERS = {"list", "tuple", "set", "frozenset", "dict", "Iterable", "Iterator", "Sequence"}


def annotation_type(node, classes: set[str]):
    """What an annotation says of a value, bare or quoted: a class of
    `classes` (an instance of it), ("iter", class) for a container whose
    last class argument it is (list[C], tuple[C, ...], dict[K, C]), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else None
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        found = [t for t in (annotation_type(a, classes) for a in args) if isinstance(t, str)]
        if not found:
            return None
        return ("iter", found[-1]) if node.value.id in CONTAINERS else found[-1]
    return None


def declared_types(sources: list[str], classes: set[str]) -> dict:
    """The types annotations give: function name -> return type, and
    "Class.name" -> the return type of a method or property, or the type of
    a field annotated in the class body or as `self.name: T = ...`."""
    out = {}

    def record(key, annotation):
        t = annotation_type(annotation, classes)
        if t:
            out[key] = t

    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                record(node.name, node.returns)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    record(f"{node.name}.{item.target.id}", item.annotation)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    record(f"{node.name}.{item.name}", item.returns)
                    for sub in ast.walk(item):
                        target = getattr(sub, "target", None)
                        if (isinstance(sub, ast.AnnAssign) and isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name) and target.value.id == "self"):
                            record(f"{node.name}.{target.attr}", sub.annotation)
    return out


class _MethodReads(ast.NodeVisitor):
    """The "Class.method" reads of one source: attributes read on a receiver
    whose class is known from `self` or `cls`, a class name, a call of a
    class, a parameter annotation, an assignment, a loop or comprehension
    over an annotated container, or a declared return or field type.  A read
    on a receiver of unknown class is recorded as "?.attr"; one on an
    imported module is not recorded."""

    def __init__(self, classes: set[str], declared: dict):
        self.classes, self.declared = classes, declared
        self.found: set[str] = set()
        self.modules: set[str] = set()
        self.owner: list[str] = []
        self.scopes: list[dict] = [{}]

    def visit_Import(self, node):
        self.modules.update((a.asname or a.name).split(".")[0] for a in node.names)

    def visit_ImportFrom(self, node):
        # lowercase names imported from a package are taken for modules
        self.modules.update(a.asname or a.name for a in node.names if a.name.islower())

    def visit_ClassDef(self, node):
        self.owner.append(node.name)
        self.generic_visit(node)
        self.owner.pop()

    def visit_FunctionDef(self, node):
        scope = {}
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if self.owner and args:
            classmethod_ = any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
            scope[args[0].arg] = ("type", self.owner[-1]) if classmethod_ else self.owner[-1]
        for a in args:
            t = annotation_type(a.annotation, self.classes)
            if t:
                scope[a.arg] = t
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def bind(self, target, t):
        if isinstance(target, ast.Name) and t:
            self.scopes[-1][target.id] = t

    def visit_Assign(self, node):
        self.generic_visit(node)
        for target in node.targets:
            self.bind(target, self.type_of(node.value))

    def visit_For(self, node):
        self.visit(node.iter)
        self.bind(node.target, self.element_of(node.iter))
        for child in node.body + node.orelse:
            self.visit(child)

    def visit_ListComp(self, node):
        self.scopes.append({})
        for gen in node.generators:
            self.visit(gen.iter)
            self.bind(gen.target, self.element_of(gen.iter))
            for cond in gen.ifs:
                self.visit(cond)
        for part in ("elt", "key", "value"):
            if hasattr(node, part):
                self.visit(getattr(node, part))
        self.scopes.pop()

    visit_SetComp = visit_GeneratorExp = visit_DictComp = visit_ListComp

    def visit_Attribute(self, node):
        self.generic_visit(node)
        t = self.type_of(node.value)
        if t != "module":
            self.found.add(f"{self.class_of(t) or '?'}.{node.attr}")

    @staticmethod
    def class_of(t):
        """The class of an instance or of a class itself."""
        if isinstance(t, tuple):
            return t[1] if t[0] == "type" else None
        return t

    def element_of(self, node):
        t = self.type_of(node)
        return t[1] if isinstance(t, tuple) and t[0] == "iter" else None

    def type_of(self, node):
        """A class name for an instance, ("type", class) for a class,
        ("iter", class) for a container of instances, "module", or None."""
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            if node.id in self.classes:
                return ("type", node.id)
            return "module" if node.id in self.modules else None
        if isinstance(node, ast.Subscript):
            return self.element_of(node.value)
        func = node.func if isinstance(node, ast.Call) else node
        if isinstance(func, ast.Name):
            return func.id if func.id in self.classes else self.declared.get(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        t = self.type_of(func.value)
        if t == "module":
            return func.attr if func.attr in self.classes else self.declared.get(func.attr)
        if func.attr == "values" and isinstance(t, tuple) and t[0] == "iter":
            return t
        cls = self.class_of(t)
        return self.declared.get(f"{cls}.{func.attr}") if cls else None


def callerless(defined: dict[str, str], callers: list[str]) -> list[str]:
    """Keys of `defined` (a file name per source) whose definitions no source
    in `callers` mentions.

    A module-level function or class is matched by its bare name.  A method
    is matched as "Class.method": by an attribute read on a receiver of that
    class, or on a receiver of unknown class when no other class defines a
    method of that name."""
    defs = {name: definitions(src) for name, src in defined.items()}
    found = [fn for entries in defs.values() for fn, _ in entries]
    classes = {fn.split(".")[0] for fn in found if "." in fn} | {
        fn for fn in found if fn[:1].isupper()
    }
    declared = declared_types(list(defined.values()), classes)
    used, reads = set(), set()
    for src in callers:
        used |= mentions(src)
        visitor = _MethodReads(classes, declared)
        visitor.visit(ast.parse(src))
        reads |= visitor.found
    owners: dict[str, int] = {}
    for fn in found:
        if "." in fn:
            owners[fn.split(".")[1]] = owners.get(fn.split(".")[1], 0) + 1

    def reached(fn):
        if "." not in fn:
            return fn in used
        attr = fn.split(".")[1]
        return fn in reads or (owners[attr] == 1 and f"?.{attr}" in reads)

    return [f"{name} line {line}: {fn}" for name, entries in defs.items() for fn, line in entries
            if not reached(fn)]


def test_scanner_finds_callerless_definitions():
    lib = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def __repr__(self): pass\n"
        "    def to_dict(self): pass\n"
        "class B:\n"
        "    def to_dict(self): pass\n"
        "    def make(self) -> 'A':\n"
        "        return A()\n"
        "def helper(): pass\n"
        "def orphan():\n"
        "    def inner(): pass\n"
        "    return inner\n"
    )
    caller = (
        "from lib import A as C, B, helper\n"
        "def f(b: B, x):\n"
        "    b.make().used()\n"
        "    x.unused()\n"
        "    return b.to_dict(), x.to_dict()\n"
        "y = 'orphan'\n"
    )
    # x.unused is a read on an unknown receiver of a name only A defines;
    # x.to_dict could be either class's, so it reaches neither
    assert callerless({"lib.py": lib}, [lib, caller]) == [
        "lib.py line 5: A.to_dict",
        "lib.py line 11: orphan",
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
