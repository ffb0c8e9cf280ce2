"""Every module-level import in the package is used by its module, every
definition in the package is reached from the package, a tool or the
benchmark (tests do not count), every function the benchmark's tracer wraps
exists, every dataclass field is read somewhere, the whole-group oracle
imports nothing of the routes it checks, the fixture manifest, the pass
thresholds and the least-squares solver are named only in the modules that
own them (and np.linalg.cond in none), every module loads
only numpy and the standard library, and each side of the package loads
only its own modules: `import hecke_lab` loads none, the exact and
numerical sides load none of each other's past the bounds of IMPORT_BOUNDS,
and `campaign` binds the exact side on first use.

No linter runs on this repository, so these AST scans (stdlib only) are the
guard against imports and definitions left behind when the code that used
them goes.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hecke_lab"
PERFBENCH = ROOT / "perfbench"
# where a mention keeps a package definition alive: a definition that only
# tests reach belongs in tests/
CALLER_DIRS = [PACKAGE, ROOT / "tools", PERFBENCH]
# definitions the benchmark reaches where the scanner cannot see it:
# perfbench/spans.BOUNDARY wraps the first two by name, and
# perfbench/workloads.character_record calls `ok` on an untyped receiver
BENCHMARK_REACHED = ("enumerate_Kg", "InducedRep.piL_basis", "SpectralReport.ok")
# dataclass fields only tests read: the fixed vectors themselves, which the
# tests check against the group action
TEST_READ_FIELDS = ("FixedSubspace.basis_exponents",)
# test oracles only: the package must neither import nor mention them
ORACLE_PACKAGES = ("scipy", "sympy")
# what groupconv, the whole-group oracle, may import at any depth from
# cosets: group arithmetic and label naming, never canonical forms,
# decompositions or transport; from hecke and induced it imports nothing
GROUPCONV_FROM_COSETS = {
    "MatArray", "_BLOCK_ELEMENTS", "all_labels", "k0_order", "label_rep",
}
CHECKED_ROUTES = ("hecke", "induced")
# words the package may name only in the modules given: the fixture
# manifest's file name where it is parsed, the pass-threshold table where it
# is held and where it is applied
# the one least-squares routine is spaces.least_squares, which also gives
# the condition numbers: no module calls another solver or np.linalg.cond
CONFINED = {
    "families.json": ("spaces.py",), "TOLERANCE": ("newspace.py", "campaign.py"),
    "lstsq": ("spaces.py",), "linalg.cond": (),
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# (modules imported, package modules they must not load): the bare package
# loads nothing; the support law's modules load no numerical module and not
# `induced`; `induced` loads no numerical module; the numerical side, the
# campaign and the command included, loads only `characters` and
# `cyclotomic` of the exact side (`campaign` binds the rest on first use);
# `spectra`, the closed forms both sides read, loads no other module
NUMERICAL = ("campaign", "cli", "newspace", "operators", "qexp", "spaces", "dimoracle")
EXACT_ONLY = ("cosets", "hecke", "groupconv", "induced", "permsum")
IMPORT_BOUNDS = [
    ((), tuple(MODULES)),
    (("hecke", "cosets", "characters"), NUMERICAL + ("induced", "permsum")),
    (("induced",), NUMERICAL),
    (("qexp", "spaces", "operators", "dimoracle"), EXACT_ONLY),
    (("newspace", "campaign", "cli"), EXACT_ONLY),
    (("spectra",), tuple(m for m in MODULES if m != "spectra")),
]


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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> list[tuple[str, int]]:
    """Module-level functions and classes as (name, line), and the methods of
    module-level classes as ("Class.method", line).  Dunders are left out at
    both levels: the interpreter calls them (a module's `__getattr__`, a
    class's `__repr__`)."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not is_dunder(node.name):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    is_dunder(item.name)
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
        "def __getattr__(name): pass\n"
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
    # re-exports in __init__.py do not count as callers; the allowlist must
    # be exactly what the scanner cannot see, so a stale entry fails too
    callers = [
        path.read_text()
        for base in CALLER_DIRS
        for path in sorted(base.rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    defined = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = callerless(defined, callers)
    assert sorted(entry.split(": ")[1] for entry in found) == sorted(BENCHMARK_REACHED), found


def test_benchmark_bindings_resolve(monkeypatch):
    """Each function perfbench/spans.BOUNDARY names resolves in the package,
    as a module function or as "Class.method", read without installing the
    recorder; each name of BENCHMARK_REACHED is still named in perfbench's
    sources, as a string or an attribute."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    boundary = importlib.import_module("spans").BOUNDARY
    for modname, entries in boundary.items():
        home = importlib.import_module(f"hecke_lab.{modname}")
        for attr, *_ in entries:
            target = home
            for part in attr.split("."):
                target = getattr(target, part, None)
            assert callable(target), f"{modname}.{attr}"
    named = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    for name in BENCHMARK_REACHED:
        assert name in named or name.split(".")[-1] in named, name


def dataclass_fields(source: str) -> list[tuple[str, int]]:
    """The fields of module-level dataclasses as ("Class.field", line)."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                 for d in node.decorator_list}
        if "dataclass" not in names:
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out.append((f"{node.name}.{item.target.id}", item.lineno))
    return out


def unread_fields(defined: dict[str, str], callers: list[str]) -> list[str]:
    """Dataclass fields of `defined` (a file name per source) whose name no
    source in `callers` reads as an attribute.  Matching is by bare name:
    a write, a keyword argument or a string of the same spelling is not a
    read."""
    reads = set()
    for src in callers:
        reads |= {node.attr for node in ast.walk(ast.parse(src))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{name} line {line}: {fld}" for name, src in defined.items()
            for fld, line in dataclass_fields(src) if fld.split(".")[1] not in reads]


def test_scanner_finds_unread_fields():
    lib = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    written: int\n"
        "    named: int\n"
        "    LIMIT = 3\n"
        "@dataclass\n"
        "class B:\n"
        "    kept: int\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    caller = (
        "def f(a, b):\n"
        "    b.written = a.read + b.kept\n"
        "    return A(read=1, written=2, named=3), getattr(a, 'named')\n"
    )
    assert unread_fields({"lib.py": lib}, [lib, caller]) == [
        "lib.py line 5: A.written",
        "lib.py line 6: A.named",
    ]


def test_no_unread_dataclass_fields():
    # readers are the package, tools/ and perfbench/, as for definitions; the
    # allowlist must be exactly what only tests read, so a stale entry fails
    callers = [
        path.read_text()
        for base in CALLER_DIRS
        for path in sorted(base.rglob("*.py"))
    ]
    defined = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = unread_fields(defined, callers)
    assert sorted(entry.split(": ")[1] for entry in found) == sorted(TEST_READ_FIELDS), found


def route_imports(source: str) -> list[str]:
    """Imports, at any depth, by which groupconv would lean on the routes it
    checks: a name from cosets outside GROUPCONV_FROM_COSETS, or any import
    from CHECKED_ROUTES, relative or absolute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            pairs = [(alias.name.split(".")[-1], None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module in ("", "hecke_lab"):  # `from . import cosets`
                pairs = [(alias.name, None) for alias in node.names]
            else:
                pairs = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in pairs:
            if module in CHECKED_ROUTES or (
                module == "cosets" and name not in GROUPCONV_FROM_COSETS
            ):
                out.append(f"line {node.lineno}: {module}.{name or '*'}")
    return out


def test_scanner_finds_route_imports():
    source = (
        "from .cosets import MatArray, coset_table\n"
        "from .hecke import supported_basis\n"
        "from hecke_lab.cosets import label_rep, _left_transport\n"
        "from . import induced\n"
        "import hecke_lab.cosets\n"
        "from .characters import PChar\n"
        "def f():\n"
        "    from .hecke import _basis_product_cached\n"
    )
    assert route_imports(source) == [
        "line 1: cosets.coset_table",
        "line 2: hecke.supported_basis",
        "line 3: cosets._left_transport",
        "line 4: induced.*",
        "line 5: cosets.*",
        "line 8: hecke._basis_product_cached",
    ]


def test_groupconv_imports_only_group_arithmetic():
    assert route_imports((PACKAGE / "groupconv.py").read_text()) == []


def word_mentions(source: str, words) -> list[str]:
    """Lines, each once, where an import (its module or a name it imports,
    with the module it comes from), a name, an attribute (with the name or
    attribute it is read from, so `np.linalg.cond` holds "linalg.cond") or
    a string constant (docstrings included) contains one of `words`, at any
    depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            base = node.value
            found = [f"{getattr(base, 'attr', getattr(base, 'id', ''))}.{node.attr}"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = [node.value]
        else:
            continue
        line = f"line {node.lineno}"
        if line not in out and any(word in text for text in found for word in words):
            out.append(line)
    return out


def test_scanner_finds_oracle_mentions():
    source = (
        '"""Docstring naming sympy."""\n'
        "import numpy as np\n"
        "def f():\n"
        "    from scipy.stats import qmc\n"
        "    return __import__('scipy.sparse')\n"
    )
    assert word_mentions(source, ORACLE_PACKAGES) == ["line 1", "line 4", "line 5"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_mentions_oracle_packages(path):
    assert word_mentions(path.read_text(), ORACLE_PACKAGES) == []


def confinement_breaches(sources: dict[str, str]) -> list[str]:
    """Mentions (word_mentions) of a CONFINED word in a source, given per
    file name, outside the modules that the word is confined to."""
    return [
        f"{name} {line}: {word}"
        for word, homes in CONFINED.items()
        for name, src in sources.items() if name not in homes
        for line in word_mentions(src, [word])
    ]


def test_scanner_finds_confined_words_outside_their_modules():
    sources = {
        "spaces.py": "MANIFEST = 'families.json'\nX = np.linalg.lstsq(A, B, rcond=None)\n",
        "campaign.py": "from .newspace import TOLERANCE\n",
        "operators.py": "def f(V, W):\n    return np.linalg.lstsq(V, W)[0], np.linalg.cond(V)\n",
        "newspace.py": "from numpy.linalg import cond\n",
        "cli.py": (
            '"""Reads families.json."""\n'
            "from . import newspace\n"
            "def f(base, x):\n"
            "    return base / f'{x}families.json', newspace.TOLERANCE['quad']\n"
        ),
        "report.py": "from .newspace import TOLERANCE as limits\n",
    }
    assert confinement_breaches(sources) == [
        "cli.py line 1: families.json",
        "cli.py line 4: families.json",
        "cli.py line 4: TOLERANCE",
        "report.py line 1: TOLERANCE",
        "operators.py line 2: lstsq",
        "operators.py line 2: linalg.cond",
        "newspace.py line 1: linalg.cond",
    ]


def test_manifest_and_thresholds_stay_in_their_modules():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert confinement_breaches(sources) == []


def run_fresh(code: str, timeout: int = 60) -> str:
    """Standard output of `code` run in a fresh interpreter from src/."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True,
        check=True, timeout=timeout,
    )
    return out.stdout.strip()


def test_import_loads_no_oracle_package():
    # every module pkgutil finds, so a new module is covered too
    code = (
        "import importlib, pkgutil, sys, hecke_lab\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(hecke_lab.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('hecke_lab.' + name)\n"
        "print(names)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {ORACLE_PACKAGES!r}))\n"
    )
    names, oracles = map(ast.literal_eval, run_fresh(code).splitlines())
    assert names == MODULES
    assert oracles == []


@pytest.mark.parametrize(
    "imported, forbidden", IMPORT_BOUNDS,
    ids=["+".join(imported) or "package" for imported, _ in IMPORT_BOUNDS],
)
def test_each_side_loads_only_its_modules(imported, forbidden):
    assert set(forbidden) <= set(MODULES), sorted(set(forbidden) - set(MODULES))
    code = (
        "import sys, hecke_lab\n"
        + "".join(f"import hecke_lab.{name}\n" for name in imported)
        + "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('hecke_lab.')))\n"
    )
    loaded = ast.literal_eval(run_fresh(code))
    assert sorted(set(loaded) & set(forbidden)) == []


def test_campaign_binds_the_exact_side_on_first_use():
    """campaign loads hecke and induced on a run's first grid cell and
    binds their routes as its attributes; run_verify calls whatever is bound
    there, so a route set on the module beforehand (as the benchmark's
    GridCapture does) is the one called; other names stay unknown."""
    code = (
        "import sys\n"
        "from hecke_lab import campaign\n"
        "def loaded():\n"
        "    return [m for m in ('hecke', 'induced') if 'hecke_lab.' + m in sys.modules]\n"
        "print(loaded())\n"
        "assert campaign.run_verify(campaign.Campaign(grid=[{'p': 3, 'n': 1}])).ok\n"
        "print(loaded())\n"
        "from hecke_lab import hecke, induced\n"
        "print([campaign.verify_relations is hecke.verify_relations,\n"
        "       campaign.verify_induced is induced.verify_induced])\n"
        "calls = []\n"
        "def relations(p, n, chi):\n"
        "    calls.append((p, n, chi.conrey_index()))\n"
        "    return hecke.verify_relations(p, n, chi)\n"
        "campaign.verify_relations = relations\n"
        "assert campaign.run_verify(campaign.Campaign(grid=[{'p': 5, 'n': 1, 'conrey': 2}])).ok\n"
        "print(calls)\n"
        "try:\n"
        "    campaign.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(repr(str(exc)))\n"
    )
    before, after, bound, calls, error = map(ast.literal_eval, run_fresh(code).splitlines())
    assert (before, after, bound) == ([], ["hecke", "induced"], [True, True])
    assert calls == [(5, 1, 2)]
    assert error == "module 'hecke_lab.campaign' has no attribute 'no_such_name'"


def test_default_campaign_never_loads_numpy_ma():
    """numpy 2.4's bare `np.unique` imports `numpy.ma` (about 6 ms and
    0.4 MB); no route of the default campaign may reach it."""
    code = (
        "import sys\n"
        "from hecke_lab.campaign import Campaign, run_verify\n"
        "assert run_verify(Campaign.default()).ok\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert run_fresh(code, timeout=120) == "False"
