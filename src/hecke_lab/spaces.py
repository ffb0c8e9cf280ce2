"""Cusp-form spaces backed by q-expansion fixture files.

Fixture format 3 stores each basis form as a JSON list of its `precision`
coefficients a_1, a_2, ..., each an integer below 2^53 in absolute value,
so that its float is exact.  `load_space` reads a space's forms into one
read-only complex128 array and refuses any other entry;
tools/build_fixtures.py writes the shipped fixtures.  `least_squares` is
the one least-squares solve of the classical side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .characters import DirChar
from .qexp import QExpansion

MIN_PRECISION = 64
MANIFEST = "families.json"  # a fixture directory's family manifest
_INDEPENDENCE_TOL = 1e-8
_EXACT_BOUND = 2**53  # every integer below it in absolute value is a float


class SpaceFormatError(ValueError):
    """Fixture file fails schema or mathematical validation."""


@dataclass
class CuspSpace:
    level: int
    weight: int
    char: DirChar
    # basis coefficients a_1..a_prec, forms along rows: read-only complex128
    coeffs: np.ndarray
    # the basis forms, views of the rows of coeffs
    basis: list[QExpansion] = field(init=False)
    # operators.op_matrix and op_U(route="coeff") results with this space as
    # domain, built once each
    _op_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = [QExpansion(self.weight, row) for row in self.coeffs]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def prec(self) -> int:
        return self.coeffs.shape[1]

    def coordinates(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """least_squares of a block of coefficient columns against this basis,
        over the coefficients both hold (callers scale the misfits).  A dim-0
        space makes no solve: every column is all misfit."""
        B = np.asarray(block, dtype=np.complex128)[: self.prec]
        if self.dim == 0:
            X = np.zeros((0, B.shape[1]), dtype=np.complex128)
            return X, np.linalg.norm(B, axis=0), np.zeros(0)
        return least_squares(self.coeffs[:, : len(B)].T, B)


def least_squares(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least-squares solution X of A X = B for every column of B in one
    np.linalg.lstsq call, each column's absolute misfit ||A x - b||, and the
    descending singular values of A that the call computes."""
    X, _, _, sv = np.linalg.lstsq(A, B, rcond=None)
    return X, np.linalg.norm(A @ X - B, axis=0), sv


def _entry_error(i: int) -> SpaceFormatError:
    return SpaceFormatError(
        f"form {i} is not a format-3 entry (a list of precision integers, each below "
        "2^53 in absolute value): rebuild the fixtures with tools/build_fixtures.py"
    )


def load_space(source) -> CuspSpace:
    """Build a CuspSpace from a fixture path, JSON string, or dict."""
    if isinstance(source, (str, Path)) and str(source).lstrip().startswith("{"):
        doc = json.loads(source)
    elif isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, dict):
        doc = source
    else:
        raise SpaceFormatError(f"unsupported fixture source {type(source)!r}")

    if not isinstance(doc, dict):
        raise SpaceFormatError("a fixture must hold a JSON object")
    for key in ("level", "weight", "character", "precision", "basis"):
        if key not in doc:
            raise SpaceFormatError(f"fixture missing key {key!r}")
    for key in ("level", "weight", "precision"):
        if type(doc[key]) is not int:
            raise SpaceFormatError(f"fixture {key} must be an integer, not {doc[key]!r}")
    level, weight, prec = doc["level"], doc["weight"], doc["precision"]
    if level < 1:
        raise SpaceFormatError(f"fixture level must be at least 1, not {level}")
    if weight < 2:
        raise SpaceFormatError(f"fixture weight must be at least 2, not {weight}")
    if prec < MIN_PRECISION:
        raise SpaceFormatError(f"precision {prec} below minimum {MIN_PRECISION}")
    spec = doc["character"]
    if not (isinstance(spec, dict)
            and all(type(spec.get(key)) is int for key in ("modulus", "conrey"))):
        raise SpaceFormatError(
            f"fixture character must be an object with an integer modulus and conrey, not {spec!r}"
        )
    try:
        chi = DirChar.from_spec(spec)
    except ValueError as exc:
        raise SpaceFormatError(f"bad character spec: {exc}") from exc
    if chi.modulus != level:
        raise SpaceFormatError("character modulus differs from the level")

    rows = doc["basis"]
    if not isinstance(rows, list):
        raise SpaceFormatError(f"fixture basis must be a list, not {rows!r}")
    if rows and chi.parity() != (-1) ** weight:
        raise SpaceFormatError(
            f"parity violation: chi(-1) = {chi.parity()} with weight {weight}"
        )

    exact = np.empty((len(rows), prec), dtype=np.int64)
    for i, entry in enumerate(rows):
        # a bool, a float (NaN included) or a list is not an int
        if not (type(entry) is list and len(entry) == prec and set(map(type, entry)) == {int}):
            raise _entry_error(i)
        try:
            exact[i] = entry
        except OverflowError:  # past int64
            raise _entry_error(i) from None
    coeffs = exact.astype(np.complex128)
    # an integer below 2^53 in absolute value converts exactly, any other
    # to a float of at least 2^53 in absolute value
    far = np.flatnonzero((np.abs(coeffs.real) >= _EXACT_BOUND).any(axis=1))
    if far.size:
        raise _entry_error(int(far[0]))
    coeffs.flags.writeable = False

    if rows:
        sv = np.linalg.svd(coeffs, compute_uv=False)
        if sv[-1] <= _INDEPENDENCE_TOL * sv[0]:
            raise SpaceFormatError(f"near-dependent basis: singular values {sv}")

    return CuspSpace(level, weight, chi, coeffs)


def fixture_dir() -> Path:
    """Directory of the fixtures shipped with the package."""
    return Path(__file__).resolve().parent / "fixtures"


def _manifest_families(base: Path) -> list[dict]:
    """The family entries of a directory's manifest: SpaceFormatError unless
    it holds an object with a "families" list of objects, each naming a
    string "name" and "space", with an optional string "flipped" and an
    optional "lower" object from levels to stems."""
    doc = json.loads((base / MANIFEST).read_text())
    families = doc.get("families") if isinstance(doc, dict) else None
    if not isinstance(families, list):
        raise SpaceFormatError(f"{MANIFEST} must hold an object with a 'families' list")
    for fam in families:
        if not (isinstance(fam, dict) and isinstance(fam.get("name"), str)
                and isinstance(fam.get("space"), str)):
            raise SpaceFormatError(f"family {fam!r} must be an object with a string name and space")
        if not isinstance(fam.get("flipped", ""), str):
            raise SpaceFormatError(f"family {fam['name']}: flipped must be a fixture stem")
        lower = fam.get("lower", {})
        if not (isinstance(lower, dict)
                and all(lv.isdigit() and isinstance(stem, str) for lv, stem in lower.items())):
            raise SpaceFormatError(f"family {fam['name']}: lower must map levels to fixture stems")
    return families


def load_families(directory: Path | None = None) -> list[dict]:
    """Family manifest entries, each with 'space', 'lower' and 'flipped'
    (the optional conjugate-character twin of 'space', None when not named)
    resolved to loaded CuspSpace objects; a fixture named by several entries
    is loaded once per call and shared by them.  A lower fixture or twin of
    another level or weight than its place in the family is refused here."""
    base = Path(directory) if directory is not None else fixture_dir()
    space = cache(lambda stem: load_space(base / (stem + ".json")))
    out = []
    for fam in _manifest_families(base):
        entry = dict(fam)
        sp = entry["space"] = space(fam["space"])
        entry["lower"] = {int(lv): space(stem) for lv, stem in fam.get("lower", {}).items()}
        entry["flipped"] = space(fam["flipped"]) if "flipped" in fam else None
        named = [("lower", stem, int(lv)) for lv, stem in fam.get("lower", {}).items()]
        named += [("flipped", fam["flipped"], sp.level)] if "flipped" in fam else []
        for role, stem, level in named:
            have, want = (space(stem).level, space(stem).weight), (level, sp.weight)
            if have != want:
                raise SpaceFormatError(f"family {fam['name']}: {role} fixture {stem} has level "
                                       "{} and weight {}, not {} and {}".format(*have, *want))
        out.append(entry)
    return out
