"""Cusp-form spaces backed by q-expansion fixture files."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .characters import DirChar
from .qexp import QExpansion

MIN_PRECISION = 64
_INDEPENDENCE_TOL = 1e-8


class SpaceFormatError(ValueError):
    """Fixture file fails schema or mathematical validation."""


@dataclass
class CuspSpace:
    level: int
    weight: int
    char: DirChar
    basis: list[QExpansion]
    prec: int
    # operators.op_matrix and op_U(route="coeff") results with this space as
    # domain, built once each
    _op_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coeff_matrix(self) -> np.ndarray:
        """Basis coefficients, forms along rows."""
        if not self.basis:
            return np.zeros((0, self.prec), dtype=np.complex128)
        return np.stack([f.coeffs for f in self.basis])

    def coordinates(self, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares coordinates of a coefficient vector in this basis,
        with the relative misfit.  The residual is measured against the
        larger of the target norm and the given scale floor of 1."""
        vec = np.asarray(coeffs, dtype=np.complex128)
        L = min(self.prec, len(vec))
        b = vec[:L]
        if self.dim == 0:
            return np.zeros(0, dtype=np.complex128), float(np.linalg.norm(b))
        A = self.coeff_matrix()[:, :L].T
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        mis = float(np.linalg.norm(A @ x - b))
        return x, mis

    def membership_residual(self, coeffs: np.ndarray, scale: float | None = None) -> float:
        """Distance of a coefficient vector from the span, relative to scale
        (default: the vector's own norm, floored at 1)."""
        vec = np.asarray(coeffs, dtype=np.complex128)
        _, mis = self.coordinates(vec)
        if scale is None:
            scale = max(float(np.linalg.norm(vec[: self.prec])), 1.0)
        return mis / max(scale, 1e-300)


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

    for key in ("level", "weight", "character", "precision", "basis"):
        if key not in doc:
            raise SpaceFormatError(f"fixture missing key {key!r}")
    level, weight = int(doc["level"]), int(doc["weight"])
    prec = int(doc["precision"])
    try:
        chi = DirChar.from_spec(doc["character"])
    except (ValueError, KeyError) as exc:
        raise SpaceFormatError(f"bad character spec: {exc}") from exc
    if chi.modulus != level:
        raise SpaceFormatError("character modulus differs from the level")

    rows = doc["basis"]
    if rows and prec < MIN_PRECISION:
        raise SpaceFormatError(f"precision {prec} below minimum {MIN_PRECISION}")
    if rows and chi.parity() != (-1) ** weight:
        raise SpaceFormatError(
            f"parity violation: chi(-1) = {chi.parity()} with weight {weight}"
        )

    basis = []
    for i, row in enumerate(rows):
        if len(row) != prec:
            raise SpaceFormatError(f"form {i} has {len(row)} coefficients, expected {prec}")
        try:
            basis.append(QExpansion.from_pairs(weight, row, label=f"b{i}"))
        except ValueError as exc:
            raise SpaceFormatError(f"form {i}: {exc}") from exc

    if basis:
        mat = np.stack([f.coeffs for f in basis])
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= _INDEPENDENCE_TOL * sv[0]:
            raise SpaceFormatError(f"near-dependent basis: singular values {sv}")

    return CuspSpace(level, weight, chi, basis, prec)


def fixture_dir() -> Path:
    """Directory of the fixtures shipped with the package."""
    return Path(__file__).resolve().parent / "fixtures"


def load_families(directory: Path | None = None) -> list[dict]:
    """Family manifest entries, each with 'space' and 'lower' resolved to
    loaded CuspSpace objects; a fixture named by several entries is loaded
    once per call and shared by them."""
    base = Path(directory) if directory is not None else fixture_dir()
    manifest = json.loads((base / "families.json").read_text())
    loaded: dict[str, CuspSpace] = {}

    def space(stem: str) -> CuspSpace:
        if stem not in loaded:
            loaded[stem] = load_space(base / (stem + ".json"))
        return loaded[stem]

    out = []
    for fam in manifest["families"]:
        entry = dict(fam)
        entry["space"] = space(fam["space"])
        entry["lower"] = {int(lv): space(stem) for lv, stem in fam.get("lower", {}).items()}
        out.append(entry)
    return out
