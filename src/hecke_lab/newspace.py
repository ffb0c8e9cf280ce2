"""Newspace identification through joint operator eigenspaces.

A form of level N is new exactly when it sits in the (-1)-eigenspace of the
involution-normalized operators at every exact prime divisor with trivial
local character, and in the kernel of the survey operators at every higher
prime power whose local character factor is imprimitive.  The intersection
is cut out in one shot by a stacked SVD so a single spectral gap certifies
the whole computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import _factorize
from .dimoracle import dim_new
from .operators import (
    OpMatrix,
    eigenspace,
    nullspace,
    op_Q,
    op_Qprime,
    op_S,
    op_Sprime,
    quad_ratio,
)
from .qexp import op_Vp
from .spaces import CuspSpace

PLACEMENT_TOL = 1e-6


def qualifying_primes(N: int, chi) -> list[dict]:
    """Prime data at which the characterizing operators exist: exact prime
    divisors with trivial local factor ('Q') and higher powers p^n || N with
    imprimitive local factor ('S')."""
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    out = []
    for p, e in _factorize(N):
        c = chi.components[p].conductor_exponent
        if e == 1 and c == 0:
            out.append({"p": p, "n": 1, "kind": "Q"})
        elif e >= 2 and c < e:
            out.append({"p": p, "n": e, "kind": "S"})
    return out


@dataclass
class OpReport:
    label: str
    target: complex
    roots: tuple[complex, complex]
    quad: float
    eig_dist: float
    residual: float
    conditioning: float
    poisoned: bool
    eigen_dim: int


@dataclass
class CharacterizeResult:
    level: int
    weight: int
    conrey: int
    dim: int
    new_dim: int
    expected_new: int
    gap: float
    basis: np.ndarray
    ops: list[OpReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.new_dim == self.expected_new


# The newspace eigenvalue lam of each kind of characterizing operator; every
# operator of the kind satisfies (A - lam)(A - p) = 0 (for S the eigenvalues
# are 0 and p^(n-r) with r = n - 1).
_NEW_EIGENVALUE = {"Q": -1.0, "S": 0.0}


def operator_spectrum(kind: str, p: int) -> tuple[float, tuple[float, float]]:
    """The newspace eigenvalue of the operators of a kind at p, and the roots
    of their quadratic relation."""
    lam = _NEW_EIGENVALUE[kind]
    return lam, (lam, float(p))


def _operator_suite(space: CuspSpace) -> list[tuple[OpMatrix, complex, tuple[complex, complex]]]:
    """The characterizing operators with their newspace eigenvalue and the
    roots of their quadratic relation."""
    suite = []
    for q in qualifying_primes(space.level, space.char):
        p, kind = q["p"], q["kind"]
        lam, roots = operator_spectrum(kind, p)
        builders = (op_Q, op_Qprime) if kind == "Q" else (op_S, op_Sprime)
        suite += [(build(space, p), lam, roots) for build in builders]
    return suite


def _op_report(op: OpMatrix, target: complex, roots) -> OpReport:
    quad = quad_ratio(op, *roots)
    if op.dim:
        eigs = np.linalg.eigvals(op.matrix)
        eig_dist = float(
            max(min(abs(e - r) for r in roots) for e in eigs)
        )
        eigen_dim = eigenspace(op, target).basis.shape[1]
    else:
        eig_dist = 0.0
        eigen_dim = 0
    return OpReport(
        op.label, target, tuple(roots), quad, eig_dist,
        op.residual, op.conditioning, op.poisoned, eigen_dim,
    )


def characterize(space: CuspSpace) -> CharacterizeResult:
    """Cut out the newspace as the joint eigenspace of the characterizing
    operators and compare its dimension with the trace-formula count."""
    expected = dim_new(space.level, space.weight, space.char)
    conrey = space.char.conrey_index()
    suite = _operator_suite(space)
    reports = [_op_report(op, lam, roots) for op, lam, roots in suite]
    d = space.dim
    if d == 0:
        return CharacterizeResult(
            space.level, space.weight, conrey, 0, 0, expected,
            math.inf, np.zeros((0, 0), dtype=np.complex128), reports,
        )
    if not suite:
        # no qualifying primes: every form is new
        return CharacterizeResult(
            space.level, space.weight, conrey, d, d, expected,
            math.inf, np.eye(d, dtype=np.complex128), reports,
        )
    blocks = [op.matrix - lam * np.eye(d) for op, lam, _ in suite]
    basis, gap, _ = nullspace(np.vstack(blocks))
    return CharacterizeResult(
        space.level, space.weight, conrey, d, basis.shape[1], expected,
        gap, basis, reports,
    )


def _embed_coords(space: CuspSpace, coeffs: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    x, mis = space.coordinates(coeffs)
    return x, mis / max(scale, 1e-300)


@dataclass
class Placement:
    name: str
    residual: float
    ok: bool


def _eig_residual(mat: np.ndarray, x: np.ndarray, lam: float) -> float:
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return 0.0
    return float(np.linalg.norm(mat @ x - lam * x)) / nx


def placement_checks(
    space: CuspSpace,
    p: int,
    kind: str,
    lower: CuspSpace,
    tol: float = PLACEMENT_TOL,
) -> list[Placement]:
    """Old-form placement: where images from the lower level land.

    kind 'Q' (lower level N/p): direct embeddings are p-eigenvectors of the
    main operator, dilation images are p-eigenvectors of the conjugated one.
    kind 'S' (lower level p^(n-1) M, r = n-1): direct embeddings are
    p-eigenvectors of the survey operator, dilation images p-eigenvectors of
    its conjugate, and every survey image falls back into the embedded span.
    """
    out: list[Placement] = []
    if lower.level * p != space.level:
        raise ValueError(
            f"lower level {lower.level} is not level/{p} = {space.level // p}"
        )
    if kind == "Q":
        main, conj = op_Q(space, p), op_Qprime(space, p)
    elif kind == "S":
        main, conj = op_S(space, p), op_Sprime(space, p)
    else:
        raise ValueError(f"unknown placement kind {kind!r}")

    for i, g in enumerate(lower.basis):
        scale = float(np.linalg.norm(g.coeffs))
        x, emb_res = _embed_coords(space, g.coeffs, scale)
        out.append(Placement(f"embed[{i}]", emb_res, emb_res <= tol))
        r = _eig_residual(main.matrix, x, float(p))
        out.append(Placement(f"{main.label} embed[{i}] eig {p}", r, r <= tol))

        vg = op_Vp(g, p)
        xv, emb_res_v = _embed_coords(space, vg.coeffs, float(np.linalg.norm(vg.coeffs)))
        out.append(Placement(f"dilate[{i}]", emb_res_v, emb_res_v <= tol))
        r = _eig_residual(conj.matrix, xv, float(p))
        out.append(Placement(f"{conj.label} dilate[{i}] eig {p}", r, r <= tol))

    if kind == "S":
        # survey images land in the span of the embedded lower level
        C = space.coeff_matrix()
        lowmat = lower.coeff_matrix()[:, : space.prec]
        for j in range(space.dim):
            img = main.matrix[:, j]
            vec = C.T @ img
            scale = float(np.linalg.norm(space.basis[j].coeffs))
            if lower.dim == 0:
                mis = float(np.linalg.norm(vec))
            else:
                A = lowmat.T
                y, *_ = np.linalg.lstsq(A, vec, rcond=None)
                mis = float(np.linalg.norm(A @ y - vec))
            r = mis / max(scale, 1e-300)
            out.append(Placement(f"{main.label} image[{j}] in lower span", r, r <= tol))
    return out
