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
from typing import Callable

import numpy as np

from .cyclotomic import _factorize
from .dimoracle import dim_cusp, dim_new
from .operators import (
    OpMatrix,
    nullspace,
    op_Q,
    op_Qprime,
    op_S,
    op_Sprime,
    quad_ratio,
)
from .qexp import op_Vp
from .spaces import CuspSpace
from .spectra import table_eigenvalue, u_eigenvalue

# The pass thresholds of the classical checks, fixed: the campaign and
# placement_checks apply them, and a campaign file cannot set them.
TOLERANCE = {
    "quad": 1e-6,
    "mult": 1e-6,
    "placement": 1e-6,
    "dual_route": 1e-8,
    "w_square": 1e-8,
    "eig_dist": 1e-6,
    "gap_min": 1e3,
}


@dataclass(frozen=True)
class QualifyingPrime:
    """A prime power p^n || N at which the characterizing operators exist.

    builders holds the main operator and its W-conjugate, called through
    operator(); each satisfies (A - roots[0])(A - roots[1]) = 0, with
    roots[0] their eigenvalue on the newspace and roots[1] on the old forms.
    Both act at r: roots[1] occurs dim S_k(N/p^(n-r), chi) times, the
    forms that come from that level (Casselman's count of fixed vectors)."""

    p: int
    n: int
    r: int
    builders: tuple[Callable[..., OpMatrix], Callable[..., OpMatrix]]
    roots: tuple[float, float]

    def operator(
        self, which: int, space: CuspSpace, flipped_space: CuspSpace | None = None,
    ) -> OpMatrix:
        """builders[which] on space: 0 the main operator, 1 its W-conjugate,
        which passes through flipped_space, the twin whose character has its
        p-factor inverted (required where that factor is non-real)."""
        if which == 0:
            return self.builders[0](space, self.p)
        return self.builders[1](space, self.p, flipped_space=flipped_space)


def qualifying_primes(N: int, chi) -> list[QualifyingPrime]:
    """The prime powers p^n || N whose local character factor is imprimitive
    (conductor exponent c < n).  Their spectra are the closed forms of
    `spectra`, which `induced`'s certificates check on the exact side;
    reading them here loads no module of the exact side:

    Q (n = 1, c = 0) is the classical form of U on I(1) for the trivial
    twist: -1 on w- (new) and p on w+ (old);
    S at r = n - 1 (n >= 2) is the classical form of Y_r: 0 on the top
    component i = n (new) and p^(n-r) on the bottom one i = max(c, 1) (old).
    """
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    out = []
    for p, n in _factorize(N):
        c = chi.components[p].conductor_exponent
        if c >= n:
            continue
        r = n - 1  # op_S's default; Q at n = 1 acts at r = 0
        if n == 1:
            builders = (op_Q, op_Qprime)
            spectrum = (u_eigenvalue("w-", p, n), u_eigenvalue("w+", p, n))
        else:
            builders = (op_S, op_Sprime)
            spectrum = tuple(table_eigenvalue("Y", p, n, i, r) for i in (n, max(c, 1)))
        out.append(QualifyingPrime(p, n, r, builders, tuple(float(v) for v in spectrum)))
    return out


@dataclass
class OpReport:
    label: str
    roots: tuple[float, float]
    quad: float
    eig_dist: float
    old_mult: float  # m1, the old root's multiplicity read off the trace
    expected_old: int  # m1 by the dimension oracle
    residual: float
    conditioning: float
    poisoned: bool


@dataclass
class CharacterizeResult:
    level: int
    weight: int
    dim: int
    new_dim: int
    expected_new: int
    gap: float
    basis: np.ndarray
    ops: list[OpReport] = field(default_factory=list)


def _old_dim(space: CuspSpace, q: QualifyingPrime) -> int:
    """The oracle's multiplicity of q's old root on space: dim S_k(N/p^(n-r), chi)."""
    level = space.level // q.p ** (q.n - q.r)
    return dim_cusp(level, space.weight, space.char.at_modulus(level))


def op_report(op: OpMatrix, roots: tuple[float, float], expected_old: int) -> OpReport:
    """What the verdicts on one operator read: its quadratic-relation ratio
    for roots, the distance of its farthest eigenvalue from the nearer root,
    the multiplicity of the old root roots[1], m1 = (tr A - roots[0] d) /
    (roots[1] - roots[0]) on a space of dimension d (the real part of the
    trace: the eigenvalues sit at the real roots), beside expected_old, and
    the health of its solve."""
    quad = quad_ratio(op, *roots)
    eig_dist = 0.0
    if op.dim:
        eigs = np.linalg.eigvals(op.matrix)
        eig_dist = float(max(min(abs(e - r) for r in roots) for e in eigs))
    old_mult = (float(np.trace(op.matrix).real) - roots[0] * op.dim) / (roots[1] - roots[0])
    return OpReport(
        op.label, roots, quad, eig_dist, old_mult, expected_old,
        op.residual, op.conditioning, op.poisoned,
    )


def characterize(space: CuspSpace, flipped_space: CuspSpace | None = None) -> CharacterizeResult:
    """Cut out the newspace as the joint eigenspace of the characterizing
    operators and compare its dimension with the trace-formula count.
    flipped_space is the conjugate-character twin the W-conjugates pass
    through (QualifyingPrime.operator).  The oracle predicts each operator's
    old multiplicity once per qualifying prime (_old_dim)."""
    expected = dim_new(space.level, space.weight, space.char)
    quals = qualifying_primes(space.level, space.char)
    suite = [(q.operator(which, space, flipped_space), q) for q in quals for which in (0, 1)]
    old_dims = {q.p: _old_dim(space, q) for q in quals}
    reports = [op_report(op, q.roots, old_dims[q.p]) for op, q in suite]
    d = space.dim
    if d == 0 or not suite:
        # an empty space, or no qualifying primes: every form is new
        return CharacterizeResult(
            space.level, space.weight, d, d, expected,
            math.inf, np.eye(d, dtype=np.complex128), reports,
        )
    blocks = [op.matrix - q.roots[0] * np.eye(d) for op, q in suite]
    basis, gap = nullspace(np.vstack(blocks))
    return CharacterizeResult(
        space.level, space.weight, d, basis.shape[1], expected,
        gap, basis, reports,
    )


@dataclass
class Placement:
    name: str
    residual: float
    ok: bool


def _eig_residuals(mat: np.ndarray, X: np.ndarray, lam: float) -> list[float]:
    """||mat x - lam x|| / ||x|| for each column x of X, 0 where x = 0."""
    nx = np.linalg.norm(X, axis=0)
    r = np.linalg.norm(mat @ X - lam * X, axis=0)
    return np.divide(r, nx, out=np.zeros_like(r), where=nx > 0).tolist()


def placement_checks(
    space: CuspSpace, p: int, lower: CuspSpace, flipped_space: CuspSpace | None = None,
) -> list[Placement]:
    """Old-form placement at a qualifying prime p, against the lower level
    N/p: direct embeddings are eigenvectors of the main operator, and
    dilation images of its W-conjugate, with the old eigenvalue roots[1]
    (p at both kinds).  Where the main operator kills the newspace (the
    survey operator: roots 0 and p), A (A - p) = 0 makes A/p a projection
    onto its old eigenspace, so every image of A falls back into the
    embedded span.  Each check passes at residual TOLERANCE["placement"].
    A p that does not qualify raises ValueError.  flipped_space is handed
    to the W-conjugate as in characterize.
    """
    q = next((q for q in qualifying_primes(space.level, space.char) if q.p == p), None)
    if q is None:
        raise ValueError(f"no characterizing operator at p = {p} for level {space.level}")
    if lower.level * p != space.level:
        raise ValueError(
            f"lower level {lower.level} is not level/{p} = {space.level // p}"
        )
    main, conj = (q.operator(which, space, flipped_space) for which in (0, 1))
    old = q.roots[1]
    rows: list[tuple[str, float]] = []
    if lower.dim:
        # the embeddings and the dilations of the lower basis, one solve each,
        # each misfit relative to its form's norm (a loaded basis has no zero form)
        dilated = np.stack([op_Vp(g, p).coeffs for g in lower.basis], axis=1)
        x, emb, _ = space.coordinates(lower.coeffs.T)
        xv, emb_v, _ = space.coordinates(dilated)
        emb = (emb / np.linalg.norm(lower.coeffs, axis=1)).tolist()
        emb_v = (emb_v / np.linalg.norm(dilated, axis=0)).tolist()
        eig, eig_v = _eig_residuals(main.matrix, x, old), _eig_residuals(conj.matrix, xv, old)
        for i in range(lower.dim):
            rows += [(f"embed[{i}]", emb[i]), (f"{main.label} embed[{i}] eig {p}", eig[i]),
                     (f"dilate[{i}]", emb_v[i]), (f"{conj.label} dilate[{i}] eig {p}", eig_v[i])]
    if q.roots[0] == 0.0:
        # the main operator kills the newspace: its images are old forms
        _, mis, _ = lower.coordinates(space.coeffs.T @ main.matrix)
        res = (mis / np.linalg.norm(space.coeffs, axis=1)).tolist()
        rows += [(f"{main.label} image[{j}] in lower span", r) for j, r in enumerate(res)]
    return [Placement(name, r, r <= TOLERANCE["placement"]) for name, r in rows]
