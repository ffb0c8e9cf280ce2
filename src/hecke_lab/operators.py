"""Operator matrices on cusp-form spaces.

Operators act through the weight-k slash action.  A matrix is recovered by
evaluating the basis at well-conditioned sample points in the upper half
plane and solving a least-squares system; columns are coordinates of the
transformed basis vectors.  Every matrix carries its solve residual and
conditioning so downstream checks can refuse unreliable data, both from
the one `spaces.least_squares` call that solves for all its columns.  Each
slash-operator matrix is built once per space and then shared (`op_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .characters import DirChar, unit_group
from .qexp import QExpansion, evaluate_many, op_Utilde
from .spaces import CuspSpace, least_squares

CONDITION_LIMIT = 1e8
RESIDUAL_TOL = 1e-6
IMAG_FLOOR = 0.02
SAMPLE_BAND = (0.08, 0.6)
SAMPLE_ATTEMPTS = 5
HALTON_BATCH = 512
HALTON_POINTS = 40960  # points searched per box before giving up on it
HALTON_STRIDE = 65537  # Halton index at which attempt `skip` starts, per unit of skip
# relative growth of each term's feasibility disc before a box is pruned by
# it: far above the rounding of `_feasible` (sample_points has the proof)
DISC_MARGIN = 1e-9
# IMAG_FLOOR / (1 + DISC_MARGIN) exactly, as (numerator, denominator)
_DISC_S = (Fraction(IMAG_FLOOR) / (1 + Fraction(DISC_MARGIN))).as_integer_ratio()
# singular values at or below RANK_RTOL * max(sigma_max, 1) count as zero
RANK_RTOL = 1e-7


class SamplingError(RuntimeError):
    """No sample set satisfying the half-plane constraints was found."""


@dataclass
class OpMatrix:
    matrix: np.ndarray
    residual: float
    conditioning: float
    poisoned: bool
    label: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _combine(matrix: np.ndarray, parts: list[OpMatrix], label: str) -> OpMatrix:
    res = sum(p.residual for p in parts)
    cond = max((p.conditioning for p in parts), default=1.0)
    poisoned = any(p.poisoned for p in parts)
    return OpMatrix(matrix, res, cond, poisoned, label)


def atkin_lehner_matrix(p: int, n: int, N: int) -> np.ndarray:
    """Integer matrix (p^n b, 1; N c, p^n) of determinant p^n normalizing
    Gamma_0(N), with |b| minimal."""
    q = p**n
    if n < 1 or N % q != 0 or (N // q) % p == 0:
        raise ValueError(f"p^n = {p}^{n} does not exactly divide N = {N}")
    M = N // q
    if M == 1:
        beta = 0
    else:
        beta = pow(q % M, -1, M)
        if beta > M // 2:
            beta -= M
    gamma = (q * q * beta - q) // N
    return np.array([[q * beta, 1], [N * gamma, q]], dtype=np.int64)


def slash_evaluate(forms: list[QExpansion], A, points: np.ndarray) -> np.ndarray:
    """Values det(A)^(k/2) (cz + d)^(-k) f(Az) of f|_k A at the given points
    (det A > 0), one column per form of weight k."""
    (a, b), (c, d) = np.asarray(A)
    det = int(a) * int(d) - int(b) * int(c)
    if det <= 0:
        raise ValueError("slash requires positive determinant")
    z = np.asarray(points, dtype=np.complex128)
    den = c * z + d
    w = (a * z + b) / den
    k = forms[0].weight
    return evaluate_many(forms, w) * (det ** (k / 2) * den ** (-k))[:, None]


def _feasible(z: np.ndarray, mats: list[np.ndarray], t: float) -> np.ndarray:
    ok = np.ones(len(z), dtype=bool)
    for A in mats:
        (a, b), (c, d) = A
        det = int(a) * int(d) - int(b) * int(c)
        ok &= det * z.imag / np.abs(c * z + d) ** 2 >= t
    return ok


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput points: the base-b digits of each index mirrored about
    the radix point.  The float operations run in the usual order (least
    significant digit first, add digit * b^-k, then divide b^-k by b), so the
    points are bit for bit those of the common unscrambled Halton generators
    (tests/test_operators.py compares one).  Each point depends on its own
    index only."""
    out = np.zeros(len(index))
    q = index.copy()
    digit = np.empty_like(q)
    b2r = 1.0 / base
    while q.any():
        np.divmod(q, base, out=(q, digit))
        out += digit * b2r
        b2r /= base
    return out


@lru_cache(maxsize=None)
def _halton(skip: int, start: int) -> np.ndarray:
    """The HALTON_BATCH unscrambled 2-d Halton points (bases 2 and 3) from
    index skip * HALTON_STRIDE + start, shape (HALTON_BATCH, 2), read-only.
    Built when a box first reads it; since each point depends on its own
    index only, the batches are bit for bit the rows of one longer build."""
    index = np.arange(HALTON_BATCH) + (skip * HALTON_STRIDE + start)
    pts = np.column_stack([_radical_inverse(index, 2), _radical_inverse(index, 3)])
    pts.flags.writeable = False
    return pts


def _batch_reads() -> int:
    """Halton batches read so far: every read is one call of `_halton`, and
    passes all HALTON_BATCH of its points to `_feasible`."""
    info = _halton.cache_info()
    return info.hits + info.misses


def sample_points(mats: list[np.ndarray], count: int, skip: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points z with Im(Az) >= IMAG_FLOOR for
    every matrix A, in the strip |Re z| <= 1/2.  Starts from SAMPLE_BAND; if
    the constraints leave no room there, the floor is relaxed to IMAG_FLOOR
    (or to the floor an upper-triangular A sets).  Each box is searched in
    HALTON_BATCH-point batches of the same Halton points, which `skip`
    shifts to a later stretch of the sequence.  A term of determinant <= 0
    raises ValueError; SamplingError when no box yields `count` points.

    Boxes that cannot hold a point are not searched, and refusals that no
    box could change come before any batch is read.  Write t = IMAG_FLOOR,
    u = 2^-53 and M = DISC_MARGIN.  For A = (a, b; c, d) with det > 0 and
    c != 0, |cz + d|^2 = c^2 ((x + d/c)^2 + y^2), so Im(Az) = det y /
    |cz + d|^2 >= t exactly on the closed disc tangent to the real line at
    the cusp -d/c with radius R = det / (2 t c^2).  Let D be that disc grown
    about its cusp to radius R (1 + M).

    Claim: a box point that `_feasible` accepts for A lies in D.  A box
    point z = x + iy has |x| <= 1/2 and y >= t exactly: lo + v (hi - lo)
    with 0 <= v < 1 rounds into [lo, hi].  Each float operation of
    `_feasible` rounds once, to a relative u (the hypot of abs to within an
    ulp).  The roundings of c, d and c x together move x to an x' with
    |x' - x| <= 2u, and the others change the computed value by a factor
    within 1 +- 20u; so z' = x' + iy lies in the disc of radius R (1 + 20u)
    at the same cusp.  At height y the half-width sqrt(y (2r - y)) of the
    disc of radius r grows from r = R (1 + 20u) to r = R (1 + M) by at least
    y (M - 20u) / (1 + M) >= t M / 2 > 2u, so z lies in D.

    The tests are exact integer statements about the discs D, with s =
    t / (1 + M) (D has top det / (s c^2) and radius det / (2 s c^2)):
    - D lies below a box's floor y_lo, y_lo s c^2 > det: the box is skipped,
      and so is every box when y_lo is the lowest floor;
    - D misses the strip, (2 |c d| - c^2) s > det: refused;
    - two discs D are disjoint, (d1 c2 - d2 c1)^2 s^2 > det1 det2 (their
      centres farther apart than the sum of their radii): refused.
    When every disc meets the strip and every two meet, their x-ranges
    and the strip's share a point (intervals that meet in pairs share one),
    so the x-ranges need no test of their own."""
    t_img = IMAG_FLOOR
    band_lo, band_hi = SAMPLE_BAND
    y_floor = t_img
    discs = []  # (c, d, det) of each term with c != 0
    for A in mats:
        (a, b), (c, d) = ((int(v) for v in row) for row in A)
        det = a * d - b * c
        if det <= 0:
            raise ValueError("slash requires positive determinant")
        if c == 0:
            y_floor = max(y_floor, t_img * d**2 / det)
        else:
            discs.append((c, d, det))

    sn, sd = _DISC_S
    refusal = "no feasible sample region"
    for c, d, det in discs:
        if (2 * abs(c * d) - c * c) * sn > det * sd:
            raise SamplingError(f"{refusal}: the disc at cusp {Fraction(-d, c)} misses the strip")
    for (c1, d1, det1), (c2, d2, det2) in combinations(discs, 2):
        if ((d1 * c2 - d2 * c1) * sn) ** 2 > det1 * det2 * sd * sd:
            raise SamplingError(f"{refusal}: the discs at cusps {Fraction(-d1, c1)} "
                                f"and {Fraction(-d2, c2)} are disjoint")

    def below(y_lo: float) -> Fraction | None:
        """The cusp of the first disc D that lies below y_lo, if any."""
        yn, yd = y_lo.as_integer_ratio()
        return next((Fraction(-d, c) for c, d, det in discs if yn * sn * c * c > det * yd * sd), None)

    cusp = below(y_floor)
    if cusp is not None:
        raise SamplingError(f"{refusal}: the disc at cusp {cusp} lies below Im z = {y_floor:.4g}")
    # when the floor reaches the band the two boxes are one
    for y_lo in dict.fromkeys((max(band_lo, y_floor), y_floor)):
        if y_lo >= band_hi or below(y_lo) is not None:
            continue
        lo, hi = np.array([-0.5, y_lo]), np.array([0.5, band_hi])
        found: list[np.ndarray] = []
        total = 0
        for start in range(0, HALTON_POINTS, HALTON_BATCH):
            pts = lo + _halton(skip, start) * (hi - lo)
            z = pts[:, 0] + 1j * pts[:, 1]
            z = z[_feasible(z, mats, t_img)]
            found.append(z)
            total += len(z)
            if total >= count:
                return np.concatenate(found)[:count]
    raise SamplingError(f"{refusal} for {len(mats)} constraints")


def op_matrix(
    space: CuspSpace,
    terms: list[tuple[complex, np.ndarray]],
    label: str = "",
    codomain: CuspSpace | None = None,
) -> OpMatrix:
    """Matrix of sum(coef * |_k A) as a map from space to codomain
    (default: space itself).  Columns are codomain coordinates of the
    transformed domain basis.

    Each operator is built once per space: the result is memoized on the
    domain, keyed by the codomain's identity, every term's coefficient and
    integer matrix, and the label, so a repeated call returns the same
    object.  Its matrix and sample points are read-only."""
    target = codomain if codomain is not None else space
    terms = [(coef, np.asarray(A, dtype=np.int64)) for coef, A in terms]
    key = (id(target), tuple((complex(coef), A.tobytes()) for coef, A in terms), label)
    hit = space._op_memo.get(key)
    if hit is None:
        # the entry holds the codomain, so its id is not reused while it lives
        hit = space._op_memo[key] = (target, _build_op_matrix(space, terms, label, target))
    return hit[1]


def _build_op_matrix(
    space: CuspSpace, terms: list[tuple[complex, np.ndarray]], label: str, target: CuspSpace
) -> OpMatrix:
    if space.dim == 0 or target.dim == 0:
        return _solved(np.zeros((target.dim, space.dim), dtype=np.complex128), 0.0, None, label)
    count = max(2 * target.dim, target.dim + 3)
    mats = [A for _, A in terms]

    best = None
    examined = kept = 0
    for attempt in range(SAMPLE_ATTEMPTS):
        reads = _batch_reads()
        pts = sample_points(mats, count, skip=attempt)
        examined += HALTON_BATCH * (_batch_reads() - reads)
        kept += len(pts)
        pts.flags.writeable = False
        V = evaluate_many(target.basis, pts)
        # the condition number comes from the solve, so every attempt solves
        W = np.zeros((len(pts), space.dim), dtype=np.complex128)
        for coef, A in terms:
            W += coef * slash_evaluate(space.basis, A, pts)
        X, misfits, sv = least_squares(V, W)
        scale = max(np.linalg.norm(W), np.linalg.norm(V), 1e-30)
        op = _solved(X, float(np.linalg.norm(misfits) / scale), sv, label, {"points": pts})
        if best is None or op.conditioning < best.conditioning:
            best = op
        if op.conditioning < CONDITION_LIMIT:
            break
    # the sampler's yield over every attempt: points passed to _feasible, points used
    best.meta.update(examined=examined, kept=kept)
    return best


def _solved(
    X: np.ndarray, residual: float, sv: np.ndarray | None, label: str, meta: dict | None = None
) -> OpMatrix:
    """X, made read-only, as an OpMatrix whose conditioning is sigma_max /
    sigma_min of the solve's singular values sv (inf when the least is 0, 1
    when sv is None: no solve), poisoned past CONDITION_LIMIT or RESIDUAL_TOL."""
    cond = 1.0 if sv is None else float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    X.flags.writeable = False
    poisoned = cond >= CONDITION_LIMIT or residual > RESIDUAL_TOL
    return OpMatrix(X, residual, cond, poisoned, label, meta or {})


def slash_character(chi: DirChar, A) -> complex:
    """chi(d) for an integer matrix A = (a, b; c, d) whose lower-right entry
    d is a unit mod N, the modulus of chi; ValueError otherwise.

    This is the one place the package reads the convention
        f |_k gamma = chi(d_gamma) f   for gamma in Gamma_0(N), f in S_k(N, chi),
    and every chi-scalar of the characterizing operators is one of its uses:
    - W^2.  W = W_{p^n} = (q beta, 1; N gamma, q) (atkin_lehner_matrix) with
      q = p^n, M = N / q and q beta - M gamma = 1.  Then W^2 = q gamma_W with
      gamma_W = (q beta^2 + M gamma, beta + 1; N gamma (beta + 1), M gamma + q)
      of determinant 1 in Gamma_0(N), and the scalar q acts trivially, so W^2
      acts as chi(M gamma + q).  Its d = M gamma + q is -1 mod q and q mod M,
      so the scalar is chi_p(-1) chi_M(q) (`w_square_scalar`).
    - Q.  At p || N with chi_p trivial that scalar is chi_M(p), so W^(-1) is
      conj(chi_M(p)) W and Q = U_p W^(-1) has no scalar of its own (`op_Q`).
    - S.  If gamma' = h gamma with h in Gamma_0(N), then d_gamma' = d_h
      d_gamma mod N (N | c_h), so conj(chi(d_gamma')) f|gamma' =
      conj(chi(d_h)) chi(d_h) conj(chi(d_gamma)) f|gamma = conj(chi(d_gamma))
      f|gamma: with the weights conj(chi(d_A)), a sum over right cosets of
      Gamma_0(N) does not depend on the representatives (`survey_terms`)."""
    d = int(np.asarray(A)[1, 1])
    if math.gcd(d, chi.modulus) != 1:
        raise ValueError(f"lower-right entry {d} is not a unit mod {chi.modulus}")
    return chi.value_complex(d)


def op_W(space: CuspSpace, p: int, codomain: CuspSpace | None = None) -> OpMatrix:
    """Atkin-Lehner involution at the full p-power part of the level."""
    n = _level_exponent(space.char, p)
    A = atkin_lehner_matrix(p, n, space.level)
    return op_matrix(space, [(1.0, A)], label=f"W[{p**n}]", codomain=codomain)


def w_square_scalar(space: CuspSpace, p: int) -> complex:
    """Scalar by which W_{p^n} applied twice acts: chi at W^2 / p^n, which
    lies in Gamma_0(N) (slash_character has the proof)."""
    n = _level_exponent(space.char, p)
    W = atkin_lehner_matrix(p, n, space.level)
    return slash_character(space.char, W @ W // p**n)


def _level_exponent(chi: DirChar, p: int) -> int:
    """The exponent n of p^n || N, the modulus of chi, read off the
    character's component at p; ValueError when p does not divide N."""
    if p not in chi.components:
        raise ValueError(f"p = {p} does not divide the level {chi.modulus}")
    return chi.components[p].n


def shift_terms(p: int) -> list[tuple[complex, np.ndarray]]:
    """The slash terms of the p-th coefficient shift: (1, s; 0, p) for
    s = 0, ..., p - 1, each of weight 1."""
    return [(1.0, np.array([[1, s], [0, p]], dtype=np.int64)) for s in range(p)]


def op_U(space: CuspSpace, p: int, route: str = "coeff") -> OpMatrix:
    """Matrix of the normalized p-th coefficient shift b_n = p^(1-k/2) a_{pn}.
    route='coeff' solves against stored coefficients, once per space and p
    (memoized on the space like op_matrix, its matrix read-only);
    route='sampled' sums the slash terms of shift_terms."""
    if route == "sampled":
        return op_matrix(space, shift_terms(p), label=f"U[{p}]~")
    if route != "coeff":
        raise ValueError(f"unknown route {route!r}")
    # memoized next to op_matrix's results; keys of op_matrix are 3-tuples
    key = ("U coeff", p)
    hit = space._op_memo.get(key)
    if hit is None:
        hit = space._op_memo[key] = _build_op_U_coeff(space, p)
    return hit


def _build_op_U_coeff(space: CuspSpace, p: int) -> OpMatrix:
    if space.dim == 0:
        return _solved(np.zeros((0, 0), dtype=np.complex128), 0.0, None, f"U[{p}]")
    shifted = np.stack([op_Utilde(f, p).coeffs for f in space.basis], axis=1)
    mat, misfits, sv = space.coordinates(shifted)
    worst = float(np.max(misfits / np.maximum(np.linalg.norm(shifted, axis=0), 1.0)))
    return _solved(mat, worst, sv, f"U[{p}]~")


def op_Q(space: CuspSpace, p: int) -> OpMatrix:
    """Involution-normalized operator at an exact prime divisor p of the
    level whose local character factor is trivial: U_p W_p^(-1), the
    normalized shift composed with the inverse of the Atkin-Lehner map,
    conj(w_square_scalar) W_p."""
    if _level_exponent(space.char, p) != 1:
        raise ValueError(f"p = {p} must exactly divide the level {space.level}")
    if space.char.components[p].conductor_exponent != 0:
        raise ValueError(f"character has a nontrivial factor at {p}")
    scalar = np.conj(w_square_scalar(space, p))
    Wop = op_W(space, p)
    Ut = op_U(space, p)
    return _combine(scalar * (Ut.matrix @ Wop.matrix), [Ut, Wop], f"Q[{p}]")


def op_Qprime(space: CuspSpace, p: int, flipped_space: CuspSpace | None = None) -> OpMatrix:
    """Conjugate of op_Q by the Atkin-Lehner involution (op_Q needs a
    trivial factor at p, so w_conjugate never needs flipped_space here)."""
    return w_conjugate(space, p, lambda inner: op_Q(inner, p), flipped_space)


def survey_terms(chi: DirChar, p: int, r: int) -> list[tuple[complex, np.ndarray]]:
    """The slash terms of the survey operator S_{p^n, r} at p^n || N, the
    modulus of chi, for c <= r <= n - 1 with c the conductor exponent of
    chi at p (ValueError otherwise): the identity, and for j = r, ..., n - 1
    and each unit s mod p^(n-j) the matrix (a, b; p^j M, d) with
    d = p^(n-j) - s M, M = N / p^n, a = d^(-1) mod p^j M and b = (a d - 1) /
    (p^j M), of determinant 1, weighted by conj(chi(d)).

    A twisted trace for r >= 1.  There are 1 + sum_j phi(p^(n-j)) = p^(n-r)
    terms, each in Gamma_0(L) with L = N / p^(n-r) = p^r M, and d is a unit
    mod N (it is p^(n-j) mod M and -s M mod p).  Two of them lie in one
    right coset of Gamma_0(N) exactly when their ratios c d^(-1) mod N
    agree (the lower-left entry of g1 g2^(-1) is c1 d2 - d1 c2).  The ratios
    are pairwise distinct: the identity's is 0, a term's at j has p-adic
    valuation j < n, and two terms at one j, with units s and t, agree only
    when p^n M divides p^j M^2 (s - t), that is when s = t mod p^(n-j).
    As [Gamma_0(L) : Gamma_0(N)] = p^(n-r) when p | L, the terms are one
    per right coset, and by slash_character's third use the sum is the
    trace from level N down to level L, weighted by conj(chi(d)), for any
    representatives (tests/test_operators.py checks these facts for every
    N < 2000).  At r = 0 the p^n terms lie in distinct cosets too, but
    Gamma_0(M) holds p^(n-1) (p + 1) of them, so S_{p^n, 0} is not that
    trace."""
    N = chi.modulus
    n = _level_exponent(chi, p)
    M = N // p**n
    c_exp = chi.components[p].conductor_exponent
    if not c_exp <= r <= n - 1:
        raise ValueError(f"need conductor exponent {c_exp} <= r <= {n - 1}, got r = {r}")
    terms: list[tuple[complex, np.ndarray]] = [(1.0, np.eye(2, dtype=np.int64))]
    for j in range(r, n):
        c = p**j * M
        for s in unit_group(p, n - j).units.tolist():
            d = p ** (n - j) - s * M
            a = pow(d % c, -1, c) if c > 1 else 0
            A = np.array([[a, (a * d - 1) // c], [c, d]], dtype=np.int64)
            terms.append((np.conj(slash_character(chi, A)), A))
    return terms


def op_S(space: CuspSpace, p: int, r: int | None = None) -> OpMatrix:
    """Level-raising survey operator at p^n || level, r = n - 1 by default:
    the sum of survey_terms."""
    n = _level_exponent(space.char, p)
    r = n - 1 if r is None else r
    return op_matrix(space, survey_terms(space.char, p, r), label=f"S[{p**n},{r}]")


def op_Sprime(
    space: CuspSpace, p: int, r: int | None = None,
    flipped_space: CuspSpace | None = None,
) -> OpMatrix:
    """Conjugate of op_S by the Atkin-Lehner involution (w_conjugate says
    when flipped_space is needed)."""
    return w_conjugate(space, p, lambda inner: op_S(inner, p, r), flipped_space)


def w_conjugate(
    space: CuspSpace, p: int, build: Callable[[CuspSpace], OpMatrix],
    flipped_space: CuspSpace | None = None,
) -> OpMatrix:
    """The Atkin-Lehner conjugate of X = build(inner), labelled X's label
    primed.  W_in maps the space to inner, the space whose character has its
    p-factor inverted, and W_out maps back; W_out W_in = s (w_square_scalar),
    so the conjugate W_out X W_out^(-1) is W_out X W_in conj(s).  When inner
    is not the space itself (a non-real factor at p) it must be supplied as
    flipped_space, and is checked before anything is built.  The residual
    is one solve residual per factor of the product, counted as often as the
    factor appears."""
    chi = space.char
    flip = chi.flip_at(p)
    if flip == chi:
        inner = space
    else:
        if flipped_space is None:
            raise ValueError("character flips at p: flipped_space is required")
        if (flipped_space.level, flipped_space.weight) != (space.level, space.weight):
            raise ValueError("flipped_space has mismatched level or weight")
        if flipped_space.char != flip:
            raise ValueError("flipped_space carries the wrong character")
        inner = flipped_space
    W_in = op_W(space, p, codomain=inner)
    X = build(inner)
    W_out = op_W(inner, p, codomain=space)
    w_inv = np.conj(w_square_scalar(space, p)) * W_in.matrix
    mat = W_out.matrix @ X.matrix @ w_inv
    return _combine(mat, [W_in, X, W_out], X.label.replace("[", "'[", 1))


def nullspace(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal numerical null space of a (possibly stacked) matrix.
    Returns (basis, gap); gap is the ratio between the
    smallest retained and largest discarded singular values, with safe
    conventions when either side is empty."""
    A = np.asarray(A)
    d = A.shape[1]
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128), math.inf
    _, s, Vh = np.linalg.svd(A)
    scale = max(float(s[0]), 1.0) if len(s) else 1.0
    t = int(np.sum(s <= RANK_RTOL * scale)) + max(0, d - len(s))
    asc = np.sort(s)
    num = float(asc[t]) if t < len(asc) else max(scale, 1.0)
    den = float(asc[min(t, len(asc)) - 1]) if t > 0 else RANK_RTOL * scale
    basis = Vh[d - t :].conj().T if t else np.zeros((d, 0), dtype=np.complex128)
    return basis, num / max(den, 1e-300)


def quad_ratio(op, root_a: complex, root_b: complex) -> float:
    """Relative size of (A - a)(A - b), normalized by max(1, |A|)^2 so the
    measure stays finite when A itself vanishes."""
    A = op.matrix if isinstance(op, OpMatrix) else np.asarray(op)
    if A.shape[0] == 0:
        return 0.0
    eye = np.eye(A.shape[0])
    prod = (A - root_a * eye) @ (A - root_b * eye)
    return float(np.linalg.norm(prod, 2) / max(1.0, np.linalg.norm(A, 2)) ** 2)
