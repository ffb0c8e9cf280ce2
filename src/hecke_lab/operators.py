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
from functools import lru_cache
from typing import Callable

import numpy as np

from .characters import unit_group
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
HALTON_CHUNK = 4096  # indices the Halton table is filled with at a time
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
    (tests/test_operators.py compares one)."""
    return _add_digits(np.zeros(len(index)), index.copy(), base, 1.0 / base)


def _add_digits(out: np.ndarray, q: np.ndarray, base: int, b2r: float) -> np.ndarray:
    """The digit loop of `_radical_inverse` from a given state: adds the
    base-b digits of q, least significant first, to `out` in place, the
    first at weight b2r.  Consumes q."""
    digit = np.empty_like(q)
    while q.any():
        np.divmod(q, base, out=(q, digit))
        out += digit * b2r
        b2r /= base
    return out


@lru_cache(maxsize=None)
def _halton(skip: int) -> np.ndarray:
    """The HALTON_POINTS unscrambled 2-d Halton points (bases 2 and 3) that
    start at index skip * HALTON_STRIDE, shape (HALTON_POINTS, 2).

    The sums of the low L digits, for the largest L with b^L <=
    HALTON_CHUNK, are tabulated once per base, and each index reads its own
    from the table; the rest of its digits run through the digit loop from
    the weight it reaches after L digits.  A zero digit adds 0.0, which
    changes no sum, so each point is the sum of the same float terms in the
    same order as in `_radical_inverse`, bit for bit."""
    pts = np.empty((HALTON_POINTS, 2))
    first = skip * HALTON_STRIDE
    for col, base in enumerate((2, 3)):
        size, b2r = 1, 1.0 / base
        while size * base <= HALTON_CHUNK:
            size *= base
            b2r /= base
        low_sums = _radical_inverse(np.arange(size), base)
        # HALTON_CHUNK indices at a time, so the temporaries stay small;
        # each point depends on its own index only, so the chunks change no bit
        for lo in range(0, HALTON_POINTS, HALTON_CHUNK):
            hi = min(lo + HALTON_CHUNK, HALTON_POINTS)
            high, low = np.divmod(np.arange(first + lo, first + hi), size)
            pts[lo:hi, col] = _add_digits(low_sums[low], high, base, b2r)
    pts.flags.writeable = False
    return pts


def sample_points(mats: list[np.ndarray], count: int, skip: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points z with Im(Az) >= IMAG_FLOOR for
    every matrix A, in the strip |Re z| <= 1/2.  Starts from SAMPLE_BAND; if
    the constraints leave no room there, the floor is relaxed to IMAG_FLOOR
    (or to the floor an upper-triangular A sets).  Each box is searched in
    HALTON_BATCH-point batches of the same Halton points, which `skip`
    shifts to a later stretch of the sequence."""
    t_img = IMAG_FLOOR
    band_lo, band_hi = SAMPLE_BAND
    y_floor = t_img
    for A in mats:
        (a, b), (c, d) = A
        if c == 0:
            det = int(a) * int(d)
            y_floor = max(y_floor, t_img * int(d) ** 2 / det)

    unit = _halton(skip)
    for y_lo in (max(band_lo, y_floor), y_floor):
        if y_lo >= band_hi:
            continue
        lo, hi = np.array([-0.5, y_lo]), np.array([0.5, band_hi])
        found: list[np.ndarray] = []
        total = 0
        for start in range(0, HALTON_POINTS, HALTON_BATCH):
            pts = lo + unit[start:start + HALTON_BATCH] * (hi - lo)
            z = pts[:, 0] + 1j * pts[:, 1]
            z = z[_feasible(z, mats, t_img)]
            found.append(z)
            total += len(z)
            if total >= count:
                return np.concatenate(found)[:count]
    raise SamplingError(f"no feasible sample region for {len(mats)} constraints")


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
    for attempt in range(SAMPLE_ATTEMPTS):
        pts = sample_points(mats, count, skip=attempt)
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


def op_W(space: CuspSpace, p: int, codomain: CuspSpace | None = None) -> OpMatrix:
    """Atkin-Lehner involution at the full p-power part of the level."""
    n = _level_exponent(space, p)
    A = atkin_lehner_matrix(p, n, space.level)
    return op_matrix(space, [(1.0, A)], label=f"W[{p**n}]", codomain=codomain)


def w_square_scalar(space: CuspSpace, p: int) -> complex:
    """Scalar by which W_{p^n} applied twice acts: chi_p(-1) chi_M(p^n),
    with chi_p the p-part of chi and chi_M the part away from p."""
    chi = space.char
    q = p ** _level_exponent(space, p)
    return chi.value_complex(-1, (p,)) * chi.value_complex(q, _away(chi, p))


def _level_exponent(space: CuspSpace, p: int) -> int:
    """The exponent n of p^n || level, read off the character's component
    at p; ValueError when p does not divide the level."""
    if p not in space.char.components:
        raise ValueError(f"p = {p} does not divide the level {space.level}")
    return space.char.components[p].n


def _away(chi, p: int) -> list[int]:
    """The primes of chi's modulus other than p."""
    return [ell for ell in chi.components if ell != p]


def op_U(space: CuspSpace, p: int, route: str = "coeff") -> OpMatrix:
    """Matrix of the normalized p-th coefficient shift b_n = p^(1-k/2) a_{pn}.
    route='coeff' solves against stored coefficients, once per space and p
    (memoized on the space like op_matrix, its matrix read-only);
    route='sampled' uses the slash decomposition sum_s f|(1, s; 0, p)."""
    if route == "sampled":
        terms = [(1.0, np.array([[1, s], [0, p]], dtype=np.int64)) for s in range(p)]
        return op_matrix(space, terms, label=f"U[{p}]~")
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
    level whose local character factor is trivial: the normalized shift
    composed with the Atkin-Lehner map, scaled by the conjugate away-part
    value at p."""
    N = space.level
    if _level_exponent(space, p) != 1:
        raise ValueError(f"p = {p} must exactly divide the level {N}")
    if space.char.components[p].conductor_exponent != 0:
        raise ValueError(f"character has a nontrivial factor at {p}")
    scalar = np.conj(space.char.value_complex(p, _away(space.char, p)))
    Wop = op_W(space, p)
    Ut = op_U(space, p)
    return _combine(scalar * (Ut.matrix @ Wop.matrix), [Ut, Wop], f"Q[{p}]")


def op_Qprime(space: CuspSpace, p: int, flipped_space: CuspSpace | None = None) -> OpMatrix:
    """Conjugate of op_Q by the Atkin-Lehner involution (op_Q needs a
    trivial factor at p, so w_conjugate never needs flipped_space here)."""
    return w_conjugate(space, p, lambda inner: op_Q(inner, p), flipped_space)


def op_S(space: CuspSpace, p: int, r: int | None = None) -> OpMatrix:
    """Level-raising survey operator at p^n || level: identity plus the
    chi-twisted slash sum over lower-triangular-modulo-p^j matrices with
    left column divisible by p^j M, for j from r to n-1."""
    N = space.level
    n = _level_exponent(space, p)
    if r is None:
        r = n - 1
    q = p**n
    M = N // q
    c_exp = space.char.components[p].conductor_exponent
    if not c_exp <= r <= n - 1:
        raise ValueError(f"need conductor exponent {c_exp} <= r <= {n - 1}, got r = {r}")
    terms: list[tuple[complex, np.ndarray]] = [
        (1.0, np.array([[1, 0], [0, 1]], dtype=np.int64))
    ]
    chi = space.char
    for j in range(r, n):
        c = p**j * M
        for s in unit_group(p, n - j).units.tolist():
            d = p ** (n - j) - s * M
            a = pow(d % c, -1, c) if c > 1 else 0
            b = (a * d - 1) // c
            if a * d - b * c != 1:
                raise AssertionError("determinant normalization failed")
            scalar = np.conj(complex(chi.value_complex(d % N)))
            terms.append((scalar, np.array([[a, b], [c, d]], dtype=np.int64)))
    return op_matrix(space, terms, label=f"S[{q},{r}]")


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
