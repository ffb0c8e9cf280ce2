"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A root of unity zeta^e is named by its exponent e; a sum of roots of unity
is a length-m integer count vector (counts[e] copies of zeta^e).  The field
reduces such vectors to coordinates over the power basis
1, z, ..., z^{phi(m)-1} modulo the m-th cyclotomic polynomial, which is how
sums are compared and read as rationals (`rational_from_counts`): the
exponent histograms of the mirrored and whole-group convolution oracles and
the dimension oracle's point counts.  There is no multiplication; the Hecke
algebra itself runs over Q.

The modulus Phi_m comes from `cyclotomic_coeffs`, which divides x^m - 1 by
Phi_d for every proper divisor d of m in exact integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_FLOAT_EXACT = 2**52  # float64 arithmetic is exact on integers below this


def _exact_dtype(bound: float) -> type:
    """dtype for an integer computation whose values and partial sums are at
    most `bound` in absolute value: float64 (BLAS) below _FLOAT_EXACT, int64
    below 2^62 (a margin for the rounding of the bound itself), else refused.
    It serves reduce_exponent_matrix and permsum's gathers and column images."""
    if bound < _FLOAT_EXACT:
        return np.float64
    if bound < 2**62:
        return np.int64
    raise OverflowError(f"integer bound {bound:.3g} does not fit int64")


def euler_phi(m: int) -> int:
    return math.prod(p ** (a - 1) * (p - 1) for p, a in _factorize(m))


def _factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, by trial
    division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            out.append((d, a))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, leading coefficient first.

    x^m - 1 is the product of Phi_d over d | m, so Phi_m is x^m - 1 divided
    exactly by Phi_d for each proper divisor d; every division is checked to
    leave no remainder.  Dividing by the largest d first shortens the
    dividend soonest.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = [1] + [0] * (m - 1) + [-1]  # x^m - 1
    for d in range(m - 1, 0, -1):
        if m % d == 0:
            num = _divide_monic(num, cyclotomic_coeffs(d))
    return tuple(num)


def _divide_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact quotient num / den of integer polynomials (leading coefficient
    first, den monic); raises ArithmeticError on a nonzero remainder."""
    rem = list(num)
    q = len(rem) - len(den) + 1
    terms = [(j, a) for j, a in enumerate(den) if a and j]
    for i in range(q):
        c = rem[i]
        if c:
            for j, a in terms:
                rem[i + j] -= c * a
    if any(rem[q:]):
        raise ArithmeticError("cyclotomic division left a remainder")
    return rem[:q]


@lru_cache(maxsize=None)
def get_field(order: int) -> "CyclotomicField":
    return CyclotomicField(order)


class CyclotomicField:
    """Q(zeta_m) with a precomputed integer reduction table: row e holds the
    coordinates of zeta^e for 0 <= e < m."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.degree = euler_phi(order)
        mod_coeffs = cyclotomic_coeffs(order)
        d = self.degree
        table = np.zeros((order, d), dtype=np.int64)
        for e in range(d):
            table[e, e] = 1
        # z^e = z * z^{e-1}, reduced: shifting may overflow into z^d, which
        # rewrites as -(c_1 z^{d-1} + ... + c_d) for Phi = z^d + c_1 z^{d-1} + ...
        tail = np.array([-c for c in mod_coeffs[1:]][::-1], dtype=np.int64)  # coords of z^d
        for e in range(d, order):
            prev = table[e - 1]
            shifted = np.zeros(d, dtype=np.int64)
            shifted[1:] = prev[:-1]
            table[e] = shifted + prev[-1] * tail
        self.reduction = table
        # fixed per field: reduce_exponent_matrix's BLAS copy and exactness bound
        self._reduction_f64 = table.astype(np.float64)
        self._reduction_bound = int(np.abs(table).max(initial=0)) * order

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    def rational_from_counts(self, counts) -> Fraction:
        """The sum of roots of unity given as a length-m integer count vector,
        as one Fraction; ValueError if it is not rational (any coordinate past
        the first is nonzero)."""
        return Fraction(int(self.integers_from_counts(counts)))

    def integers_from_counts(self, counts) -> np.ndarray:
        """rational_from_counts over (..., m) counts at once, as int64."""
        coords = self.reduce_exponent_matrix(counts)
        bad = coords[..., 1:].any(axis=-1)
        if bad.any():
            raise ValueError(f"coordinates {coords[bad][0].tolist()} in Q(zeta_{self.order}) are not rational")
        return coords[..., 0]

    def reduce_exponent_matrix(self, counts) -> np.ndarray:
        """Vectorized reduction: (..., m) integer counts -> (..., degree) coords,
        counts[..., e] the multiplicity of zeta^e.

        Every partial sum is at most m * max|count| * max|table entry|, and
        _exact_dtype picks from that bound: BLAS in float64, which is a large
        speedup on the big cells, or int64, or OverflowError.  The float64
        table and m * max|table entry| are built once per field.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape[-1:] != (self.order,):
            raise ValueError("count vector must have length m")
        cmax = int(np.abs(counts).max(initial=0))
        if _exact_dtype(cmax * self._reduction_bound) is np.float64:
            out = counts.astype(np.float64) @ self._reduction_f64
            return np.rint(out).astype(np.int64)
        return counts @ self.reduction


def _solve_fraction_system(mat, rhs):
    """Gaussian elimination with exact Fractions; mat is square and invertible."""
    n = len(mat)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]
