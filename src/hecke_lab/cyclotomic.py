"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are coordinate vectors of exact rationals over the power basis
1, z, ..., z^{phi(m)-1} modulo the m-th cyclotomic polynomial.  All character
values and algebra structure constants in this package live here; floats only
appear through the explicit complex embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from sympy import Poly, cyclotomic_poly, symbols


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
def get_field(order: int) -> "CyclotomicField":
    return CyclotomicField(order)


class CyclotomicField:
    """Q(zeta_m) with a precomputed integer reduction table for powers of zeta.

    The table covers exponents up to max(m, 2*degree - 1) so that products of
    basis monomials and arbitrary root-of-unity exponents reduce in one lookup.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.degree = euler_phi(order) if order > 1 else 1
        x = symbols("x")
        if order == 1:
            mod_coeffs = [1, -1]  # x - 1
        else:
            mod_coeffs = [int(c) for c in Poly(cyclotomic_poly(order, x), x).all_coeffs()]
        self._modulus = mod_coeffs
        d = self.degree
        span = max(order, 2 * d - 1)
        table = np.zeros((span, d), dtype=np.int64)
        for e in range(min(d, span)):
            table[e, e] = 1
        # z^e = z * z^{e-1}, reduced: shifting may overflow into z^d, which
        # rewrites as -(c_1 z^{d-1} + ... + c_d) for Phi = z^d + c_1 z^{d-1} + ...
        tail = np.array([-c for c in mod_coeffs[1:]][::-1], dtype=np.int64)  # coords of z^d
        for e in range(d, span):
            prev = table[e - 1]
            shifted = np.zeros(d, dtype=np.int64)
            shifted[1:] = prev[:-1]
            table[e] = shifted + prev[-1] * tail
        self.reduction = table
        self._zeta_cache: dict[int, CycNum] = {}

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    @property
    def zero(self) -> "CycNum":
        return CycNum(self, (Fraction(0),) * self.degree)

    @property
    def one(self) -> "CycNum":
        return self.from_rational(1)

    def from_rational(self, q) -> "CycNum":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(q)
        return CycNum(self, tuple(coeffs))

    def zeta(self, e: int = 1) -> "CycNum":
        e %= self.order
        hit = self._zeta_cache.get(e)
        if hit is None:
            row = self.reduction[e]
            hit = CycNum(self, tuple(Fraction(int(c)) for c in row))
            self._zeta_cache[e] = hit
        return hit

    def from_exponent_counts(self, counts) -> "CycNum":
        """Sum of roots of unity given as a length-m integer count vector."""
        counts = np.asarray(counts, dtype=object)
        if counts.shape != (self.order,):
            raise ValueError("count vector must have length m")
        coords = [Fraction(0)] * self.degree
        for e, c in enumerate(counts):
            if c:
                row = self.reduction[e]
                for i in range(self.degree):
                    if row[i]:
                        coords[i] += Fraction(c) * int(row[i])
        return CycNum(self, tuple(coords))

    def reduce_exponent_matrix(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized reduction: (..., m) integer counts -> (..., degree) coords.

        Routed through BLAS in float64 when every intermediate integer provably
        fits in the 2^53 mantissa (m * max|count| * max|table entry| < 2^52),
        which is a large speedup on the big cells; int64 otherwise.
        """
        red = self.reduction[: self.order]
        cmax = int(np.abs(counts).max(initial=0))
        rmax = int(np.abs(red).max(initial=0))
        if cmax * rmax * self.order < 2**52:
            out = counts.astype(np.float64) @ red.astype(np.float64)
            return np.rint(out).astype(np.int64)
        return counts @ red

    def embed_powers(self) -> np.ndarray:
        """Complex values of the basis monomials under zeta -> exp(2*pi*i/m)."""
        return np.exp(2j * math.pi / self.order * np.arange(self.degree))


class CycNum:
    """Element of Q(zeta_m): immutable tuple of Fractions over the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs):
        self.field = field
        if len(coeffs) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @property
    def order(self) -> int:
        return self.field.order

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.field.order}; {body})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is not self.field and other.field.order != self.field.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNum(self.field, tuple(a * q for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        acc = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    acc[i + j] += a * b
        red = self.field.reduction
        out = list(acc[:d])
        for e in range(d, 2 * d - 1):
            c = acc[e]
            if c:
                row = red[e]
                for i in range(d):
                    if row[i]:
                        out[i] += c * int(row[i])
        return CycNum(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the regular representation, solved exactly."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return self.field.from_rational(1 / self.coeffs[0])
        d = self.field.degree
        # columns: coordinates of self * z^j
        cols = []
        cur = self
        z1 = self.field.zeta(1)
        for _ in range(d):
            cols.append(list(cur.coeffs))
            cur = cur * z1
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        rhs = [Fraction(1)] + [Fraction(0)] * (d - 1)
        sol = _solve_fraction_system(mat, rhs)
        return CycNum(self.field, tuple(sol))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNum(self.field, tuple(a / q for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^{-1}."""
        m = self.field.order
        out = self.field.zero
        for e, c in enumerate(self.coeffs):
            if c:
                out = out + self.field.zeta((-e) % m if m > 1 else 0) * c
        return out

    def to_complex(self) -> complex:
        return complex(sum(complex(c) * w for c, w in zip(self.coeffs, self.field.embed_powers())))


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
