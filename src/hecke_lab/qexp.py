"""Truncated q-expansions and coefficient-level operators.

A cusp form is carried as the vector (a_1, ..., a_B) of its q-expansion
coefficients.  Evaluation at a point z in the upper half-plane refuses to
proceed when the geometric tail estimate past the stored coefficients is
not far below the working tolerances, and otherwise sums only as many terms
as float64 can resolve: the sum stops where the same estimate falls to
RESOLVED_TAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# evaluate_many refuses when the tail past the stored coefficients may
# exceed REFUSE_TAIL, and drops the terms past the least count whose tail
# bound is at most RESOLVED_TAIL.  That is far below the last bit of every
# value the classical suite takes: its evaluations are bit for bit the full
# sums (tests/test_qexp.py), while at 1e-30 some already differ.  Fixed on
# purpose; nothing sets it.
REFUSE_TAIL = 1e-10
RESOLVED_TAIL = 1e-60


class PrecisionError(ValueError):
    """Raised when a truncated series cannot support the requested use."""


@dataclass
class QExpansion:
    """Coefficients a_1..a_B of sum a_n q^n, with q = exp(2 pi i z)."""

    weight: int
    coeffs: np.ndarray
    _growth: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a read-only view: the caller's array stays writable, and a form
        # cannot change under the operators memoized on its space
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128).view()
        self.coeffs.flags.writeable = False
        if self.coeffs.ndim != 1:
            raise ValueError("coefficient array must be one-dimensional")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite coefficient")
        n = np.arange(1, self.prec + 1, dtype=np.float64)
        self._growth = float(np.max(np.abs(self.coeffs) / n ** (self.weight / 2), initial=0.0))

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def a(self, n: int) -> complex:
        if not 1 <= n <= self.prec:
            raise IndexError(f"coefficient a_{n} beyond precision {self.prec}")
        return complex(self.coeffs[n - 1])

    def growth_constant(self) -> float:
        """Smallest C with |a_n| <= C n^(k/2) over the stored range (0 when
        nothing is stored), computed once on construction."""
        return self._growth

    def tail_bound(self, y: float, m: int | None = None) -> float:
        """Upper bound for |sum_{n>m} a_n q^n| at Im z = y (m defaults to
        the precision B), assuming the Deligne-type growth
        |a_n| <= C n^(k/2) with C from the stored range.  It never
        increases in m."""
        if y <= 0:
            return math.inf
        m = self.prec if m is None else m
        k = self.weight
        x = math.exp(-2 * math.pi * y)
        # (n/(m+1))^(k/2) <= exp(k (n-m-1) / (2 (m+1))) for n > m
        rho = x * math.exp(k / (2 * (m + 1)))
        if rho >= 1:
            return math.inf
        c = 2.0 * max(self.growth_constant(), 1.0)
        return c * (m + 1) ** (k / 2) * x ** (m + 1) / (1 - rho)

    def terms_needed(self, y: float) -> int:
        """The least m <= B whose tail bound at Im z = y is at most
        RESOLVED_TAIL (B when none is, or when y is NaN)."""
        B = self.prec
        if not self.tail_bound(y, B) <= RESOLVED_TAIL:
            return B
        # start near the root of log(bound) = log(RESOLVED_TAIL) in t = m + 1,
        # with 1 - rho taken as 1 - x, then step to the least m: the bound
        # never increases in m, so the steps find it from any start
        log_x = -2 * math.pi * y
        rhs = math.log(RESOLVED_TAIL / (2.0 * max(self.growth_constant(), 1.0)))
        rhs += math.log1p(-math.exp(log_x))
        t = 1.0
        for _ in range(3):
            t = max((rhs - self.weight / 2 * math.log(t)) / log_x, 1.0)
        m = min(max(math.ceil(t) - 1, 0), B)
        while self.tail_bound(y, m) > RESOLVED_TAIL:
            m += 1
        while m > 0 and self.tail_bound(y, m - 1) <= RESOLVED_TAIL:
            m -= 1
        return m


def evaluate_many(forms: list[QExpansion], points) -> np.ndarray:
    """Matrix of values, points along rows and forms along columns.  Every
    sum stops at the least m at which each form's tail bound at the lowest
    point is at most RESOLVED_TAIL; PrecisionError when the tail past the
    stored coefficients may exceed REFUSE_TAIL there."""
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if not forms:
        return np.zeros((len(pts), 0), dtype=np.complex128)
    ymin = float(pts.imag.min())
    for f in forms:
        if f.tail_bound(ymin) > REFUSE_TAIL:
            raise PrecisionError(f"tail bound too large at Im z = {ymin:.4f}")
    terms = min(min(f.prec for f in forms), max(f.terms_needed(ymin) for f in forms))
    n = np.arange(1, terms + 1)
    q_pow = np.exp(2j * np.pi * np.outer(pts, n))
    mat = np.stack([f.coeffs[:terms] for f in forms], axis=1)
    return q_pow @ mat


def op_Utilde(f: QExpansion, p: int) -> QExpansion:
    """Unitarily normalized shift p^(1 - k/2) a_{pn}."""
    out = p ** (1 - f.weight / 2) * f.coeffs[p - 1 :: p]
    return QExpansion(f.weight, out)


def op_Vp(f: QExpansion, p: int) -> QExpansion:
    """Dilation f(z) -> f(pz): coefficients land on multiples of p."""
    out = np.zeros(p * f.prec, dtype=np.complex128)
    out[p - 1 :: p] = f.coeffs
    return QExpansion(f.weight, out)
