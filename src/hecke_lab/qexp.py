"""Truncated q-expansions and coefficient-level operators.

A cusp form is carried as the vector (a_1, ..., a_B) of its q-expansion
coefficients.  Evaluation at a point z in the upper half-plane refuses a
non-finite point, and refuses to proceed when the geometric tail estimate
past the stored coefficients is not far below the working tolerances;
otherwise it sums only as many terms as float64 can resolve: the sum stops
where the same estimate falls to RESOLVED_TAIL.  The powers q^n are read
from a table built of two short exponential tables, q^(Li + j) =
exp(2 pi i Li z) exp(2 pi i j z) with j = 1..L and L = QPOW_BLOCK, so a
point of K terms costs ceil(K / L) + L exponentials instead of K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# evaluate_many refuses when the tail past the stored coefficients may
# exceed REFUSE_TAIL, and drops the terms past the least count whose tail
# bound is at most RESOLVED_TAIL.  That is far below the last bit of every
# value the classical suite takes: its evaluations are bit for bit the sums
# over all B entries of the same q-power table (tests/test_qexp.py), while at
# 1e-30 some already differ.  The table is built from blocks of QPOW_BLOCK
# powers.  Fixed on purpose; nothing sets them.
REFUSE_TAIL = 1e-10
RESOLVED_TAIL = 1e-60
QPOW_BLOCK = 32


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


def term_count(forms: list[QExpansion], y: float) -> int:
    """The one term count of a call whose lowest point has Im z = y: the
    largest terms_needed(y) over the forms, which must share one weight and
    one precision.  PrecisionError when a form's tail past the precision
    may exceed REFUSE_TAIL at y.

    Both are read off the form with the largest growth constant C alone.
    At a fixed weight k, precision B, height y and count m, tail_bound is
    inf whatever C is (y <= 0 or rho >= 1), or it is
    2 max(C, 1) (m+1)^(k/2) x^(m+1) / (1 - rho), whose other factors are
    positive and do not depend on C; so the bound never decreases as C
    grows.  Hence that form's bound past B is the largest one, and it is
    refused exactly when some form is; and at every m its bound is at
    least each other form's, so its least resolved count (B when none is
    resolved) is at least theirs, and being one of them, it is the
    largest."""
    top = max(forms, key=QExpansion.growth_constant)
    if top.tail_bound(y) > REFUSE_TAIL:
        raise PrecisionError(f"tail bound too large at Im z = {y:.4f}")
    return top.terms_needed(y)


def _q_powers(pts: np.ndarray, terms: int) -> np.ndarray:
    """The (points, terms) table of q^n, n = 1..terms: the entry at
    n = Li + j (1 <= j <= L = QPOW_BLOCK) is exp(2 pi i Li z) exp(2 pi i j z).
    An entry does not depend on terms, so a table is the first columns of
    any longer one."""
    L = QPOW_BLOCK
    # both short tables from one np.exp call: the classical suite evaluates
    # 4 to 8 points at a time, so numpy's cost per call counts
    n = np.concatenate((np.arange(1, L + 1), L * np.arange(-(-terms // L))))
    e = np.exp(2j * np.pi * np.outer(pts, n))
    return (e[:, L:, None] * e[:, None, :L]).reshape(len(pts), -1)[:, :terms]


def evaluate_many(forms: list[QExpansion], points) -> np.ndarray:
    """Matrix of values, points along rows and forms along columns.  The
    forms must share one weight and one precision (ValueError otherwise),
    and every point must be finite (PrecisionError otherwise).  Every sum
    stops at term_count at the lowest point, which refuses when the tail
    past the stored coefficients may exceed REFUSE_TAIL there."""
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    bad = pts[~np.isfinite(pts)]
    if len(bad):
        raise PrecisionError(f"cannot evaluate at the non-finite point {complex(bad[0])}")
    if not forms:
        return np.zeros((len(pts), 0), dtype=np.complex128)
    if len({(f.weight, f.prec) for f in forms}) > 1:
        raise ValueError("evaluate_many needs forms of one weight and one precision")
    terms = term_count(forms, float(pts.imag.min()))
    # C-ordered (terms, forms), so BLAS sums each value in one order
    mat = np.empty((terms, len(forms)), dtype=np.complex128)
    for j, f in enumerate(forms):
        mat[:, j] = f.coeffs[:terms]
    return _q_powers(pts, terms) @ mat


def op_Utilde(f: QExpansion, p: int) -> QExpansion:
    """Unitarily normalized shift p^(1 - k/2) a_{pn}."""
    out = p ** (1 - f.weight / 2) * f.coeffs[p - 1 :: p]
    return QExpansion(f.weight, out)


def op_Vp(f: QExpansion, p: int) -> QExpansion:
    """Dilation f(z) -> f(pz): coefficients land on multiples of p."""
    out = np.zeros(p * f.prec, dtype=np.complex128)
    out[p - 1 :: p] = f.coeffs
    return QExpansion(f.weight, out)
