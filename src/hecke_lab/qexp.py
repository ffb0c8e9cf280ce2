"""Truncated q-expansions and coefficient-level operators.

A cusp form is carried as the vector (a_1, ..., a_B) of its q-expansion
coefficients.  Evaluation at a point z in the upper half-plane sums the
truncated series and refuses to proceed when the geometric tail estimate
is not far below the working tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class PrecisionError(ValueError):
    """Raised when a truncated series cannot support the requested use."""


@dataclass
class QExpansion:
    """Coefficients a_1..a_B of sum a_n q^n, with q = exp(2 pi i z)."""

    weight: int
    coeffs: np.ndarray
    label: str = ""
    _growth: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
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

    @classmethod
    def from_pairs(cls, weight: int, pairs, label: str = "") -> "QExpansion":
        """From B [re, im] pairs: 2B float64 values read as B complex128, so
        every coefficient keeps its exact bits (a -0.0 part included).
        ValueError when a row is not a pair of numbers."""
        try:
            if not set(map(len, pairs)) <= {2}:
                raise ValueError
            arr = np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))
        except (TypeError, ValueError):
            raise ValueError("coefficients must be [re, im] pairs of numbers") from None
        return cls(weight, arr.view(np.complex128), label)

    def growth_constant(self) -> float:
        """Smallest C with |a_n| <= C n^(k/2) over the stored range (0 when
        nothing is stored), computed once on construction."""
        return self._growth

    def tail_bound(self, y: float) -> float:
        """Upper bound for |sum_{n>B} a_n q^n| at Im z = y, assuming the
        Deligne-type growth |a_n| <= C n^(k/2) with C from the stored range."""
        if y <= 0:
            return math.inf
        B, k = self.prec, self.weight
        x = math.exp(-2 * math.pi * y)
        # (n/(B+1))^(k/2) <= exp(k (n-B-1) / (2 (B+1))) for n > B
        rho = x * math.exp(k / (2 * (B + 1)))
        if rho >= 1:
            return math.inf
        c = 2.0 * max(self.growth_constant(), 1.0)
        return c * (B + 1) ** (k / 2) * x ** (B + 1) / (1 - rho)


def evaluate_many(forms: list[QExpansion], points) -> np.ndarray:
    """Matrix of values, points along rows and forms along columns."""
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if not forms:
        return np.zeros((len(pts), 0), dtype=np.complex128)
    prec = min(f.prec for f in forms)
    ymin = float(pts.imag.min())
    for f in forms:
        if f.tail_bound(ymin) > 1e-10:
            raise PrecisionError(f"tail bound too large at Im z = {ymin:.4f}")
    n = np.arange(1, prec + 1)
    q_pow = np.exp(2j * np.pi * np.outer(pts, n))
    mat = np.stack([f.coeffs[:prec] for f in forms], axis=1)
    return q_pow @ mat


def op_Up(f: QExpansion, p: int) -> QExpansion:
    """Coefficient shift b_n = p^(k/2) a_{pn}."""
    out = p ** (f.weight / 2) * f.coeffs[p - 1 :: p]
    return QExpansion(f.weight, out, f"U{p}({f.label})" if f.label else "")


def op_Utilde(f: QExpansion, p: int) -> QExpansion:
    """Unitarily normalized shift p^(1 - k/2) a_{pn}."""
    out = p ** (1 - f.weight / 2) * f.coeffs[p - 1 :: p]
    return QExpansion(f.weight, out, f"Ut{p}({f.label})" if f.label else "")


def op_Vp(f: QExpansion, p: int) -> QExpansion:
    """Dilation f(z) -> f(pz): coefficients land on multiples of p."""
    out = np.zeros(p * f.prec, dtype=np.complex128)
    out[p - 1 :: p] = f.coeffs
    return QExpansion(f.weight, out, f"V{p}({f.label})" if f.label else "")
