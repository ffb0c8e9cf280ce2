"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A root of unity zeta^e is named by its exponent e; a sum of roots of unity
is a length-m integer count vector (counts[e] copies of zeta^e).  The field
reduces such vectors to integer coordinates on the CRT basis of Z[zeta_m]
(CyclotomicField), with one gather and one int64 subtraction per prime of
m, which is how sums are compared and read as rationals
(`rational_from_counts`): the exponent histograms of the mirrored and
whole-group convolution oracles and the dimension oracle's point counts.
There is no multiplication; the Hecke algebra itself runs over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


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
    """Q(zeta_m), where sums of roots of unity are written on the CRT basis
    of Z[zeta_m] and read as rationals.

    For m = prod q_i with q_i = p_i^a_i, put zeta_{q_i} = zeta^(m/q_i).  The
    basis is the products prod zeta_{q_i}^{k_i} with 0 <= k_i < phi(q_i), the
    tuples k in row-major order, so the first element is 1.

    Proof.  By the Chinese remainder theorem each exponent e mod m is
    sum k_i (m/q_i) for exactly one tuple, k_i = e (m/q_i)^-1 mod q_i, so
    zeta^e = prod zeta_{q_i}^{k_i}.  With x = zeta_q for q = p^a,
    Phi_q(x) = sum_{j<p} x^(j q/p) = 0, so for t < q/p
    x^((p-1) q/p + t) = -sum_{j<p-1} x^(j q/p + t): a power k < q past
    phi(q) = (p-1) q/p is minus the sum of the others in its residue class
    mod q/p, all below phi(q).  So the phi(m) = prod phi(q_i) products span
    Z[zeta_m] over Z; as phi(m) is the degree of Q(zeta_m) over Q, they are a
    basis of it, and a Z-basis of Z[zeta_m].  A sum is then rational iff
    every coordinate past the first (the coordinate of 1) is 0, and its value
    is that first coordinate.

    The field holds O(m) integers: the exponent of each tuple k with
    k_i < q_i (`_gather`) and one axis (p, q/p) per prime.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        primes = _factorize(order)
        self._axes = [(p, p ** (a - 1)) for p, a in primes]
        self.degree = math.prod((p - 1) * block for p, block in self._axes)
        exps = np.zeros((), dtype=np.int64)
        for p, a in primes:
            exps = (exps[..., None] + order // p**a * np.arange(p**a)) % order
        self._gather = exps.ravel()

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
        if coords[..., 1:].any():
            bad = coords[..., 1:].any(axis=-1)
            raise ValueError(f"coordinates {coords[bad][0].tolist()} in Q(zeta_{self.order}) are not rational")
        return coords[..., 0]

    def reduce_exponent_matrix(self, counts) -> np.ndarray:
        """(..., m) integer counts, counts[..., e] copies of zeta^e, to
        (..., degree) CRT coordinates: a gather onto the tuples k, then on
        each prime's axis, split into p blocks of q/p, the top block is
        subtracted from the others and dropped.  Each step at most doubles a
        value, so max|count| * 2^(number of primes) must stay below 2^62
        (OverflowError before any subtraction)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape[-1:] != (self.order,):
            raise ValueError("count vector must have length m")
        cmax = max(int(counts.max(initial=0)), -int(counts.min(initial=0)))
        if cmax << len(self._axes) >= 2**62:
            raise OverflowError(f"counts in Q(zeta_{self.order}) may not reduce exactly in int64")
        x = counts.reshape(-1, self.order)[:, self._gather]
        done, rest = len(x), self.order  # reduced axes (with the rows), unreduced entries
        for p, block in self._axes:
            rest //= p * block
            x = x.reshape(done, p, block * rest)
            x = x[:, :-1] - x[:, -1:]
            done *= (p - 1) * block
        return x.reshape(counts.shape[:-1] + (self.degree,))


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
