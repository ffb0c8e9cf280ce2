"""Dimension oracle for spaces of cusp forms.

dim S_k(N, chi) for k >= 2 via the Cohen-Oesterle formula (Cohen and
Oesterle, "Dimensions des espaces de formes modulaires", Antwerp/Bonn 1977),
and new-subspace dimensions through the standard degeneracy-map recursion
dim S_k(N) = sum over cond(chi) | M | N of sigma_0(N/M) dim S_k^new(M).

Everything here is independent of the operator machinery: it is used to
pin expected dimensions before any eigenspace is ever computed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import DirChar
from .cyclotomic import _factorize


def _mu0(n: int) -> int:
    """Index of the Hecke congruence subgroup of level n."""
    out = n
    for p, _ in _factorize(n):
        out += out // p
    return out


def _lambda_factor(r: int, s: int, p: int) -> int:
    # local factor at p: r = v_p(level), s = v_p(conductor)
    if 2 * s <= r:
        rp, rem = divmod(r, 2)
        if rem == 0:
            return p**rp + p ** (rp - 1) if rp >= 1 else 1
        return 2 * p**rp
    return 2 * p ** (r - s)


def _eps_points(n: int, chi: DirChar, a: int, b: int, c: int) -> Fraction:
    """sum of chi(x) over roots of a x^2 + b x + c mod n, as the histogram of
    chi's exponents at the unit roots, read off its CRT coordinates; provably
    rational for the characters this package feeds it (the roots pair off)."""
    exps = [chi.exponent(x) for x in range(n) if (a * x * x + b * x + c) % n == 0]
    counts = np.bincount([e for e in exps if e is not None], minlength=chi.field.order)
    return chi.field.rational_from_counts(counts)


def dim_cusp(n: int, k: int, chi: DirChar | None = None) -> int:
    """dim S_k(Gamma_0(n), chi) for k >= 2."""
    if k < 2:
        raise ValueError("oracle restricted to weight >= 2")
    if chi is None:
        chi = DirChar.trivial(n)
    if chi.modulus != n:
        raise ValueError("character modulus must equal the level")
    return _dim_cusp(n, k, chi)


@lru_cache(maxsize=None)
def _dim_cusp(n: int, k: int, chi: DirChar) -> int:
    """The Cohen-Oesterle formula, once per (n, k, chi) in a process
    (DirChar compares and hashes by value)."""
    if chi.parity() != (-1) ** k:
        return 0

    total = Fraction(k - 1, 12) * _mu0(n)

    lam = 1
    for p, chi_p in chi.components.items():
        lam *= _lambda_factor(chi_p.n, chi_p.conductor_exponent, p)
    total -= Fraction(lam, 2)

    if k % 2 == 0:
        g4 = Fraction(1, 4) if k % 4 == 0 else Fraction(-1, 4)
        total += g4 * _eps_points(n, chi, 1, 0, 1)
    if k % 3 != 1:
        g3 = Fraction(1, 3) if k % 3 == 0 else Fraction(-1, 3)
        total += g3 * _eps_points(n, chi, 1, 1, 1)

    if k == 2 and chi.is_trivial():
        total += 1

    if total.denominator != 1 or total < 0:
        raise AssertionError(f"bad dimension {total} for ({n},{k})")
    return int(total)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def sigma0(n: int) -> int:
    return len(_divisors(n))


def dim_new(n: int, k: int, chi: DirChar | None = None) -> int:
    """dim of the new subspace of S_k(Gamma_0(n), chi)."""
    if chi is None:
        chi = DirChar.trivial(n)
    if chi.modulus != n:
        raise ValueError("character modulus must equal the level")
    if n % chi.conductor != 0:
        raise ValueError("level not divisible by the conductor")
    return _dim_new(n, k, chi)


@lru_cache(maxsize=None)
def _dim_new(n: int, k: int, chi: DirChar) -> int:
    """The degeneracy-map recursion, once per (n, k, chi) in a process."""
    d = dim_cusp(n, k, chi)
    for m in _divisors(n):
        if m != n and m % chi.conductor == 0:
            d -= sigma0(n // m) * _dim_new(m, k, chi.at_modulus(m))
    return d
