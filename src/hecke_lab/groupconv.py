"""Brute-force convolution oracle over the full finite group.

For small moduli (p^n <= 27) the whole of GL2(Z/p^n) fits comfortably in
memory, so convolution can be computed from its definition,

    (f1 * f2)(h) = (1/|K0|) * sum over g in G of f1(g) f2(g^{-1} h),

with no coset theory at all.  Values are tracked as root-of-unity exponents
and accumulated with a histogram, which keeps everything exact.  This module
deliberately shares no logic with the coset-sum route it checks: it takes
only group arithmetic (MatArray products and inverses) from cosets, never
canonical forms, decompositions or labels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import PChar, _vp_array
from .cosets import MatArray, MatPn, all_labels, label_rep
from .report import Report, check, timed

BRUTE_LIMIT = 27


class GroupTable:
    """Flat enumeration of GL2(Z/q) with packed-code index lookup."""

    def __init__(self, p: int, n: int):
        q = p**n
        if q > BRUTE_LIMIT:
            raise ValueError(f"brute-force table capped at modulus {BRUTE_LIMIT}")
        self.p, self.n, self.q = p, n, q
        rng = np.arange(q, dtype=np.int64)
        every = MatArray(p, n, *(x.ravel() for x in np.meshgrid(rng, rng, rng, rng, indexing="ij")))
        self.elements = every[every.det() % p != 0]
        self.inverses = self.elements.inv()
        self.size = len(self.elements)
        self.code_to_idx = np.full(q**4, -1, dtype=np.int64)
        self.code_to_idx[self._code(self.elements)] = np.arange(self.size)
        # double-coset label per element, as v_p(c) capped at n (0 = w class)
        self.vpc = _vp_array(self.elements.c, p, n)
        self.K0_size = q * (q - q // p) ** 2  # b free, a and d units, c = 0

        self._target_cache: dict[str, np.ndarray] = {}

    def _code(self, g):
        q = self.q
        return g.a + q * (g.b + q * (g.c + q * g.d))

    def inv_times(self, h: MatPn) -> np.ndarray:
        """Index array of g^{-1} h over all g, cached per target."""
        key = f"{h.a},{h.b},{h.c},{h.d}"
        hit = self._target_cache.get(key)
        if hit is not None:
            return hit
        idx = self.code_to_idx[self._code(self.inverses @ h)]
        self._target_cache[key] = idx
        return idx


@lru_cache(maxsize=None)
def group_table(p: int, n: int) -> GroupTable:
    return GroupTable(p, n)


def double_coset_census(p: int, n: int) -> dict[str, int]:
    """Element count of each double coset, straight off the enumeration."""
    t = group_table(p, n)
    counts = np.bincount(t.vpc, minlength=n + 1)
    out = {"w": int(counts[0])}
    for j in range(1, n + 1):
        out[f"y{j}"] = int(counts[j])
    return out


def _value_exponents(t: GroupTable, chi: PChar, lab: str):
    """(mask, exponent) arrays for a twisted double-coset indicator."""
    vexp = chi.exponent_table()
    if lab == "w":
        mask = t.vpc == 0
        expo = np.where(mask, vexp[t.elements.c], 0)
    else:
        j = int(lab[1:])
        mask = t.vpc == j
        expo = np.where(mask, vexp[t.elements.d], 0)
    if np.any(expo[mask] < 0):
        raise AssertionError("twist evaluated at a non-unit entry")
    return mask, expo


def brute_convolve_labels(t: GroupTable, chi: PChar, f1: tuple, f2: tuple) -> dict[str, Fraction]:
    """Structure constants of one basis product from the whole-group sum,
    f1 and f2 the (mask, exponent) arrays of the two basis functions.  Only
    the g in the support of f1 are visited.

    Roots of unity do cancel here: the twisted terms at each target are an
    exponent histogram, which must collapse to a rational (ValueError
    otherwise)."""
    m = chi.field.order
    (mask1, e1), (mask2, e2) = f1, f2
    support = np.flatnonzero(mask1)
    e1 = e1[support]
    out: dict[str, Fraction] = {}
    for lab_h in all_labels(t.p, t.n):
        idx = t.inv_times(label_rep(t.p, t.n, lab_h))[support]
        both = mask2[idx]
        if not np.any(both):
            continue
        te = (e1[both] + e2[idx[both]]) % m
        counts = np.bincount(te, minlength=m)
        val = chi.field.from_exponent_counts(counts).as_rational() / t.K0_size
        if val:
            out[lab_h] = val
    return out


def cross_check_structure(rep: Report, p: int, n: int, chi: PChar, tag: str) -> None:
    """Compare every basis product against the coset-sum route."""
    from .hecke import _basis_product_cached, supported_basis

    basis = supported_basis(p, n, chi)
    table = group_table(p, n)
    values = {lab: _value_exponents(table, chi, lab) for lab in basis}
    for l1 in basis:
        for l2 in basis:
            with timed() as t:
                want = dict(_basis_product_cached(p, n, l1, l2))
                try:
                    got = brute_convolve_labels(table, chi, values[l1], values[l2])
                    detail = "" if got == want else f"coset {want} vs group {got}"
                except ValueError as exc:  # a non-rational collapse
                    detail = f"group sum: {exc}"
            check(rep, f"{tag}.bruteforce.{l1}x{l2}", True, not detail, "oracle", t.elapsed,
                  detail=detail)
