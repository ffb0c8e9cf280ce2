"""Brute-force convolution oracle over the full finite group.

For small moduli (p^n <= 27) the whole of GL2(Z/p^n) fits comfortably in
memory, so convolution can be computed from its definition,

    (f1 * f2)(h) = (1/|K0|) * sum over g in G of f1(g) f2(g^{-1} h),

with no coset theory at all.  Values are tracked as root-of-unity exponents
and accumulated with a histogram, which keeps everything exact.  f1(g) and
f2(g^{-1} h) read chi at one matrix entry each, so the sum is regrouped: the
pairs of entries are counted over the group once per cell, and each
character only weights its exponent sums by those counts.  This module
deliberately shares no logic with the coset-sum route it checks: it takes
only group arithmetic (the MatArray enumeration and its inverses) from
cosets, never canonical forms, decompositions or labels.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, _vp_array
from .cosets import MatArray, all_labels, label_rep
from .report import Report, check, timed

BRUTE_LIMIT = 27


class GroupTable:
    """Flat enumeration of GL2(Z/q) and of the elements' inverses."""

    def __init__(self, p: int, n: int):
        q = p**n
        if q > BRUTE_LIMIT:
            raise ValueError(f"brute-force table capped at modulus {BRUTE_LIMIT}")
        self.p, self.n, self.q = p, n, q
        rng = np.arange(q, dtype=np.int64)
        every = MatArray(p, n, *(x.ravel() for x in np.meshgrid(rng, rng, rng, rng, indexing="ij")))
        self.elements = every[every.det() % p != 0]
        self.inverses = self.elements.inv()
        # double-coset label per element, as v_p(c) capped at n (0 = w class)
        self.vpc = _vp_array(self.elements.c, p, n)
        self.K0_size = q * (q - q // p) ** 2  # b free, a and d units, c = 0


@cell_cache
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


@cell_cache
def _pair_counts(p: int, n: int) -> dict[tuple[str, str, str], tuple]:
    """The whole-group sum with the character taken out, for every support
    label l1 and target label h: over the g in l1's double coset, the
    distinct pairs (entry that f1 reads at g, entry that f2 reads at
    g^{-1} h) with their counts, bucketed by the label l2 of g^{-1} h.

    Keyed (l1, h, l2) to (a, b, count) arrays; at most q^2 pairs each.
    Character-free, so built once per cell.
    """
    t = group_table(p, n)
    q, labels = t.q, all_labels(p, n)  # label index = v_p(c) capped at n
    width = len(labels) * q
    # what a twisted indicator sees of a matrix with lower row (c, d), packed
    # c * q + d: its label and the entry it reads (c on the w class, d on the
    # y classes), packed label * q + entry
    c, d = np.divmod(np.arange(q * q), q)
    vp = _vp_array(c, p, n)
    seen = vp * q + np.where(vp == 0, c, d)
    own = seen[t.elements.c * q + t.elements.d] * width
    gc, gd = t.inverses.c, t.inverses.d
    out = {}
    for lab_h in labels:
        h = label_rep(p, n, lab_h)
        # the lower row of g^{-1} h
        other = seen[(gc * h.a + gd * h.c) % q * q + (gc * h.b + gd * h.d) % q]
        counts = np.bincount(own + other, minlength=width * width)
        counts = counts.reshape(len(labels), q, len(labels), q)
        for j1, l1 in enumerate(labels):
            for j2, l2 in enumerate(labels):
                a, b = np.nonzero(counts[j1, :, j2])
                if len(a):
                    out[(l1, lab_h, l2)] = (a, b, counts[j1, a, j2, b])
    return out


def _value_exponents(vexp: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exponents of a twisted indicator at elements of its double coset,
    from the entries it reads there."""
    expo = vexp[entries]
    if np.any(expo < 0):
        raise AssertionError("twist evaluated at a non-unit entry")
    return expo


def brute_convolve_labels(p: int, n: int, chi: PChar, l1: str, l2: str) -> dict[str, Fraction]:
    """Structure constants of one basis product from the whole-group sum:
    at each target, the count-weighted histogram of the exponent sums over
    the pairs of `_pair_counts`, over |K0|.

    Roots of unity do cancel here: each histogram must collapse to a
    rational (ValueError otherwise)."""
    vexp, field = chi.exponent_table(), chi.field
    pairs, k0_size = _pair_counts(p, n), group_table(p, n).K0_size
    out: dict[str, Fraction] = {}
    for lab_h in all_labels(p, n):
        hit = pairs.get((l1, lab_h, l2))
        if hit is None:
            continue
        a, b, count = hit
        te = (_value_exponents(vexp, a) + _value_exponents(vexp, b)) % field.order
        hist = np.bincount(te, weights=count, minlength=field.order).astype(np.int64)
        val = field.rational_from_counts(hist) / k0_size
        if val:
            out[lab_h] = val
    return out


def cross_check_structure(rep: Report, p: int, n: int, chi: PChar, tag: str) -> None:
    """Compare every basis product against the coset-sum route."""
    from .hecke import _basis_product_cached, supported_basis

    basis = supported_basis(p, n, chi)
    for l1 in basis:
        for l2 in basis:
            with timed() as t:
                want = dict(_basis_product_cached(p, n, l1, l2))
                try:
                    got = brute_convolve_labels(p, n, chi, l1, l2)
                    detail = "" if got == want else f"coset {want} vs group {got}"
                except ValueError as exc:  # a non-rational collapse
                    detail = f"group sum: {exc}"
            check(rep, f"{tag}.bruteforce.{l1}x{l2}", True, not detail, "oracle", t.elapsed,
                  detail=detail)
