"""Brute-force convolution oracle over the full finite group.

For small moduli (p^n <= 27) convolution can be computed from its
definition,

    (f1 * f2)(h) = (1/|K0|) * sum over g in G of f1(g) f2(g^{-1} h),

with no coset theory at all.  The group GL2(Z/p^n) is walked in slices,
never held whole: a slice fixes a few upper-left entries a, broadcasts the
determinant ad - bc over every (b, c, d) and inverts it where it is a
unit.  Values are tracked as root-of-unity exponents and accumulated with a
histogram, which keeps everything exact.  f1(g) reads chi at one entry of
the lower row of g, and f2(g^{-1} h) at one entry of the lower row of
g^{-1} h, which is the lower row of g^{-1} times h.  So the sum is
regrouped: one walk per cell counts the group by (what f1 reads at g, lower
row of g^{-1}), that row being delta * (-c, a) with delta = det^{-1}; each
target h maps the rows through h, and a cell keeps only the counts of the
products of the two entries read; each character weights its exponents at
those units by them.  This module deliberately shares no
logic with the coset-sum route it checks: it takes the unit inverses from
characters, and only the group's order and label names from cosets, never
canonical forms, decompositions or transport.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, _vp_array, unit_group
from .cosets import _BLOCK_ELEMENTS, all_labels, k0_order, label_rep
from .report import Report, check, timed

BRUTE_LIMIT = 27


def _group_slices(p: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """GL2(Z/p^n) in slices of upper-left entries a, about _BLOCK_ELEMENTS
    candidates at a time.  A slice is (a, delta): a holds its entries a,
    shaped (k, 1, 1, 1), and delta = det^{-1} of every candidate (a, b, c, d)
    with a in the slice, shaped (k, q, q, q) over (a, b, c, d), and 0 where
    det = ad - bc is not a unit: the group elements are the places where
    delta is not 0.  The size guard raises here, before any slice is built."""
    q = p**n
    if q > BRUTE_LIMIT:
        raise ValueError(f"brute-force enumeration capped at modulus {BRUTE_LIMIT}")
    inverse, r = unit_group(p, n).inverse, np.arange(q)
    bc = r[:, None, None] * r[:, None] % q  # over (b, c, 1)
    step = max(1, _BLOCK_ELEMENTS // q**3)

    def group_slice(lo: int) -> tuple[np.ndarray, np.ndarray]:
        a = np.arange(lo, min(lo + step, q))[:, None, None, None]
        return a, inverse[(a * r - bc) % q]

    return map(group_slice, range(0, q, step))


@cell_cache
def _pair_counts(p: int, n: int) -> dict[tuple[str, str], tuple]:
    """The whole-group sum with the character taken out, for every support
    label l1, target label h and label l2 of g^{-1} h: over the g in l1's
    double coset, the counts of the products of the entry that f1 reads at
    g and the entry that f2 reads at g^{-1} h.

    Keyed (l1, l2) to (target index, unit, count) arrays.  Character-free,
    so built once per cell.  One walk over the group slices fills one joint
    histogram over (label of g and the entry f1 reads there, lower row of
    g^{-1}); it must count |GL2(Z/p^n)| elements (AssertionError
    otherwise).  The lower row of g^{-1} h is the lower row of g^{-1} times
    h, so each target maps every lower row through h with a q^2-entry table
    and adds the histogram into its products in int64 (np.add.at).
    """
    slices = _group_slices(p, n)  # refused past BRUTE_LIMIT before anything is built
    q, labels = p**n, all_labels(p, n)  # label index = v_p(c) capped at n
    width, rows = len(labels) * q, q * q
    # what a twisted indicator sees of a matrix with lower row (c, d), packed
    # c * q + d: its label and the entry it reads (c on the w class, d on the
    # y classes), packed label * q + entry
    r0, r1 = np.divmod(np.arange(rows), q)
    vp = _vp_array(r0, p, n)
    seen = vp * q + np.where(vp == 0, r0, r1)
    own = (seen * rows).reshape(q, q)  # over (c, d), a slice's last two axes
    c = np.arange(q)[:, None]
    hist = np.zeros(width * rows, dtype=np.int64)
    for a, delta in slices:
        # the lower row of g^{-1}, delta * (-c, a), packed
        low = (-delta * c) % q * q + delta * a % q
        hist += np.bincount((own + low)[delta != 0], minlength=width * rows)
    if hist.sum() != k0_order(p, n, 0):
        raise AssertionError(f"the walk counted {hist.sum()} elements, not |GL2(Z/{q})|")
    filled = np.flatnonzero(hist)
    first, row = np.divmod(filled, rows)  # what f1 sees at g, lower row of g^{-1}
    l1_at, a_at = np.divmod(first, q)
    weight = hist[filled]
    size = len(labels) ** 3 * q
    counts = np.zeros(size, dtype=np.int64)
    for target, lab_h in enumerate(labels):
        h = label_rep(p, n, lab_h)
        # what f2 sees at g^{-1} h, for each lower row of g^{-1}
        l2_at, b_at = np.divmod(seen[(r0 * h.a + r1 * h.c) % q * q + (r0 * h.b + r1 * h.d) % q][row], q)
        key = ((l1_at * len(labels) + l2_at) * len(labels) + target) * q + a_at * b_at % q
        np.add.at(counts, key, weight)
    counts = counts.reshape(len(labels), len(labels), len(labels), q)
    out = {}
    for j1, l1 in enumerate(labels):
        for j2, l2 in enumerate(labels):
            target, unit = np.nonzero(counts[j1, j2])
            if len(target):
                out[(l1, l2)] = (target, unit, counts[j1, j2, target, unit])
    return out


def _value_exponents(vexp: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exponents of a twisted indicator at elements of its double coset,
    from the entries it reads there (or products of them)."""
    expo = vexp[entries]
    if np.any(expo < 0):
        raise AssertionError("twist evaluated at a non-unit entry")
    return expo


def brute_convolve_labels(p: int, n: int, chi: PChar, l1: str, l2: str) -> dict[str, Fraction]:
    """Structure constants of one basis product from the whole-group sum:
    at each target, the count-weighted histogram of chi at the products of
    `_pair_counts`, over |K0|.

    Roots of unity do cancel here: each histogram must collapse to a
    rational (ValueError otherwise)."""
    hit = _pair_counts(p, n).get((l1, l2))
    if hit is None:
        return {}
    target, unit, count = hit
    labels, m = all_labels(p, n), chi.field.order
    hist = np.zeros(len(labels) * m, dtype=np.int64)
    np.add.at(hist, target * m + _value_exponents(chi.exponent_table(), unit), count)
    sums = chi.field.integers_from_counts(hist.reshape(len(labels), m))
    k0_size = k0_order(p, n)
    return {lab_h: Fraction(s, k0_size) for lab_h, s in zip(labels, sums.tolist()) if s}


def cross_check_structure(rep: Report, chi: PChar, tag: str, coset: dict) -> None:
    """Compare every basis product against the coset-sum route's, given as
    (l1, l2) -> structure constants."""
    for (l1, l2), want in coset.items():
        with timed() as t:
            try:
                got = brute_convolve_labels(chi.p, chi.n, chi, l1, l2)
                detail = "" if got == want else f"coset {want} vs group {got}"
            except ValueError as exc:  # a non-rational collapse
                detail = f"group sum: {exc}"
        check(rep, f"{tag}.bruteforce.{l1}x{l2}", True, not detail, "oracle", t.elapsed,
              detail=detail)
