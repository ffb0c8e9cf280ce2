"""Brute-force convolution oracle over the full finite group.

For small moduli (p^n <= 27) convolution can be computed from its
definition,

    (f1 * f2)(h) = (1/|K0|) * sum over g in G of f1(g) f2(g^{-1} h),

with no coset theory at all.  The group GL2(Z/p^n) is walked in blocks of
candidate matrices, never held whole: each block keeps its unit-determinant
matrices and inverts them.  Values are tracked as root-of-unity exponents
and accumulated with a histogram, which keeps everything exact.  f1(g) and
f2(g^{-1} h) read chi at one matrix entry each, so the sum is regrouped: the
pairs of entries are counted over the group once per cell, block by block,
and a cell keeps only those pair counts; each character only weights its
exponent sums by them.  This module deliberately shares no logic with the
coset-sum route it checks: it takes only group arithmetic (MatArray
determinants and inverses) from cosets, never canonical forms,
decompositions or labels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, _vp_array
from .cosets import _BLOCK_ELEMENTS, MatArray, all_labels, k0_order, label_rep
from .report import Report, check, timed

BRUTE_LIMIT = 27


def _group_blocks(p: int, n: int) -> Iterator[MatArray]:
    """GL2(Z/p^n) in blocks: the candidates (a, b, c, d) in order, about
    _BLOCK_ELEMENTS at a time, each block kept where its determinant is a
    unit.  The size guard raises here, before any block is built."""
    q = p**n
    if q > BRUTE_LIMIT:
        raise ValueError(f"brute-force enumeration capped at modulus {BRUTE_LIMIT}")
    total, step = q**4, _BLOCK_ELEMENTS

    def block(lo: int) -> MatArray:
        g = MatArray(p, n, *np.unravel_index(np.arange(lo, min(lo + step, total)), (q,) * 4))
        return g[g.det() % p != 0]

    return map(block, range(0, total, step))


def double_coset_census(p: int, n: int) -> dict[str, int]:
    """Element count of each double coset, by v_p(c) capped at n (label
    index; 0 = w class) over the group blocks."""
    counts = sum(np.bincount(_vp_array(g.c, p, n), minlength=n + 1) for g in _group_blocks(p, n))
    return {lab: int(k) for lab, k in zip(all_labels(p, n), counts)}


@cell_cache
def _pair_counts(p: int, n: int) -> dict[tuple[str, str, str], tuple]:
    """The whole-group sum with the character taken out, for every support
    label l1 and target label h: over the g in l1's double coset, the
    distinct pairs (entry that f1 reads at g, entry that f2 reads at
    g^{-1} h) with their counts, bucketed by the label l2 of g^{-1} h.

    Keyed (l1, h, l2) to (a, b, count) arrays; at most q^2 pairs each.
    Character-free, so built once per cell, from per-target histograms
    summed over the group blocks.
    """
    blocks = _group_blocks(p, n)  # refused past BRUTE_LIMIT before anything is built
    q, labels = p**n, all_labels(p, n)  # label index = v_p(c) capped at n
    width = len(labels) * q
    # what a twisted indicator sees of a matrix with lower row (c, d), packed
    # c * q + d: its label and the entry it reads (c on the w class, d on the
    # y classes), packed label * q + entry
    c, d = np.divmod(np.arange(q * q), q)
    vp = _vp_array(c, p, n)
    seen = vp * q + np.where(vp == 0, c, d)
    targets = [label_rep(p, n, lab) for lab in labels]
    hist = np.zeros((len(labels), width * width), dtype=np.int64)
    for g in blocks:
        own = seen[g.c * q + g.d] * width
        gi = g.inv()
        for acc, h in zip(hist, targets):
            # the lower row of g^{-1} h
            other = seen[(gi.c * h.a + gi.d * h.c) % q * q + (gi.c * h.b + gi.d * h.d) % q]
            acc += np.bincount(own + other, minlength=width * width)
    out = {}
    for lab_h, acc in zip(labels, hist):
        counts = acc.reshape(len(labels), q, len(labels), q)
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
    pairs, k0_size = _pair_counts(p, n), k0_order(p, n)
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
