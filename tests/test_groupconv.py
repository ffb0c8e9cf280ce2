"""The whole-group oracle walks GL2(Z/p^n) in slices: its unit-product
counts equal those of a per-target walk over blocks of whole matrices, they
and the census do not depend on the block size that sizes the slices, a
cell's build stays small, the walk must count the whole group, and a
modulus past the cap is refused before anything is built."""

import itertools
import tracemalloc

import numpy as np
import pytest

from hecke_lab import groupconv
from hecke_lab.characters import _vp_array
from hecke_lab.cosets import _BLOCK_ELEMENTS, MatArray, all_labels, label_rep
from hecke_lab.groupconv import BRUTE_LIMIT, _group_slices, _pair_counts
from tests.conftest import GRID, double_coset_census

SMALL_CELLS = [(p, n) for p, n in GRID if p**n <= BRUTE_LIMIT]


def _reference_pair_counts(p, n):
    """The pair counts by a walk over blocks of the q^4 candidate matrices in
    order: each block keeps its unit-determinant matrices, inverts them, and
    for every target h counts the pairs (entry read at g, entry read at
    g^{-1} h) with one bincount per target; then each pair's count goes to
    the product of its two entries."""
    q, labels = p**n, all_labels(p, n)
    width = len(labels) * q
    c, d = np.divmod(np.arange(q * q), q)
    vp = _vp_array(c, p, n)
    seen = vp * q + np.where(vp == 0, c, d)
    targets = [label_rep(p, n, lab) for lab in labels]
    hist = np.zeros((len(labels), width * width), dtype=np.int64)
    for lo in range(0, q**4, _BLOCK_ELEMENTS):
        flat = np.arange(lo, min(lo + _BLOCK_ELEMENTS, q**4))
        g = MatArray(p, n, *np.unravel_index(flat, (q,) * 4))
        g = g[g.det() % p != 0]
        own = seen[g.c * q + g.d] * width
        gi = g.inv()
        for acc, h in zip(hist, targets):
            other = seen[(gi.c * h.a + gi.d * h.c) % q * q + (gi.c * h.b + gi.d * h.d) % q]
            acc += np.bincount(own + other, minlength=width * width)
    out = {}
    counts = hist.reshape(len(labels), len(labels), q, len(labels), q)
    for (j1, l1), (j2, l2) in itertools.product(enumerate(labels), repeat=2):
        # each pair (a, b) counted at the unit a b, which chi maps to chi(a) chi(b)
        rows = []
        for target in range(len(labels)):
            a, b = np.nonzero(counts[target, j1, :, j2])
            by_unit = np.zeros(q, dtype=np.int64)
            np.add.at(by_unit, a * b % q, counts[target, j1, a, j2, b])
            unit = np.flatnonzero(by_unit)
            rows.append((np.full(len(unit), target), unit, by_unit[unit]))
        target, unit, count = (np.concatenate(col) for col in zip(*rows))
        if len(unit):
            out[(l1, l2)] = (target, unit, count)
    return out


def _listed(pairs):
    return [(key, tuple(x.tolist() for x in hit)) for key, hit in pairs.items()]


@pytest.mark.parametrize("p,n", SMALL_CELLS)
def test_pair_counts_match_a_per_target_block_walk(fresh_caches, p, n):
    got = _pair_counts(p, n)
    assert _listed(got) == _listed(_reference_pair_counts(p, n))
    assert all(x.dtype == np.int64 for hit in got.values() for x in hit)


def _oracle_tables(p, n):
    return _listed(_pair_counts(p, n)), double_coset_census(p, n)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3)])
def test_oracle_tables_do_not_depend_on_the_block_size(monkeypatch, fresh_caches, p, n):
    default = _oracle_tables(p, n)
    # five upper-left entries a slice: 8, 9 and 27 values split into several
    # slices, the last one short
    monkeypatch.setattr(groupconv, "_BLOCK_ELEMENTS", 5 * p ** (3 * n))
    sizes = [len(a) for a, _ in _group_slices(p, n)]
    assert len(sizes) > 1 and sizes[-1] < sizes[0], sizes
    groupconv._pair_counts.cache_clear()
    assert _oracle_tables(p, n) == default


def test_walk_must_count_the_whole_group(monkeypatch, fresh_caches):
    full = groupconv._group_slices
    monkeypatch.setattr(groupconv, "_group_slices", lambda p, n: list(full(p, n))[:-1])
    with pytest.raises(AssertionError, match="counted"):
        _pair_counts(3, 3)


def test_pair_counts_build_under_8_mb(fresh_caches):
    # the group at (3, 3) has 314,928 elements: held whole with its inverses,
    # about 50 MB
    tracemalloc.start()
    try:
        _pair_counts(3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_oracle_refused_before_allocating(fresh_caches):
    assert 2**5 > BRUTE_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped"):
            _pair_counts(2, 5)
        with pytest.raises(ValueError, match="capped"):
            double_coset_census(2, 5)
        with pytest.raises(ValueError, match="capped"):
            _group_slices(2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one slice of candidates alone is 2^15 int64 (256 KB) at q = 32
    assert peak < 1 << 16, peak
