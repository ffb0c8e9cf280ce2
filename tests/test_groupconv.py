"""The whole-group oracle walks GL2(Z/p^n) in blocks: its pair counts and
census do not depend on the block size, a cell's build stays small, and a
modulus past the cap is refused before anything is built."""

import tracemalloc

import pytest

from hecke_lab import groupconv
from hecke_lab.groupconv import BRUTE_LIMIT, _group_blocks, _pair_counts, double_coset_census


def _oracle_tables(p, n):
    pairs = {key: tuple(x.tolist() for x in hit) for key, hit in _pair_counts(p, n).items()}
    return pairs, double_coset_census(p, n)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3)])
def test_oracle_tables_do_not_depend_on_the_block_size(monkeypatch, fresh_caches, p, n):
    default = _oracle_tables(p, n)
    # 512 divides neither 3^4 nor 3^6 candidates, so the last block is short
    monkeypatch.setattr(groupconv, "_BLOCK_ELEMENTS", 512)
    assert sum(1 for _ in _group_blocks(p, n)) > 1
    groupconv._pair_counts.cache_clear()
    assert _oracle_tables(p, n) == default


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
            _group_blocks(2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of candidates alone is 4 arrays of 2^14 int64 (512 KB)
    assert peak < 1 << 16, peak
