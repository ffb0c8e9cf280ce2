"""The one registry of caches that hold character-free cell work.

Work that reads no character (coset and transport tables, whole-group
product counts, K_g twist ratios, structure constants, operators,
certificates, relation verdicts, the fixed-vector chain's unit potentials)
is cached per cell (p, n), per (p, n, r), per (p, n, group element) or per
(p, n, level, witness word) and shared by every character there.  The
caches are unbounded, so a campaign empties them when it moves to another
cell, and a test empties them before it patches what the cached work is
built from.
"""

from __future__ import annotations

from functools import lru_cache

CELL_CACHES: list = []


def cell_cache(fn):
    """`lru_cache(maxsize=None)`, registered in CELL_CACHES."""
    cached = lru_cache(maxsize=None)(fn)
    CELL_CACHES.append(cached)
    return cached


def clear_cell_caches() -> None:
    for cached in CELL_CACHES:
        cached.cache_clear()
