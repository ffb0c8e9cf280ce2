import numpy as np
import pytest
from hypothesis import settings

from hecke_lab.cellcache import clear_cell_caches
from hecke_lab.characters import _vp_array
from hecke_lab.cosets import CosetTable, MatArray, MatPn, all_labels, in_K0
from hecke_lab.groupconv import _group_slices
from hecke_lab.hecke import HeckeElem, convolve, supported_basis
from hecke_lab.newspace import characterize
from hecke_lab.spaces import load_families

GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


def dmat(p, n, s):
    """diag(s, 1) mod p^n."""
    return MatPn(p, n, s, 0, 0, 1)


# Scalar and whole-group references that the tests compare the package's
# routes against.


def entries(g: MatPn) -> tuple[int, int, int, int]:
    return (g.a, g.b, g.c, g.d)


def stack(p: int, n: int, mats) -> MatArray:
    """The MatPn of a sequence, in order, as one MatArray."""
    ent = np.array([entries(g) for g in mats], dtype=np.int64).reshape(-1, 4)
    return MatArray(p, n, *ent.T)


def decompose(table: CosetTable, g: MatPn) -> tuple[int, MatPn]:
    """g = k0 * table.rep_array[position]: (position, k0), one MatPn at a
    time; the scalar reference for CosetTable.decompose_rows."""
    pos = table.position_of(g)
    k0 = g @ table.rep_array[pos].inv()
    if not in_K0(k0):
        raise ValueError(f"{g!r} = k0 * rep left K0(p^n): k0 = {k0!r}")
    return pos, k0


def double_coset_census(p: int, n: int) -> dict[str, int]:
    """Element count of each double coset, by v_p(c) capped at n (label
    index; 0 = w class): the whole-group oracle's slices counted by their
    lower-left entry c, then grouped by v_p(c)."""
    by_c = sum(np.count_nonzero(delta, axis=(0, 1, 3)) for _, delta in _group_slices(p, n))
    vp = _vp_array(np.arange(p**n), p, n)
    return {lab: int(by_c[vp == j].sum()) for j, lab in enumerate(all_labels(p, n))}


def structure_constants(p: int, n: int, chi) -> dict:
    """(l1, l2) -> the coefficients of V_l1 * V_l2, over the supported
    basis, each product through convolve and so through HeckeElem's label
    check."""
    labels = supported_basis(p, n, chi)
    basis = {lab: HeckeElem.basis(p, n, chi, lab) for lab in labels}
    return {(li, lj): convolve(basis[li], basis[lj]).coeffs for li in labels for lj in labels}


@pytest.fixture
def fresh_caches():
    """For tests that patch what the cell caches are built from: without a
    clear, a cache filled by an earlier test would hide the patched path."""
    clear_cell_caches()
    yield
    clear_cell_caches()


# Property tests draw the same examples on every run and stay within tier-1 time.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def families():
    return load_families()


@pytest.fixture(scope="session")
def char_results(families):
    """Newspace characterization of every fixture family, computed once."""
    return {fam["name"]: characterize(fam["space"]) for fam in families}
