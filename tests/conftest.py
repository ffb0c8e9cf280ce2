import pytest
from hypothesis import settings

from hecke_lab.cellcache import clear_cell_caches
from hecke_lab.cosets import MatPn
from hecke_lab.newspace import characterize
from hecke_lab.spaces import load_families

GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


def dmat(p, n, s):
    """diag(s, 1) mod p^n."""
    return MatPn(p, n, s, 0, 0, 1)


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
