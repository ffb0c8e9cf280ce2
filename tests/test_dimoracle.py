import math

import pytest

from hecke_lab import dimoracle
from hecke_lab.campaign import Campaign, run_verify
from hecke_lab.characters import DirChar
from hecke_lab.dimoracle import _divisors, _eps_points, dim_cusp, dim_new, sigma0
from hecke_lab.spaces import fixture_dir

# cusp-space dimensions frozen from independent hand evaluations of the
# trace-formula closed form (Cohen-Oesterle / Stein, Modular Forms: A
# Computational Approach, Thm 6.18)
TRIVIAL_DIMS = {
    (1, 2): 0, (4, 2): 0, (6, 2): 0, (9, 2): 0, (10, 2): 0, (12, 2): 0,
    (18, 2): 0, (11, 2): 1, (14, 2): 1, (15, 2): 1, (22, 2): 2, (27, 2): 1,
    (30, 2): 3, (36, 2): 1, (4, 4): 0, (8, 4): 1, (1, 12): 1,
}

CHARACTER_DIMS = [
    (7, 3, 6, 1),     # conductor-7 odd quadratic
    (14, 3, 13, 2),
    (21, 3, 13, 4),
    (8, 3, 3, 1),     # conductor-8 odd quadratic
    (16, 3, 7, 2),
    (4, 3, 3, 0),     # conductor-4 odd quadratic
    (8, 3, 7, 0),
    (16, 3, 15, 1),
    (15, 4, 4, 4),    # conductor-5 even quadratic
]

NEW_DIMS = [
    (11, 2, 1, 1), (14, 2, 1, 1), (15, 2, 1, 1), (22, 2, 1, 0),
    (30, 2, 1, 1), (36, 2, 1, 1), (27, 2, 1, 1), (8, 4, 1, 1),
    (7, 3, 6, 1), (14, 3, 13, 0), (21, 3, 13, 2), (8, 3, 3, 1),
    (16, 3, 7, 0), (16, 3, 15, 1), (15, 4, 4, 4),
]


@pytest.mark.parametrize("N,k", sorted(TRIVIAL_DIMS))
def test_trivial_character_dimensions(N, k):
    assert dim_cusp(N, k) == TRIVIAL_DIMS[(N, k)]


@pytest.mark.parametrize("N,k,conrey,want", CHARACTER_DIMS)
def test_character_dimensions(N, k, conrey, want):
    assert dim_cusp(N, k, DirChar.from_conrey(N, conrey)) == want


@pytest.mark.parametrize("N,k,conrey,want", NEW_DIMS)
def test_new_dimensions(N, k, conrey, want):
    assert dim_new(N, k, DirChar.from_conrey(N, conrey)) == want


def test_parity_gate():
    assert dim_cusp(21, 2, DirChar.from_conrey(21, 13)) == 0  # odd chi, even k


def oldspace_dimensions(n, k, chi):
    """New-subspace dimension of every level between the conductor and n."""
    return {m: dim_new(m, k, chi.at_modulus(m)) for m in _divisors(n) if m % chi.conductor == 0}


def test_oldspace_towers():
    tower = oldspace_dimensions(30, 2, DirChar.trivial(30))
    assert {m: d for m, d in tower.items() if d} == {15: 1, 30: 1}
    tower = oldspace_dimensions(21, 3, DirChar.from_conrey(21, 13))
    assert tower == {7: 1, 21: 2}


def _sigma0(m):
    return sum(1 for d in range(1, m + 1) if m % d == 0)


@pytest.mark.parametrize("N,k", [(22, 2), (30, 2), (36, 2), (16, 3)])
def test_old_plus_new_consistency(N, k):
    # dim S_k(N) = sum over conductor-compatible M | N of sigma_0(N/M) newdim(M)
    chi = DirChar.trivial(N) if k % 2 == 0 else DirChar.from_conrey(16, 15)
    total = sum(
        _sigma0(N // M) * nd for M, nd in oldspace_dimensions(N, k, chi).items()
    )
    assert total == dim_cusp(N, k, chi)


def _uncached_dim_new(n, k, chi):
    """dim_new as it was before the module-level caches: the formula itself
    at every level, through a recursion that lives for one call."""
    formula = dimoracle._dim_cusp.__wrapped__

    def newdim(m):
        d = formula(m, k, chi.at_modulus(m))
        for md in _divisors(m):
            if md != m and md % chi.conductor == 0:
                d -= sigma0(m // md) * newdim(md)
        return d

    return newdim(n)


def test_cached_oracle_matches_an_uncached_run():
    """Over every character mod N <= 40 and k in {2, 3, 4}, both cached
    functions give the uncached values."""
    seen = 0
    for N in range(1, 41):
        for j in range(1, max(N, 2)):
            if math.gcd(j, N) != 1:
                continue
            chi = DirChar.from_conrey(N, j)
            for k in (2, 3, 4):
                assert dim_cusp(N, k, chi) == dimoracle._dim_cusp.__wrapped__(N, k, chi), (N, j, k)
                assert dim_new(N, k, chi) == _uncached_dim_new(N, k, chi), (N, j, k)
                seen += 1
    assert seen == 3 * 490  # 490 characters


def test_classical_suite_evaluates_the_formula_once_per_space():
    """A cold classical run asks for 30 distinct (n, k, chi), and the
    Cohen-Oesterle formula runs once for each."""
    dimoracle._dim_cusp.cache_clear()
    dimoracle._dim_new.cache_clear()
    rep = run_verify(Campaign(fixture_dirs=[str(fixture_dir())]))
    assert rep.n_fail == 0
    assert dimoracle._dim_cusp.cache_info().misses == 30


def test_point_counts_on_every_character_up_to_64():
    """The exact point counts equal the complex sums of chi over the roots of
    x^2 + 1 and x^2 + x + 1, on every character mod N <= 64, non-real ones
    included."""
    seen = nonreal = 0
    for N in range(1, 65):
        for j in range(1, max(N, 2)):
            if math.gcd(j, N) != 1:
                continue
            chi = DirChar.from_conrey(N, j)
            seen += 1
            nonreal += chi.order > 2
            for a, b, c in ((1, 0, 1), (1, 1, 1)):
                roots = [x for x in range(N) if (a * x * x + b * x + c) % N == 0]
                want = sum(chi.value_complex(x) for x in roots)
                assert abs(_eps_points(N, chi, a, b, c) - want) < 1e-9, (N, j, (a, b, c))
    assert (seen, nonreal) == (1260, 1060)
