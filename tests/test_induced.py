import random

import numpy as np
import pytest

from hecke_lab.characters import PChar
from hecke_lab.cosets import MatPn
from hecke_lab.induced import build_In, fixed_subspace, verify_induced
from tests.conftest import GRID


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_dimension_formula(p, n):
    rep = build_In(p, n, PChar.trivial(p, n))
    assert rep.dim == p ** (n - 1) * (p + 1)


def test_fixed_chain_trivial_character():
    # (2, 3): the unit group mod 8 needs two generators
    for p, n in [(3, 2), (2, 3)]:
        rep = build_In(p, n, PChar.trivial(p, n))
        dims = [fixed_subspace(rep, m).dim for m in range(n + 1)]
        assert dims == list(range(1, n + 2))  # one new dimension per level, from m = 0


def test_fixed_chain_primitive_character():
    for p, n, conrey in [(3, 2, 2), (2, 3, 3)]:  # conductors 9 and 8
        chi = PChar.from_conrey(p, n, conrey)
        assert chi.conductor_exponent == n
        rep = build_In(p, n, chi)
        dims = [fixed_subspace(rep, m).dim for m in range(n + 1)]
        assert dims == [0] * n + [1]


def _sample_K0m(p, n, m, rng, size=8):
    """Uniform sample of K0(p^m) mod p^n (all of GL2(Z/p^n) at m = 0)."""
    pn = p**n
    out = []
    while len(out) < size:
        a, b, d = (rng.randrange(pn) for _ in range(3))
        c = p**m * rng.randrange(p ** (n - m))
        if (a * d - b * c) % p:
            out.append(MatPn(p, n, a, b, c, d))
    return out


@pytest.mark.parametrize("p,n", GRID)
def test_fixed_vectors_are_eigenvectors_of_sampled_K0m(p, n):
    """fixed_subspace imposes only a generating set; every basis vector must
    still satisfy pi_R(k) v = chi(d_k) v for random k in K0(p^m), m >= r."""
    rng = random.Random(f"K0m:{p}:{n}")
    # one sample per level, shared by every character of the cell
    samples = {m: _sample_K0m(p, n, m, rng) for m in range(n + 1)}
    for chi in PChar.all_characters(p, n):
        rep = build_In(p, n, chi)
        r, mord, vexp = rep.r, rep.field.order, chi.exponent_table()
        for m in range(r, n + 1):
            basis = fixed_subspace(rep, m).basis_exponents
            assert len(basis) == m - r + 1
            for k in samples[m]:
                pps = rep.piR(k)
                cls, e = pps.cls[0], pps.e[0]
                # conductor 1: eigenvalue 1 on all of GL2, where d_k may be a non-unit
                xk = 0 if r == 0 else int(vexp[k.d])
                for ph in basis:
                    live = ph >= 0
                    assert np.array_equal(live[cls], live), (chi, m, k)
                    lhs = (e[live] + ph[cls[live]]) % mord
                    assert np.array_equal(lhs, (xk + ph[live]) % mord), (chi, m, k)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_spectral_audit(p, n):
    for chi in PChar.all_characters(p, n):
        sp = verify_induced(p, n, chi)
        assert sp.report.ok, [a.id for a in sp.report.failures()]
        assert sp.tables["entrywise_ok"]
        assert sp.component_dims["agree"]
        for m, d in sp.fixed_dims.items():
            assert d == (m - sp.r + 1 if m >= sp.r else 0)


def test_iwahori_components():
    # level-one induction from the trivial character splits 4 = 1 + 3
    sp = verify_induced(3, 1, PChar.trivial(3, 1))
    assert sp.tables["Y"][(1, 1)] == 1
    assert sp.dim == 4
    assert sp.component_dims["by_formula"] == {"w+": 1, "w-": 3}
