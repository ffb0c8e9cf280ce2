import json
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from hecke_lab.characters import unit_group
from hecke_lab.cosets import (
    K0_ENUMERATION_LIMIT,
    MatArray,
    MatPn,
    _K0_blocks,
    _left_transport,
    all_labels,
    class_right_reps,
    coset_table,
    enumerate_Kg,
    identity,
    in_K0,
    k0_order,
    label_rep,
    stratum_label,
    stratum_of,
    w1,
    xmat,
    ymat,
)
from tests.conftest import GRID, decompose, dmat, entries

CELLS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
LARGE = [(cell["p"], cell["n"]) for cell in json.loads(
    (Path(__file__).resolve().parents[1] / "campaigns" / "large.json").read_text())["grid"]]


def enumerate_K0(p: int, n: int, m: Optional[int] = None) -> MatArray:
    """All elements of K0(p^m) inside GL2(Z/p^n), for 1 <= m <= n; refused
    with ValueError above K0_ENUMERATION_LIMIT elements."""
    return MatArray.concat(p, n, list(_K0_blocks(p, n, n if m is None else m)))


def Kg_condition_closed_form(g: MatPn, k):
    """Membership test for K_g without enumeration (g a standard rep); k a
    MatPn, or a MatArray for an elementwise mask.

    For g = y(p^m) with m < n, conjugating k = (a, b; c, d) gives lower-left
    c + p^m (a - d - p^m b), so k is in K_g iff a - d - p^m b = 0 mod p^{n-m}.
    For g = w(1) the condition is b = 0 mod p^n; the identity gives all of K0.
    """
    p, n = g.p, g.n
    m = stratum_of(g)
    if m == n:
        return in_K0(k)
    if m == 0:
        return in_K0(k) & (k.b % k.pn == 0)
    return in_K0(k) & ((k.a - k.d - p**m * k.b) % p ** (n - m) == 0)


def _label(g: MatPn) -> str:
    return stratum_label(stratum_of(g))


@pytest.mark.parametrize("p,n", CELLS)
def test_right_coset_count(p, n):
    assert len(coset_table(p, n).rep_array) == p ** (n - 1) * (p + 1)


def _valuation(c, p, n):
    """v_p(c) for c in [0, p^n), with v_p(0) = n, by trial division."""
    v = 0
    while v < n and c % p ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("p,n", GRID + [(7, 3), (2, 9), (37, 2)])
def test_coset_table_matches_matpn_reconstruction(p, n):
    # the cosets rebuilt one MatPn at a time: w(1) x(d) for d mod p^n, then
    # y(c) for c in pZ/p^n ordered by (v_p(c), c)
    pn = p**n
    cs = sorted(range(0, pn, p), key=lambda c: (_valuation(c, p, n), c))
    reps = [w1(p, n) @ xmat(p, n, d) for d in range(pn)] + [ymat(p, n, c) for c in cs]
    strata = [0] * pn + [_valuation(c, p, n) for c in cs]
    c1_position = [-1] * pn
    for k, c in enumerate(cs):
        c1_position[c] = pn + k
    table = coset_table(p, n)
    assert table.dim == len(reps) == p ** (n - 1) * (p + 1)
    assert np.stack(table.rep_array.entries(), axis=1).tolist() == [list(entries(g)) for g in reps]
    assert table.stratum.tolist() == strata
    assert table._c1_position.tolist() == c1_position
    assert [table.position_of(g) for g in reps] == list(range(table.dim))
    assert [_label(g) for g in reps] == [f"y{j}" if j else "w" for j in strata]


@pytest.mark.parametrize("p,n", CELLS)
def test_labels(p, n):
    assert all_labels(p, n) == ["w"] + [f"y{j}" for j in range(1, n + 1)]
    assert _label(w1(p, n)) == "w"
    assert _label(identity(p, n)) == f"y{n}"
    assert _label(xmat(p, n, 1)) == f"y{n}"
    for j in range(1, n):
        assert _label(ymat(p, n, p**j)) == f"y{j}"


@pytest.mark.parametrize("p,n", CELLS)
def test_class_sizes(p, n):
    # single-coset counts per double coset: w class p^n, y(p^j) class
    # p^(n-j-1)(p-1), identity class 1; they partition all right cosets
    sizes = {lab: len(class_right_reps(p, n, lab)) for lab in all_labels(p, n)}
    assert sizes["w"] == p**n
    assert sizes[f"y{n}"] == 1
    for j in range(1, n):
        assert sizes[f"y{j}"] == p ** (n - j - 1) * (p - 1)
    assert sum(sizes.values()) == p ** (n - 1) * (p + 1)


@pytest.mark.parametrize("p,n", GRID + [(7, 3)])
def test_class_reps_closed_form(p, n):
    # the MatArray closed forms are, entry for entry and in order, the MatPn
    # products d(s) y(p^j), x(t) w and I
    want = {f"y{j}": [dmat(p, n, s) @ ymat(p, n, p**j)
                      for s in range(1, p ** (n - j)) if s % p]
            for j in range(1, n)}
    want["w"] = [xmat(p, n, t) @ w1(p, n) for t in range(p**n)]
    want[f"y{n}"] = [identity(p, n)]
    for lab in all_labels(p, n):
        got = class_right_reps(p, n, lab)
        assert [got[i] for i in range(len(got))] == want[lab], lab


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_decompose_reconstructs(p, n):
    table = coset_table(p, n)
    samples = [w1(p, n), xmat(p, n, 1), ymat(p, n, p), identity(p, n),
               w1(p, n) @ xmat(p, n, 1), ymat(p, n, 1) @ w1(p, n)]
    for g in samples:
        pos, k0 = decompose(table, g)
        assert in_K0(k0)
        assert k0 @ table.rep_array[pos] == g


def test_decompose_partition():
    # every element of K0(p) at level p^2 falls in exactly one right coset
    p, n = 3, 2
    table = coset_table(p, n)
    for g in enumerate_K0(p, n, 1):
        pos, k0 = decompose(table, g)
        assert in_K0(k0)
        assert k0 @ table.rep_array[pos] == g


@pytest.mark.parametrize("p,n", GRID)
def test_Kg_index(p, n):
    # |K_g| * [number of single cosets in the class] = |K0|
    k0_size = len(enumerate_K0(p, n, n))
    assert k0_size == k0_order(p, n)
    for lab in all_labels(p, n):
        g = label_rep(p, n, lab)
        assert len(enumerate_Kg(g)) * len(class_right_reps(p, n, lab)) == k0_size


@pytest.mark.parametrize("p,n", GRID)
def test_Kg_enumeration_matches_closed_form(p, n):
    # conjugating every element of K0 and keeping those that stay in K0
    # gives, element for element, the closed-form parametrization
    K0 = enumerate_K0(p, n)
    assert np.all(K0.det() % p != 0) and np.all(in_K0(K0))
    for lab in all_labels(p, n):
        g = label_rep(p, n, lab)
        want = K0[Kg_condition_closed_form(g, K0)]
        got = enumerate_Kg(g)
        assert all(np.array_equal(x, y) for x, y in zip(got.entries(), want.entries())), lab


def test_enumeration_refused_before_allocating():
    assert k0_order(7, 3) > K0_ENUMERATION_LIMIT >= k0_order(5, 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            enumerate_K0(7, 3)
        with pytest.raises(ValueError, match="limit"):
            enumerate_Kg(ymat(7, 3, 7))
        with pytest.raises(ValueError, match="limit"):
            enumerate_K0(5, 3, 2)  # K0(5^2) mod 5^3 is five times K0(5^3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_transport_refused_before_allocating():
    # the tables hold dim^2 products: every cell of the large campaign fits
    # the budget, up to (5, 4) with 562,500; (7, 4) needs 7.5M
    def products(p, n):
        return (p ** (n - 1) * (p + 1)) ** 2

    large = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (5, 4), (7, 2), (7, 3), (11, 2)]
    assert max(products(p, n) for p, n in large) == products(5, 4) <= K0_ENUMERATION_LIMIT
    assert products(7, 4) > K0_ENUMERATION_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            _left_transport(7, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("p,n", GRID + LARGE)
def test_transport_closed_form_matches_decomposition(p, n):
    """Every class's closed-form coset map and d0 equal, entry for entry
    and in dtype, what CosetTable.decompose_rows makes of every product
    a^{-1} rep_c."""
    table = coset_table(p, n)
    left = _left_transport(p, n)
    assert list(left) == all_labels(p, n)
    for lab in all_labels(p, n):
        g = class_right_reps(p, n, lab).inv()[:, None] @ table.rep_array
        want = table.decompose_rows(g.c, g.d)
        for got, ref in zip(left[lab], want):
            assert got.dtype == np.min_scalar_type(table.dim), (lab, got.dtype)
            assert np.array_equal(got, ref), lab


def test_transport_builds_under_3_5_mb_at_5_4(fresh_caches):
    """At (5,4), dim 750, the two tables of every class hold 2.15 MiB
    together; building them a block of class representatives at a time
    peaks under 3.5 MiB."""
    coset_table(5, 4), unit_group(5, 4)  # neither is part of the budget
    tracemalloc.start()
    try:
        _left_transport(5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, peak


def test_matrix_arithmetic():
    g = MatPn(5, 1, 2, 1, 0, 3)
    h = g.inv()
    assert g @ h == identity(5, 1)
    assert not in_K0(ymat(5, 1, 1))
    assert in_K0(ymat(5, 1, 5))
