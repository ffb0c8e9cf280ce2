"""Property tests pinning the vectorized MatArray kernel to the scalar MatPn."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke_lab.cosets import (
    CosetTable,
    MatArray,
    MatPn,
    coset_table,
    identity,
    in_K0,
    stratum_label,
    stratum_of,
)
from tests.conftest import GRID, decompose, entries, stack

CELLS = GRID + [(7, 3)]


def _matrices(p, n, in_k0=False):
    pn = p**n
    entry = st.integers(0, pn - 1)
    if in_k0:
        unit = entry.filter(lambda u: u % p)
        return st.builds(lambda a, b, d: MatPn(p, n, a, b, 0, d), unit, entry, unit)
    quad = st.tuples(entry, entry, entry, entry).filter(lambda t: (t[0] * t[3] - t[1] * t[2]) % p)
    return quad.map(lambda t: MatPn(p, n, *t))


@st.composite
def cell_and_mats(draw, count=1, in_k0=False, size=st.integers(1, 10)):
    """A cell and `count` equally long lists of random invertible matrices."""
    p, n = draw(st.sampled_from(CELLS))
    k = draw(size)
    lists = [draw(st.lists(_matrices(p, n), min_size=k, max_size=k)) for _ in range(count)]
    if in_k0:
        lists.append(draw(st.lists(_matrices(p, n, in_k0=True), min_size=k, max_size=k)))
    return (p, n, *lists)


def assert_same(arr: MatArray, mats: list[MatPn]):
    assert len(arr) == len(mats)
    want = np.array([entries(g) for g in mats], dtype=np.int64).reshape(-1, 4)
    assert np.array_equal(np.stack(arr.entries(), axis=1), want)


@given(cell_and_mats(count=3))
def test_product_and_inverse_match_matpn(data):
    p, n, xs, ys, zs = data
    X, Y, Z = (stack(p, n, m) for m in (xs, ys, zs))
    assert_same(X @ Y, [x @ y for x, y in zip(xs, ys)])
    assert_same(X.inv(), [x.inv() for x in xs])
    # a MatPn broadcasts on either side
    assert_same(X @ ys[0], [x @ ys[0] for x in xs])
    assert_same(ys[0] @ X, [ys[0] @ x for x in xs])
    # group laws
    one = [identity(p, n)] * len(xs)
    assert_same(X @ X.inv(), one)
    assert_same(X.inv() @ X, one)
    assert_same((X @ Y) @ Z, [x @ (y @ z) for x, y, z in zip(xs, ys, zs)])
    assert_same((X @ Y).inv(), [y.inv() @ x.inv() for x, y in zip(xs, ys)])
    assert np.array_equal(X.det(), [x.det() for x in xs])


def positions(table: CosetTable, g: MatArray) -> np.ndarray:
    return table.decompose_rows(g.c, g.d)[0]


@given(cell_and_mats())
def test_positions_and_decompose_match_matpn(data):
    # the decomposition read from lower rows alone equals the full MatPn one
    p, n, xs = data
    table = coset_table(p, n)
    X = stack(p, n, xs)
    pos, d0 = table.decompose_rows(X.c, X.d)
    reference = [decompose(table, x) for x in xs]
    assert pos.tolist() == [i for i, _ in reference]
    assert d0.tolist() == [k0.d for _, k0 in reference]
    assert all(in_K0(k0) for _, k0 in reference)
    assert_same(stack(p, n, [k0 for _, k0 in reference]) @ table.rep_array[pos], xs)


@given(cell_and_mats(count=1, in_k0=True), st.data())
def test_labels_invariant_under_K0_on_both_sides(data, draw):
    p, n, xs, ks = data
    table = coset_table(p, n)
    X, K = stack(p, n, xs), stack(p, n, ks)
    k = draw.draw(_matrices(p, n, in_k0=True))
    base = table.stratum[positions(table, X)]
    assert [stratum_label(j) for j in base] == [stratum_label(stratum_of(x)) for x in xs]
    assert np.array_equal(table.stratum[positions(table, K @ X @ k)], base)
    assert np.array_equal(table.stratum[positions(table, k @ X @ K)], base)
    # left multiplication by K0 keeps the right coset itself
    assert np.array_equal(positions(table, K @ X), positions(table, X))


def test_indexing_and_len():
    p, n = 3, 2
    X = stack(p, n, [MatPn(p, n, 1, t, 3 * t, 1) for t in range(9)])
    assert len(X) == 9
    assert X[4] == MatPn(p, n, 1, 4, 12, 1)
    assert_same(X[X.b % 2 == 0], [MatPn(p, n, 1, t, 3 * t, 1) for t in range(0, 9, 2)])
    assert_same(X[np.array([8, 0])], [MatPn(p, n, 1, 8, 24, 1), MatPn(p, n, 1, 0, 0, 1)])


def test_singular_and_mixed_inputs_raise():
    X = MatArray(3, 2, [1, 3], [0, 0], [0, 0], [1, 3])  # second matrix singular mod 3
    with pytest.raises(ValueError):
        X.inv()
    with pytest.raises(ValueError, match="primitive"):
        positions(coset_table(3, 2), X)
    with pytest.raises(ValueError):
        X[:1] @ MatPn(3, 1, 1, 0, 0, 1)


def test_decompose_rows_rejects_a_factor_outside_K0():
    # a table whose representatives are all replaced by the identity leaves
    # k0 = g, which is outside K0 off the identity class
    table = CosetTable(3, 2)
    table._rep_inv_array = stack(3, 2, [identity(3, 2)] * table.dim)
    g = stack(3, 2, [MatPn(3, 2, 0, -1, 1, 0)])
    with pytest.raises(ValueError, match="left K0"):
        table.decompose_rows(g.c, g.d)
