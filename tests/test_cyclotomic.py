import cmath
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke_lab.cyclotomic import CyclotomicField, _factorize, euler_phi, get_field

CYC_RANGE = range(1, 1201)  # every field order of the grid and of campaigns/large.json (max 500)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 9, 12, 100)] == [1, 1, 2, 2, 4, 6, 4, 40]


def _basis_exponents(m):
    """The exponent e of each CRT basis element, zeta^e = prod zeta_q^(k_q)
    over the prime powers q = p^a exactly dividing m, zeta_q = zeta^(m/q)
    and k_q < phi(q), the tuples in row-major order."""
    qs = [(p, p**a) for p, a in _factorize(m)]
    tuples = itertools.product(*(range(q - q // p) for p, q in qs))
    return np.array([sum(k * (m // q) for k, (_, q) in zip(ks, qs)) % m for ks in tuples], dtype=np.int64)


def _embed(f, coords):
    """Complex value of CRT coordinates under zeta -> exp(2 pi i / m)."""
    return np.asarray(coords) @ np.exp(2j * cmath.pi / f.order * _basis_exponents(f.order))


def test_fourth_root():
    f = get_field(4)
    assert f.rational_from_counts([0, 0, 1, 0]) == -1  # zeta^2
    assert f.reduce_exponent_matrix([1, 0, 0, 0]).tolist() == [1, 0]  # zeta^0 = 1
    assert f.reduce_exponent_matrix([0, 1, 0, 1]).tolist() == [0, 0]  # zeta + zeta^3 = 0
    assert f.rational_from_counts([1, 0, 1, 0]) == 0


def test_third_root_minimal_polynomial():
    f = get_field(3)
    assert f.reduce_exponent_matrix([1, 1, 1]).tolist() == [0, 0]
    assert f.rational_from_counts([1, 1, 1]) == 0
    assert f.rational_from_counts([0, 2, 2]) == -2


def test_rational_detection():
    f = get_field(8)
    with pytest.raises(ValueError, match="not rational"):
        f.rational_from_counts([0, 0, 1, 0, 0, 0, 0, 0])  # zeta^2 = i
    assert f.rational_from_counts([0, 0, 0, 0, 1, 0, 0, 0]) == -1  # zeta^4
    # the counts (0, 0, 1, 0, 0, 0, 1, 0) are zeta^2 + zeta^6 = 0
    assert f.reduce_exponent_matrix([0, 0, 1, 0, 0, 0, 1, 0]).tolist() == [0, 0, 0, 0]
    # 3 + zeta^2 = 3 + i
    three_plus_i = f.reduce_exponent_matrix([3, 0, 1, 0, 0, 0, 0, 0])
    assert three_plus_i.tolist() == [3, 0, 1, 0]
    assert abs(_embed(f, three_plus_i) - (3 + 1j)) < 1e-12
    with pytest.raises(ValueError, match="length"):
        f.reduce_exponent_matrix([1, 0, 0])
    # the same sums read straight off their integer rows
    assert f.rational_from_counts([0, 0, 1, 0, 0, 0, 1, 0]) == 0
    assert f.rational_from_counts([1, 0, 0, 0, 3, 0, 0, 0]) == -2
    with pytest.raises(ValueError, match="not rational"):
        f.rational_from_counts([3, 0, 1, 0, 0, 0, 0, 0])


def test_zeta_power_reduction():
    assert get_field(12).rational_from_counts(np.eye(12, dtype=np.int64)[6]) == -1  # zeta^6
    # the CRT row of every zeta^e, checked under the embedding zeta -> exp(2 pi i / m)
    for m in (1, 2, 5, 9, 12, 20, 98, 210):
        f = get_field(m)
        rows = f.reduce_exponent_matrix(np.eye(m, dtype=np.int64))
        assert rows.shape == (m, euler_phi(m)) and f.degree == euler_phi(m)
        for e in range(m):
            assert abs(_embed(f, rows[e]) - cmath.exp(2j * cmath.pi * e / m)) < 1e-9, (m, e)


def test_exponent_counts_match_zeta_sums():
    f = get_field(20)
    rng = np.random.default_rng(5)
    counts = rng.integers(-3, 4, size=20)
    # -zeta^e = zeta^(e+10): the same sum with only nonnegative counts
    positive = np.where(counts > 0, counts, 0)
    for e, c in enumerate(counts):
        if c < 0:
            positive[(e + 10) % 20] -= c
    coords = f.reduce_exponent_matrix(counts)
    assert coords.tolist() == f.reduce_exponent_matrix(positive).tolist()
    want = sum(int(c) * cmath.exp(2j * cmath.pi * e / 20) for e, c in enumerate(counts))
    assert abs(_embed(f, coords) - want) < 1e-9


@given(st.integers(1, 3000), st.data())
def test_coordinates_embed_to_the_zeta_sums(m, data):
    """Small counts at a few exponents, in a batch of rows: each row's CRT
    coordinates embed to its sum of roots of unity."""
    f = get_field(m)
    counts = np.zeros((data.draw(st.integers(1, 3)), m), dtype=np.int64)
    for row in counts:
        terms = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-5, 5)), max_size=12))
        for e, c in terms:
            row[e] += c
    want = counts @ np.exp(2j * cmath.pi / m * np.arange(m))
    assert np.abs(_embed(f, f.reduce_exponent_matrix(counts)) - want).max() < 1e-8


def test_reduction_refuses_counts_past_int64():
    """Counts with max|count| * 2^(number of primes of m) >= 2^62 are refused
    on that bound, before any subtraction, even where the sum itself is
    small; just below the bound every coordinate is exact."""
    for m in (1, 12, 210):
        f = get_field(m)
        refused = 2**62 >> len(_factorize(m))  # the least refused max|count|
        for c in (refused, -refused):
            one = np.zeros(m, dtype=np.int64)
            one[0] = c  # the sum is the integer c itself
            with pytest.raises(OverflowError):
                f.reduce_exponent_matrix(one)
        counts = (refused - 1) * np.random.default_rng(m).choice([-1, 1], size=m)
        rows = f.reduce_exponent_matrix(np.eye(m, dtype=np.int64))
        exact = [sum(int(c) * int(r) for c, r in zip(counts, col)) for col in rows.T]
        assert f.reduce_exponent_matrix(counts).tolist() == exact, m
        assert f.reduce_exponent_matrix(counts[None, :]).tolist() == [exact], m


def test_cyclotomic_polynomials_match_sympy():
    """The reduction R: Z^m -> Z^phi(m) has kernel exactly (Phi_m), the ideal
    of Z[x]/(x^m - 1) generated by Phi_m.

    The shifts x^s Phi_m with 0 <= s < m - phi(m) are a Z-basis of that
    ideal.  They are independent: their degrees phi(m) + s are distinct and
    below m, and each is monic.  They span it: Psi_m = (x^m - 1) / Phi_m is
    monic of degree m - phi(m), so g = h Psi_m + r over Z with deg r below
    m - phi(m), and g Phi_m = h (x^m - 1) + r Phi_m.

    R kills every shift, and each CRT coordinate is the image of one
    exponent (that of its basis element), so R is onto.  Its kernel is then
    a saturated sublattice of rank m - phi(m); the shifts span one of the
    same rank, saturated because Z[x]/(Phi_m) is torsion-free, and inside
    it: the two are equal."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in CYC_RANGE:
        f = get_field(m)
        phi = np.zeros(m, dtype=np.int64)  # Phi_m as counts, x^m = 1
        coeffs = sympy.cyclotomic_poly(m, x, polys=True).all_coeffs()[::-1]
        np.add.at(phi, np.arange(len(coeffs)) % m, [int(c) for c in coeffs])
        # row s is phi shifted by s: phi[(e - s) % m], a view of two copies
        shifts = np.lib.stride_tricks.sliding_window_view(np.tile(phi, 2), m)[m : f.degree : -1]
        assert len(shifts) == m - f.degree
        assert not f.reduce_exponent_matrix(shifts).any(), m
        units = np.zeros((f.degree, m), dtype=np.int64)
        units[np.arange(f.degree), _basis_exponents(m)] = 1
        assert (f.reduce_exponent_matrix(units) == np.eye(f.degree, dtype=np.int64)).all(), m


def test_field_holds_order_m_integers():
    """No (m, phi(m)) table: a field of order 6498 (degree 2052) traces
    under 1 MB, where one int64 table alone would take 107 MB."""
    tracemalloc.start()
    try:
        f = CyclotomicField(6498)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.degree == 2052 and peak < 2**20, peak
