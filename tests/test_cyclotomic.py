import cmath

import numpy as np
import pytest

from hecke_lab.cyclotomic import _divide_monic, cyclotomic_coeffs, euler_phi, get_field

CYC_RANGE = range(1, 1201)  # every field order of the grid and of campaigns/large.json (max 500)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 9, 12, 100)] == [1, 1, 2, 2, 4, 6, 4, 40]


def _embed(f, coords):
    """Complex value of power-basis coordinates under zeta -> exp(2 pi i / m)."""
    return np.asarray(coords) @ np.exp(2j * cmath.pi / f.order * np.arange(f.degree))


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
    # every row of the reduction table is zeta^e written on the power basis:
    # check it under the embedding zeta -> exp(2 pi i / m)
    for m in (1, 2, 5, 9, 12, 20, 98):
        f = get_field(m)
        assert f.reduction.shape == (m, euler_phi(m))
        for e in range(m):
            assert abs(_embed(f, f.reduction[e]) - cmath.exp(2j * cmath.pi * e / m)) < 1e-9, (m, e)
        # one more power wraps around: zeta * zeta^(m-1) = zeta^0, exactly
        shifted = [0] + f.reduction[-1].tolist()  # zeta^m on 1, ..., z^degree
        phi = cyclotomic_coeffs(m)[::-1]  # Phi_m, constant term first
        wrapped = [c - shifted[-1] * a for c, a in zip(shifted[:-1], phi)]
        assert wrapped == f.reduction[0].tolist(), m


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


def test_reduction_routes_are_exact():
    """Counts just below the float64 bound m * max|count| * max|table entry|
    < 2^52 take the BLAS route, those at it and far above it the int64 route;
    every route gives the exact integer product."""
    rng = np.random.default_rng(12)
    for m in (12, 500):
        f = get_field(m)
        rmax = int(np.abs(f.reduction).max())
        for cmax in ((2**52 - 1) // (m * rmax), -(-(2**52) // (m * rmax)), 2**52 // rmax - 1):
            counts = cmax * rng.choice([-1, 1], size=m)
            exact = [sum(int(c) * int(r) for c, r in zip(counts, col)) for col in f.reduction.T]
            assert f.reduce_exponent_matrix(counts).tolist() == exact, (m, cmax)
            assert f.reduce_exponent_matrix(counts[None, :]).tolist() == [exact]


def test_reduction_refuses_counts_past_int64():
    # in Q(zeta_12), zeta^4 = zeta^2 - 1, so 2^62 (1 + zeta^2 + zeta^4) has
    # z^2 coordinate 2^63, one past int64: refused, not wrapped to -2^63
    f = get_field(12)
    counts = np.zeros(12, dtype=np.int64)
    counts[[0, 2, 4]] = 2**62
    with pytest.raises(OverflowError):
        f.reduce_exponent_matrix(counts)
    assert f.reduce_exponent_matrix(counts // 2**40).tolist() == [0, 0, 2**23, 0]


def _poly_mul(a, b):
    """Product of integer polynomials, leading coefficient first."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomial_identities():
    # deg Phi_m = phi(m), and the Phi_d over d | m multiply to x^m - 1
    for m in CYC_RANGE:
        assert len(cyclotomic_coeffs(m)) - 1 == euler_phi(m), m
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, cyclotomic_coeffs(d))
        assert prod == [1] + [0] * (m - 1) + [-1], m


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in CYC_RANGE:
        ref = [int(c) for c in sympy.cyclotomic_poly(m, x, polys=True).all_coeffs()]
        assert list(cyclotomic_coeffs(m)) == ref, m


def test_inexact_division_raises():
    assert _divide_monic([1, 0, 0, -1], (1, -1)) == [1, 1, 1]  # (x^3 - 1) / (x - 1)
    with pytest.raises(ArithmeticError, match="remainder"):
        _divide_monic([1, 0, 1], (1, -1))  # x^2 + 1 at x = 1 is 2
