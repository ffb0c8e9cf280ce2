import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke_lab.cyclotomic import _factorize
from hecke_lab.operators import IMAG_FLOOR, atkin_lehner_matrix
from hecke_lab.qexp import (
    QPOW_BLOCK,
    RESOLVED_TAIL,
    PrecisionError,
    QExpansion,
    evaluate_many,
    op_Utilde,
    op_Vp,
    term_count,
)
from hecke_lab.spaces import fixture_dir, load_space

HEIGHTS = (IMAG_FLOOR, 0.05, 0.08, 0.3, 0.6)
SPACES = sorted(p.stem for p in fixture_dir().glob("N*.json") if load_space(p).dim)


def _single_q(weight, prec):
    coeffs = np.zeros(prec, dtype=np.complex128)
    coeffs[0] = 1.0
    return QExpansion(weight, coeffs)


def test_evaluate_q_at_i():
    f = _single_q(2, 512)
    val = evaluate_many([f], np.array([1j]))[0, 0]
    assert abs(val - math.exp(-2 * math.pi)) < 1e-14


def test_periodicity():
    f = QExpansion(2, np.arange(1, 257, dtype=np.complex128))
    z = np.array([0.13 + 0.3j])
    assert abs(evaluate_many([f], z)[0, 0] - evaluate_many([f], z + 1)[0, 0]) < 1e-12


def test_tail_refusal():
    f = _single_q(2, 4)
    with pytest.raises(PrecisionError):
        evaluate_many([f], np.array([0.5j]))


def test_evaluate_many_matches_single():
    rng = np.random.default_rng(5)
    forms = [
        QExpansion(4, rng.standard_normal(300) + 0j),
        QExpansion(4, rng.standard_normal(300) + 0j),
    ]
    pts = np.array([0.1 + 0.4j, -0.2 + 0.55j])
    block = evaluate_many(forms, pts)
    for j, f in enumerate(forms):
        assert np.allclose(block[:, j], evaluate_many([f], pts)[:, 0])


def test_shift_normalization():
    # b_n = p^(1 - k/2) a_(pn): the image of q^p is p^(1 - k/2) q
    p, k = 3, 4
    coeffs = np.zeros(16, dtype=np.complex128)
    coeffs[p - 1] = 1.0  # q^p
    f = QExpansion(k, coeffs)
    g = op_Utilde(f, p)
    assert abs(g.a(1) - p ** (1 - k / 2)) < 1e-14
    assert np.allclose(g.coeffs[1:], 0)


def test_shift_after_dilation_is_scalar():
    # U~_p V_p = p^(1 - k/2) exactly on coefficients
    p, k = 5, 3
    f = QExpansion(k, np.arange(1, 41, dtype=np.complex128))
    g = op_Utilde(op_Vp(f, p), p)
    assert np.allclose(g.coeffs[: f.prec], p ** (1 - k / 2) * f.coeffs)


def test_normalized_shift():
    p, k = 2, 6
    f = QExpansion(k, np.arange(1, 33, dtype=np.complex128))
    g = op_Utilde(f, p)
    assert np.allclose(g.coeffs, p ** (1 - k / 2) * f.coeffs[p - 1 :: p])
    assert g.prec == f.prec // p


def test_dilation_layout():
    f = QExpansion(2, np.array([1.0, 2.0, 3.0], dtype=np.complex128))
    g = op_Vp(f, 2)
    assert g.prec == 6
    assert np.allclose(g.coeffs, [0, 1, 0, 2, 0, 3])


def test_coeffs_are_a_read_only_view():
    """A form keeps a read-only view of the coefficients it is given; the
    caller's own array stays writable and is not copied."""
    own = np.array([1.0, 2j, 3.0])
    f = QExpansion(2, own)
    assert own.flags.writeable and not f.coeffs.flags.writeable
    assert np.shares_memory(own, f.coeffs)
    with pytest.raises(ValueError, match="read-only"):
        f.coeffs[0] = 5.0


def test_growth_constant():
    f = QExpansion(4, np.array([3.0, -8.0 + 0j, 1j, 0.0]))
    assert f.growth_constant() == 3.0  # |a_n| / n^2 = 3, 2, 1/9, 0
    x = math.exp(-math.pi)  # Im z = 1/2
    assert f.tail_bound(0.5) == pytest.approx(2 * 3.0 * 5**2 * x**5 / (1 - x * math.exp(4 / 10)))
    assert f.tail_bound(0.5) == f.tail_bound(0.5, 4) == _tail_past_B(f, 0.5)
    assert QExpansion(2, np.zeros(0)).growth_constant() == 0.0


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        QExpansion(2, np.array([1.0, np.inf]))


@pytest.mark.parametrize("bad", [
    complex(0.1, math.nan), complex(math.nan, 0.3), complex(0.1, math.inf),
    complex(0.1, -math.inf), complex(math.inf, 0.3), complex(-math.inf, 0.3),
])
def test_refuses_a_nonfinite_point(bad):
    """A NaN or infinite part is refused by name, not summed to NaN (a NaN
    height once slipped past the tail check: NaN > REFUSE_TAIL is false)."""
    f = _single_q(2, 512)
    with pytest.raises(PrecisionError, match="non-finite point"):
        evaluate_many([f], np.array([0.2 + 0.4j, bad]))
    with pytest.raises(PrecisionError, match="non-finite point"):
        evaluate_many([], [bad])


def test_refuses_mixed_weights_and_precisions():
    """One call sums one term count and slash_evaluate applies one weight's
    automorphy factor, so the forms must share both."""
    pts = np.array([0.1 + 0.4j])
    for other in (_single_q(4, 512), _single_q(2, 256)):
        with pytest.raises(ValueError, match="one weight and one precision"):
            evaluate_many([_single_q(2, 512), other], pts)


def _tail_past_B(f, y):
    """The bound on the tail past the precision B, written out with B in
    place of the count: tail_bound's default must keep every bit of it."""
    if y <= 0:
        return math.inf
    B, k = f.prec, f.weight
    x = math.exp(-2 * math.pi * y)
    rho = x * math.exp(k / (2 * (B + 1)))
    if rho >= 1:
        return math.inf
    c = 2.0 * max(f.growth_constant(), 1.0)
    return c * (B + 1) ** (k / 2) * x ** (B + 1) / (1 - rho)


def _refused_past_B(forms, y):
    return any(_tail_past_B(f, y) > 1e-10 for f in forms)


def _table(pts, count):
    """q^(Li + j) = exp(2 pi i Li z) exp(2 pi i j z), j = 1..L, for
    n = Li + j <= count: the table evaluate_many reads, written out."""
    low = np.exp(2j * np.pi * np.outer(pts, np.arange(1, QPOW_BLOCK + 1)))
    rows = [np.exp(2j * np.pi * np.outer(pts, [QPOW_BLOCK * i])) * low
            for i in range(-(-count // QPOW_BLOCK))]
    return np.concatenate(rows, axis=1)[:, :count]


@pytest.mark.parametrize("name", SPACES)
def test_default_tail_bound_is_the_bound_past_B(name):
    sp = load_space(fixture_dir() / f"{name}.json")
    for f in sp.basis:
        for y in (-1.0, 0.0, 1e-4, *HEIGHTS, 1.0, 5.0):
            assert f.tail_bound(y) == f.tail_bound(y, f.prec) == _tail_past_B(f, y)


@given(
    weight=st.integers(1, 12),
    y=st.floats(1e-3, 30.0),
    growth=st.floats(0.0, 1e6),
    prec=st.integers(1, 400),
)
def test_tail_bound_never_increases_in_m(weight, y, growth, prec):
    coeffs = np.zeros(prec, dtype=np.complex128)
    coeffs[0] = growth
    f = QExpansion(weight, coeffs)
    bounds = [f.tail_bound(y, m) for m in range(600)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    x = math.exp(-2 * math.pi * y)
    for m, bound in enumerate(bounds):
        # infinite exactly where the geometric ratio reaches 1
        assert math.isinf(bound) == (x * math.exp(weight / (2 * (m + 1))) >= 1)
    assert f.tail_bound(0.0, 10) == f.tail_bound(-y, 10) == math.inf
    # the term count is the least m whose bound is resolved, by a scan
    least = next((m for m in range(prec + 1) if bounds[m] <= RESOLVED_TAIL), prec)
    assert f.terms_needed(y) == least
    assert f.terms_needed(math.nan) == prec


def _evaluation_points(sp):
    """Points at each height of HEIGHTS, and their images under the
    Atkin-Lehner matrix of every prime power exactly dividing the level."""
    base = [np.linspace(-0.5, 0.5, 7) + 1j * y for y in HEIGHTS]
    images = []
    for p, n in _factorize(sp.level):
        (a, b), (c, d) = atkin_lehner_matrix(p, n, sp.level)
        images += [(a * z + b) / (c * z + d) for z in base]
    return base + images


@pytest.mark.parametrize("name", SPACES)
def test_truncated_sums_are_the_full_sums_bit_for_bit(name):
    """Each point set is evaluated as one block (its sum length set by the
    lowest point) and point by point; every value must be the full sum of
    the same q-power table over all B stored coefficients, compared by
    bytes.  Where the block is refused, the rule past B refuses it too."""
    sp = load_space(fixture_dir() / f"{name}.json")
    # C-ordered (B, forms), as evaluate_many builds it: BLAS sums in one order
    coeffs = np.stack([f.coeffs for f in sp.basis], axis=1)
    compared = 0
    for pts in _evaluation_points(sp):
        for block in (pts, *pts[:, None]):
            ymin = float(block.imag.min())
            if _refused_past_B(sp.basis, ymin):
                with pytest.raises(PrecisionError):
                    evaluate_many(sp.basis, block)
                continue
            full = _table(block, sp.prec) @ coeffs
            assert evaluate_many(sp.basis, block).tobytes() == full.tobytes()
            compared += 1
    assert compared >= 5 * 8  # every base height, as a block and point by point


@pytest.mark.parametrize("name", SPACES)
def test_term_count_falls_with_height(name):
    sp = load_space(fixture_dir() / f"{name}.json")
    heights = sorted({*HEIGHTS, *np.linspace(IMAG_FLOOR, 3.0, 60)})
    for f in sp.basis:
        counts = [f.terms_needed(y) for y in heights]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert f.terms_needed(0.3) < f.prec
        for y, m in zip(heights, counts):
            # the least resolved count (the bound never increases in m)
            assert f.tail_bound(y, m) <= RESOLVED_TAIL or m == f.prec
            assert m == 0 or f.tail_bound(y, m - 1) > RESOLVED_TAIL


@pytest.mark.parametrize("name", SPACES)
def test_refusal_heights_are_unchanged(name):
    """Each form is refused below the height at which its bound past B
    reaches 1e-10 and evaluated above it, to the last float."""
    sp = load_space(fixture_dir() / f"{name}.json")
    for f in sp.basis:
        lo, hi = 1e-6, 1.0
        assert _refused_past_B([f], lo) and not _refused_past_B([f], hi)
        while np.nextafter(lo, hi) < hi:
            mid = max(lo + (hi - lo) / 2, np.nextafter(lo, hi))
            lo, hi = (mid, hi) if _refused_past_B([f], mid) else (lo, mid)
        with pytest.raises(PrecisionError):
            evaluate_many([f], np.array([1j * lo]))
        evaluate_many([f], np.array([1j * hi]))
        assert IMAG_FLOOR > hi


def _precise_sums(forms, z, bits=640):
    """Each form's sum a_n q^n over all B stored coefficients, to far
    beyond 40 digits: q = exp(2 pi i z) from mpmath at bits + 64 bits, and
    q^n carried as fixed-point Gaussian integers in units of 2^-bits.  Each
    step truncates by at most 2 units and |q| < 1, so q^n is off by at most
    2n units; with |a_n| < 2^53 and B <= 2048, a sum is off by less than
    2^-(bits - 77).  The coefficients are integers (format 3)."""
    with mpmath.workprec(bits + 64):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z))
        qr, qi = (int(mpmath.nint(mpmath.ldexp(part, bits))) for part in (q.real, q.imag))
    powers, xr, xi = [], qr, qi
    for _ in range(forms[0].prec):
        powers.append((xr, xi))
        xr, xi = (xr * qr - xi * qi) >> bits, (xr * qi + xi * qr) >> bits
    sums = []
    for f in forms:
        sr = si = 0
        for n in np.flatnonzero(f.coeffs):
            a = int(f.coeffs[n].real)
            assert a == f.coeffs[n]
            sr, si = sr + a * powers[n][0], si + a * powers[n][1]
        sums.append(complex(sr / (1 << bits), si / (1 << bits)))
    return sums


@pytest.mark.parametrize("name", SPACES)
def test_values_match_a_precise_sum(name):
    """At IMAG_FLOOR and 0.3, at real parts -0.37, 0.11 and 0.5, and at
    the images of those points under every Atkin-Lehner matrix of the
    level, each value is within 32 units of 2^-52 sum |a_n| |q|^n of the
    precise sum over all B coefficients (the worst shipped value is about
    9 units, and 11 with each power its own exponential).  A power table
    with a block index off by one misses by about |a_n| |q|^n itself."""
    sp = load_space(fixture_dir() / f"{name}.json")
    base = np.array([x + 1j * y for y in (IMAG_FLOOR, 0.3) for x in (-0.37, 0.11, 0.5)])
    sets = [base]
    for p, n in _factorize(sp.level):
        (a, b), (c, d) = atkin_lehner_matrix(p, n, sp.level)
        sets.append((a * base + b) / (c * base + d))
    n = np.arange(1, sp.prec + 1)
    compared = 0
    for z in np.concatenate(sets):
        if _refused_past_B(sp.basis, z.imag):
            continue
        values = evaluate_many(sp.basis, [z])[0]
        for f, value, exact in zip(sp.basis, values, _precise_sums(sp.basis, z)):
            scale = float(np.abs(f.coeffs) @ np.exp(-2 * np.pi * z.imag * n))
            assert abs(value - exact) <= 32 * 2.0**-52 * scale, (z, abs(value - exact) / scale)
        compared += 1
    assert compared >= len(base)  # every base point at least


@given(
    weight=st.integers(1, 12),
    prec=st.integers(1, 400),
    growths=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5),
    y=st.floats(1e-3, 30.0),
)
def test_one_term_count_is_the_largest_per_form_count(weight, prec, growths, y):
    """term_count reads only the form of largest growth constant: it is
    the largest terms_needed over the forms, and it refuses exactly when
    some form's tail past B exceeds 1e-10."""
    forms = []
    for g in growths:
        coeffs = np.zeros(prec, dtype=np.complex128)
        coeffs[-1] = g * prec ** (weight / 2)
        forms.append(QExpansion(weight, coeffs))
    if _refused_past_B(forms, y):
        with pytest.raises(PrecisionError):
            term_count(forms, y)
    else:
        assert term_count(forms, y) == max(f.terms_needed(y) for f in forms)
