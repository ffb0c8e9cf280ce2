import math

import numpy as np
import pytest

from hecke_lab.qexp import (
    PrecisionError,
    QExpansion,
    evaluate_many,
    op_Up,
    op_Utilde,
    op_Vp,
)


def _pairs(f):
    return [[float(c.real), float(c.imag)] for c in f.coeffs]


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
    # b_n = p^(k/2) a_(pn): the image of q^p is p^(k/2) q
    p, k = 3, 4
    coeffs = np.zeros(16, dtype=np.complex128)
    coeffs[p - 1] = 1.0  # q^p
    f = QExpansion(k, coeffs)
    g = op_Up(f, p)
    assert abs(g.a(1) - p ** (k / 2)) < 1e-14
    assert np.allclose(g.coeffs[1:], 0)


def test_shift_after_dilation_is_scalar():
    # U_p V_p = p^(k/2) exactly on coefficients
    p, k = 5, 3
    f = QExpansion(k, np.arange(1, 41, dtype=np.complex128))
    g = op_Up(op_Vp(f, p), p)
    assert np.allclose(g.coeffs[: f.prec], p ** (k / 2) * f.coeffs)


def test_normalized_shift():
    p, k = 2, 6
    f = QExpansion(k, np.arange(1, 33, dtype=np.complex128))
    g = op_Utilde(f, p)
    h = op_Up(f, p)
    assert np.allclose(p ** (k - 1) * g.coeffs, h.coeffs)


def test_dilation_layout():
    f = QExpansion(2, np.array([1.0, 2.0, 3.0], dtype=np.complex128))
    g = op_Vp(f, 2)
    assert g.prec == 6
    assert np.allclose(g.coeffs, [0, 1, 0, 2, 0, 3])


def test_pairs_round_trip():
    f = QExpansion(3, np.array([1 + 2j, -0.5j]))
    assert QExpansion.from_pairs(3, _pairs(f)).coeffs.tolist() == f.coeffs.tolist()


def test_pairs_keep_negative_zero():
    f = QExpansion.from_pairs(2, [[-0.0, -0.0], [-0.0, 1.5], [2.0, -0.0], [0.0, 0.0]])
    assert f.coeffs.dtype == np.complex128 and f.prec == 4
    assert np.signbit(f.coeffs.real).tolist() == [True, True, False, False]
    assert np.signbit(f.coeffs.imag).tolist() == [True, False, True, False]
    assert _pairs(f) == [[-0.0, -0.0], [-0.0, 1.5], [2.0, -0.0], [0.0, 0.0]]
    assert [str(x) for x in np.ravel(_pairs(f))][:2] == ["-0.0", "-0.0"]
    assert QExpansion.from_pairs(2, []).prec == 0


@pytest.mark.parametrize("pairs", [
    [[1.0, 2.0], [3.0]],  # ragged
    [[1.0, 2.0, 3.0]],  # a triple
    [[1.0]],  # a single number
    [1.0, 2.0],  # no pairs at all
    [[[1.0, 2.0]]],  # nested one level too deep
    [[1.0, "x"]],  # not a number
    [[1.0, [2.0]]],  # a list in place of a number
    [1.0, [2.0, 3.0]],  # a bare number in place of a pair
])
def test_pairs_reject_malformed_rows(pairs):
    with pytest.raises(ValueError):
        QExpansion.from_pairs(2, pairs)


def test_growth_constant():
    f = QExpansion(4, np.array([3.0, -8.0 + 0j, 1j, 0.0]))
    assert f.growth_constant() == 3.0  # |a_n| / n^2 = 3, 2, 1/9, 0
    x = math.exp(-math.pi)  # Im z = 1/2
    assert f.tail_bound(0.5) == pytest.approx(2 * 3.0 * 5**2 * x**5 / (1 - x * math.exp(4 / 10)))
    assert QExpansion(2, np.zeros(0)).growth_constant() == 0.0


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        QExpansion(2, np.array([1.0, np.inf]))