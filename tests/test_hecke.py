from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke_lab import groupconv, hecke
from hecke_lab.characters import PChar
from hecke_lab.cosets import _left_transport, all_labels, label_rep, w1, ymat
from hecke_lab.groupconv import BRUTE_LIMIT
from hecke_lab.hecke import (
    AlgebraError,
    HeckeElem,
    _basis_product,
    _supported_by_closed_form,
    _supported_by_definition,
    convolve,
    convolve_mirrored,
    is_supported,
    structure_table,
    supported_basis,
    verify_relations,
)
from tests.conftest import GRID

SMALL_CELLS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
BRUTE_CELLS = [(p, n) for p, n in GRID if p**n <= BRUTE_LIMIT]
CHARACTERS = {cell: list(PChar.all_characters(*cell)) for cell in BRUTE_CELLS}
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def elements(draw, count: int) -> list[HeckeElem]:
    """`count` elements with small rational coefficients in the algebra of
    one character of a cell with p^n <= BRUTE_LIMIT."""
    p, n = draw(st.sampled_from(BRUTE_CELLS))
    chi = draw(st.sampled_from(CHARACTERS[(p, n)]))
    labels = supported_basis(p, n, chi)
    return [
        HeckeElem(p, n, chi, {lab: draw(RATIONALS) for lab in labels}) for _ in range(count)
    ]


@pytest.mark.parametrize("p,n", SMALL_CELLS)
def test_support_law(p, n):
    # supported labels: y(p^j) for j >= conductor exponent, w exactly when
    # the character is trivial on the units
    for chi in PChar.all_characters(p, n):
        r = chi.conductor_exponent
        labels = supported_basis(p, n, chi)
        expected = (["w"] if r == 0 else []) + [f"y{j}" for j in range(max(r, 1), n + 1)]
        assert labels == expected, (p, n, chi.conrey_index())
        assert len(labels) == n - r + 1
        assert is_supported(w1(p, n), chi) == (r == 0)
        for j in range(1, n + 1):
            g = ymat(p, n, p**j % p**n) if j < n else label_rep(p, n, f"y{n}")
            assert is_supported(g, chi) == (j >= r)


@pytest.mark.parametrize("p,n", GRID)
def test_support_definition_matches_closed_form(p, n):
    # K_g enumerated and conjugated, against the closed-form parametrization
    # of K_g, for every character and every class
    for chi in PChar.all_characters(p, n):
        for lab in all_labels(p, n):
            g = label_rep(p, n, lab)
            by_definition = _supported_by_definition(g, chi)
            assert by_definition == _supported_by_closed_form(g, chi), (chi.conrey_index(), lab)
            assert is_supported(g, chi) == by_definition


@given(elements(3), RATIONALS, RATIONALS)
def test_convolution_bilinear(fgh, a, b):
    f, g, h = fgh
    assert convolve(a * f + b * g, h) == a * convolve(f, h) + b * convolve(g, h)
    assert convolve(h, a * f + b * g) == a * convolve(h, f) + b * convolve(h, g)


@given(elements(3))
def test_convolution_associative(fgh):
    f, g, h = fgh
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@given(elements(2))
def test_convolution_commutative(fg):
    f, g = fg
    assert convolve(f, g) == convolve(g, f)


@given(elements(1))
def test_convolution_identity(fs):
    (f,) = fs
    e = HeckeElem.identity(f.p, f.n, f.chi)
    assert convolve(e, f) == f == convolve(f, e)


@given(elements(2))
def test_mirrored_convolution_on_elements(fg):
    f, g = fg
    assert convolve(f, g) == convolve_mirrored(f, g)


@pytest.mark.parametrize("p,n", GRID)
def test_transport_lemma(p, n):
    # a y(p^j) class representative moves every coset with k0 = diag(s^-1, 1)
    for lab in all_labels(p, n)[1:]:
        _, d0 = _left_transport(p, n)[lab]
        assert np.all(d0 == 1), (p, n, lab)


def test_basis_product_refuses_transport_off_the_lemma(monkeypatch, fresh_caches):
    p, n = 3, 2
    assert _basis_product(p, n, "y1", "y1") == {"y1": 1, "y2": 2}
    table = dict(_left_transport(p, n))
    cls, d0 = table["y1"]
    d0 = d0.copy()
    d0[1, 2] = 2  # a unit, but not 1 mod 3
    table["y1"] = (cls, d0)
    monkeypatch.setattr(hecke, "_left_transport", lambda p, n: table)
    with pytest.raises(AlgebraError, match="y1"):
        _basis_product(p, n, "y1", "y1")
    with pytest.raises(AlgebraError, match="y1"):
        verify_relations(p, n, PChar.trivial(p, n))


def _assertion(rep, suffix):
    [a] = [a for a in rep.assertions if a.id.endswith(suffix)]
    return a


def test_mirrored_route_fails_on_a_non_rational_collapse(monkeypatch, fresh_caches):
    # shift the mirrored route's w-class terms by one root of unity in the
    # per-character stage: a w * y1 histogram becomes zeta * (a count), not
    # rational in Q(zeta_4)
    p, n = 5, 1
    chi = PChar.trivial(p, n)
    assert chi.field.order >= 3
    exact = hecke.basis_exponent

    def shifted(vexp, lab, entries):
        return exact(vexp, lab, entries) + (lab == "w")

    monkeypatch.setattr(hecke, "basis_exponent", shifted)
    rep = verify_relations(p, n, chi)
    mirrored = _assertion(rep, ".mirrored-convolution")
    assert mirrored.status == "fail"
    assert "not rational" in mirrored.detail
    assert [a.id for a in rep.failures()] == [mirrored.id]


def test_brute_route_fails_on_a_non_rational_collapse(monkeypatch, fresh_caches):
    # the same shift in the whole-group oracle's per-character stage
    p, n = 5, 1
    chi = PChar.trivial(p, n)
    exact = groupconv._value_exponents

    def shifted(vexp, lab, entries):
        return exact(vexp, lab, entries) + (lab == "w")

    monkeypatch.setattr(groupconv, "_value_exponents", shifted)
    rep = verify_relations(p, n, chi)
    brute = _assertion(rep, ".bruteforce.wxy1")
    assert brute.status == "fail"
    assert "not rational" in brute.detail
    assert {a.id.split(".")[3] for a in rep.failures()} == {"bruteforce"}


def test_structure_constants_are_counts():
    for p, n in SMALL_CELLS:
        for chi in PChar.all_characters(p, n):
            for constants in structure_table(p, n, chi).constants.values():
                assert all(
                    isinstance(c, Fraction) and c.denominator == 1 and c > 0
                    for c in constants.values()
                )


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_verify_relations_green(p, n):
    for chi in PChar.all_characters(p, n):
        rep = verify_relations(p, n, chi)
        assert rep.ok, [a.id for a in rep.failures()]


@pytest.mark.parametrize("p,n", SMALL_CELLS)
def test_structure_table_commutative(p, n):
    for chi in PChar.all_characters(p, n):
        assert structure_table(p, n, chi).is_commutative()

