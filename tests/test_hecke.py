import pytest

from hecke_lab.characters import PChar
from hecke_lab.cosets import all_labels, label_rep, w1, ymat
from hecke_lab.hecke import (
    _supported_by_closed_form,
    _supported_by_definition,
    convolve,
    is_supported,
    structure_table,
    supported_basis,
    verify_relations,
    y_element,
)
from tests.conftest import GRID

SMALL_CELLS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


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


def test_convolution_bilinear():
    p, n = 3, 1
    chi = PChar.trivial(p, n)
    f = y_element(p, n, chi, 1)
    two = chi.field.from_rational(2)
    assert convolve(two * f, f) == two * convolve(f, f)
    assert convolve(f, f + f) == convolve(f, f) + convolve(f, f)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_verify_relations_green(p, n):
    for chi in PChar.all_characters(p, n):
        rep = verify_relations(p, n, chi)
        assert rep.ok, [a.id for a in rep.failures()]


@pytest.mark.parametrize("p,n", SMALL_CELLS)
def test_structure_table_commutative(p, n):
    for chi in PChar.all_characters(p, n):
        assert structure_table(p, n, chi).is_commutative()

