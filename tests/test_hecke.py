import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hecke_lab import groupconv, hecke, induced
from hecke_lab.characters import PChar
from hecke_lab.cosets import (
    Kg_blocks,
    MatPn,
    _left_transport,
    all_labels,
    dmat,
    double_coset_label,
    identity,
    label_rep,
    unit_lifts,
    w1,
    xmat,
    ymat,
)
from hecke_lab.groupconv import BRUTE_LIMIT
from hecke_lab.hecke import (
    AlgebraError,
    HeckeElem,
    _basis_product,
    _Kg_twist_pairs,
    _mirror_geometry,
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


def _pairs_by_full_conjugation(g):
    """The reference for _Kg_twist_pairs: the distinct (d_k, d_{g k g^-1})
    read off the full conjugates of cosets.Kg_blocks."""
    pn = g.pn
    codes = np.unique(np.concatenate([k.d * pn + conj.d for k, conj in Kg_blocks(g)]))
    return codes // pn, codes % pn


def _same_arrays(got, want):
    return len(got) == len(want) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want)
    )


@pytest.mark.parametrize("p,n", GRID)
def test_Kg_twist_pairs_match_full_conjugation(p, n):
    # the lower-row walk gives, bit for bit, the pairs of the full products
    for lab in all_labels(p, n):
        g = label_rep(p, n, lab)
        assert _same_arrays(_Kg_twist_pairs.__wrapped__(g), _pairs_by_full_conjugation(g)), lab


@st.composite
def invertible(draw) -> MatPn:
    """Any g in GL2(Z/p^n) on a grid cell."""
    p, n = draw(st.sampled_from(GRID))
    entries = [draw(st.integers(0, p**n - 1)) for _ in range(4)]
    assume((entries[0] * entries[3] - entries[1] * entries[2]) % p != 0)
    return MatPn(p, n, *entries)


@given(invertible())
def test_Kg_twist_pairs_match_full_conjugation_at_any_g(g):
    assert _same_arrays(_Kg_twist_pairs.__wrapped__(g), _pairs_by_full_conjugation(g))


def test_definition_walk_refused_before_allocating():
    # K0(7^3) has 29.6M elements: the walk is refused by the enumeration guard
    chi = PChar.trivial(7, 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            _supported_by_definition(ymat(7, 3, 7), chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_definition_walk_memory_at_5_3():
    # the largest cell walked by definition: 1.25M elements of K0(125) per
    # label, in blocks, under 2 MB traced
    for lab in all_labels(5, 3):
        g = label_rep(5, 3, lab)
        tracemalloc.start()
        try:
            _Kg_twist_pairs.__wrapped__(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (lab, peak)


def _mirror_geometry_by_matpn(p, n, lab_h, l2):
    """_mirror_geometry one scalar MatPn at a time, through the left-coset
    representatives y(p^j) d(s), w x(t), I and canonical labels."""
    h = label_rep(p, n, lab_h)
    if l2 == f"y{n}":
        reps = [identity(p, n)]
    elif l2 == "w":
        reps = [w1(p, n) @ xmat(p, n, t) for t in range(p**n)]
    else:
        j = int(l2[1:])
        reps = [ymat(p, n, p**j) @ dmat(p, n, s) for s in unit_lifts(p, n - j)]

    def slot(lab, g):
        return g.c if lab == "w" else g.d

    rows = {}
    for b in reps:
        assert double_coset_label(b) == l2
        x = h @ b.inv()
        lab_x = double_coset_label(x)
        rows.setdefault(lab_x, []).append((slot(l2, b), slot(lab_x, x)))
    return {
        lab_x: tuple(np.array(col, dtype=np.int64) for col in zip(*pairs))
        for lab_x, pairs in rows.items()
    }


@pytest.mark.parametrize("p,n", GRID)
def test_mirror_geometry_matches_scalar_products(p, n):
    for lab_h in all_labels(p, n):
        for l2 in all_labels(p, n):
            got = _mirror_geometry(p, n, lab_h, l2)
            want = _mirror_geometry_by_matpn(p, n, lab_h, l2)
            assert list(got) == list(want), (lab_h, l2)
            assert all(_same_arrays(got[lab], want[lab]) for lab in want), (lab_h, l2)


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


def test_transport_refuses_a_non_unit_w_factor(monkeypatch, fresh_caches):
    # the w class reads its twist at d0, which must be a unit: both the coset
    # sum and the induced operator read the table through one check
    p, n = 3, 1
    table = dict(_left_transport(p, n))
    cls, d0 = table["w"]
    d0 = d0.copy()
    d0[0, 0] = p
    table["w"] = (cls, d0)
    monkeypatch.setattr(hecke, "_left_transport", lambda p, n: table)
    with pytest.raises(AlgebraError, match="non-unit"):
        _basis_product(p, n, "w", "w")
    with pytest.raises(AlgebraError, match="non-unit"):
        induced._basis_operator(p, n, "w")


def _assertion(rep, suffix):
    [a] = [a for a in rep.assertions if a.id.endswith(suffix)]
    return a


def _second_read_shifted(exact):
    """`exact` with every second call's exponents shifted by one: a term
    reads two twists, so each term moves by one root of unity."""
    calls = itertools.count()

    def shifted(vexp, entries):
        return exact(vexp, entries) + next(calls) % 2

    return shifted


def test_mirrored_route_fails_on_a_non_rational_collapse(monkeypatch, fresh_caches):
    # shift the mirrored route's terms by one root of unity in the
    # per-character stage: a w * y1 histogram becomes zeta * (a count), not
    # rational in Q(zeta_4)
    p, n = 5, 1
    chi = PChar.trivial(p, n)
    assert chi.field.order >= 3
    shifted = _second_read_shifted(hecke.basis_exponent)

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
    shifted = _second_read_shifted(groupconv._value_exponents)

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

