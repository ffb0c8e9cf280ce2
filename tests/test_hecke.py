import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hecke_lab import groupconv, hecke, induced
from hecke_lab.campaign import Campaign
from hecke_lab.cellcache import clear_cell_caches
from hecke_lab.characters import PChar, unit_group
from hecke_lab.cosets import (
    Kg_blocks,
    MatPn,
    _left_transport,
    all_labels,
    identity,
    label_rep,
    stratum_label,
    stratum_of,
    w1,
    xmat,
    ymat,
)
from hecke_lab.groupconv import BRUTE_LIMIT
from hecke_lab.hecke import (
    AlgebraError,
    HeckeElem,
    _basis_product_cached,
    _Kg_twist_ratios,
    _mirror_geometry,
    _pair_table_fits,
    _supported_by_closed_form,
    _supported_by_definition,
    convolve,
    convolve_mirrored,
    is_supported,
    supported_basis,
    verify_relations,
)
from tests.conftest import GRID, dmat, structure_constants

SMALL_CELLS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
BRUTE_CELLS = [(p, n) for p, n in GRID if p**n <= BRUTE_LIMIT]
CHARACTERS = {cell: list(PChar.all_characters(*cell)) for cell in BRUTE_CELLS}
LARGE_CAMPAIGN = Path(__file__).resolve().parents[1] / "campaigns" / "large.json"
LARGE_CELLS = [(c["p"], c["n"]) for c in Campaign.from_file(LARGE_CAMPAIGN).grid]
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


@pytest.mark.parametrize("p,n", LARGE_CELLS)
def test_support_definition_matches_closed_form_on_large_cells(p, n, monkeypatch):
    # every cell of the large campaign fits the pair table, so is_supported
    # answers there by definition and never reaches the closed form; (5, 4)
    # is checked on a seeded sample of 25 of its 500 characters
    assert _pair_table_fits(p, n)
    closed_form = _supported_by_closed_form

    def refused(g, chi):
        raise AssertionError("is_supported took the closed form")

    monkeypatch.setattr(hecke, "_supported_by_closed_form", refused)
    characters = list(PChar.all_characters(p, n))
    if (p, n) == (5, 4):
        characters = random.Random(0).sample(characters, 25)
    for chi in characters:
        for lab in all_labels(p, n):
            g = label_rep(p, n, lab)
            by_definition = _supported_by_definition(g, chi)
            assert by_definition == closed_form(g, chi), (chi.conrey_index(), lab)
            assert is_supported(g, chi) == by_definition


def _ratios_by_full_conjugation(g):
    """The reference for _Kg_twist_ratios: the distinct d_{g k g^-1} d_k^-1
    over the twist pairs read off the full conjugates of cosets.Kg_blocks,
    every entry a unit."""
    inverse = unit_group(g.p, g.n).inverse
    pairs = [(k.d, conj.d) for k, conj in Kg_blocks(g)]
    assert all(np.all(d % g.p) and np.all(conj % g.p) for d, conj in pairs)
    return np.unique(np.concatenate([conj * inverse[d] % g.pn for d, conj in pairs]))


def _same_arrays(got, want):
    return len(got) == len(want) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want)
    )


@pytest.mark.parametrize("p,n", GRID + [(2, 4), (2, 5), (2, 6), (3, 4), (7, 2), (11, 2)])
def test_Kg_twist_pairs_match_full_conjugation(p, n):
    # the lower-row walk gives, bit for bit, the ratios of the twist pairs
    # of the full products
    for lab in all_labels(p, n):
        g = label_rep(p, n, lab)
        assert _same_arrays([_Kg_twist_ratios.__wrapped__(g)], [_ratios_by_full_conjugation(g)]), lab


@st.composite
def invertible(draw) -> MatPn:
    """Any g in GL2(Z/p^n) on a grid cell."""
    p, n = draw(st.sampled_from(GRID))
    entries = [draw(st.integers(0, p**n - 1)) for _ in range(4)]
    assume((entries[0] * entries[3] - entries[1] * entries[2]) % p != 0)
    return MatPn(p, n, *entries)


@given(invertible())
def test_Kg_twist_pairs_match_full_conjugation_at_any_g(g):
    assert _same_arrays([_Kg_twist_ratios.__wrapped__(g)], [_ratios_by_full_conjugation(g)])


def test_definition_walk_refused_before_allocating():
    # the pair table mod 7^4 has 5.8M entries: the walk is refused by its
    # own guard, and is_supported answers through the closed form
    chi = PChar.trivial(7, 4)
    assert not _pair_table_fits(7, 4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            _supported_by_definition(ymat(7, 4, 7), chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert is_supported(ymat(7, 4, 7), chi)


def test_definition_walk_memory_at_5_3():
    # the largest grid cell: under 2 MB traced per label
    for lab in all_labels(5, 3):
        g = label_rep(5, 3, lab)
        tracemalloc.start()
        try:
            _Kg_twist_ratios.__wrapped__(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (lab, peak)


def test_definition_walk_memory_at_the_largest_admitted_cell():
    # 1447^2 is the largest p^{2n} within the guard.  The walk holds its
    # boolean p^n x p^n table, p^n-entry arrays (the ratios among them) and
    # blocks of about 16K elements: under 2 MB more.  The unblocked (a, b)
    # planes alone would take 33 MB.
    p, n = 1447, 1
    assert _pair_table_fits(p, n) and not _pair_table_fits(1451, 1)
    for lab in all_labels(p, n):
        g = label_rep(p, n, lab)
        tracemalloc.start()
        try:
            _Kg_twist_ratios.__wrapped__(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p ** (2 * n) + (2 << 20), (lab, peak)


def _mirror_pairs_by_matpn(p, n, lab_h, l2):
    """The mirrored sum's terms at target lab_h, one scalar MatPn at a time,
    through the left-coset representatives y(p^j) d(s), w x(t), I and
    canonical labels: for each label of x = h b^-1, the twist entries of b
    and of x, one pair a term."""
    h = label_rep(p, n, lab_h)
    if l2 == f"y{n}":
        reps = [identity(p, n)]
    elif l2 == "w":
        reps = [w1(p, n) @ xmat(p, n, t) for t in range(p**n)]
    else:
        j = int(l2[1:])
        reps = [ymat(p, n, p**j) @ dmat(p, n, s) for s in range(1, p ** (n - j)) if s % p]

    def slot(lab, g):
        return g.c if lab == "w" else g.d

    rows = {}
    for b in reps:
        assert stratum_label(stratum_of(b)) == l2
        x = h @ b.inv()
        lab_x = stratum_label(stratum_of(x))
        rows.setdefault(lab_x, []).append((slot(l2, b), slot(lab_x, x)))
    return {lab_x: np.array(pairs, dtype=np.int64).T for lab_x, pairs in rows.items()}


@pytest.mark.parametrize("p,n", GRID)
def test_mirror_geometry_matches_scalar_products(p, n):
    # the unit products of the scalar terms, counted per target and label
    # of x, are the geometry's, bit for bit
    labels = all_labels(p, n)
    for l2 in labels:
        want = {}
        for target, lab_h in enumerate(labels):
            for lab_x, (e_b, e_x) in _mirror_pairs_by_matpn(p, n, lab_h, l2).items():
                counts = np.bincount(e_x * e_b % p**n, minlength=p**n)
                unit = np.flatnonzero(counts)
                want.setdefault(lab_x, []).append((np.full(len(unit), target), unit, counts[unit]))
        want = {lab: [np.concatenate(col) for col in zip(*want[lab])] for lab in labels if lab in want}
        got = _mirror_geometry(p, n, l2)
        assert list(got) == list(want), l2
        assert all(_same_arrays(got[lab], want[lab]) for lab in want), l2


@pytest.mark.parametrize("p,n", GRID)
def test_mirror_unit_counts_give_the_term_histograms(p, n):
    """For every character and every basis product on its basis, the
    histogram read off the geometry's unit products equals the histogram of
    the terms' exponent sums chi(e_x) + chi(e_b), per target and label of x."""
    labels = all_labels(p, n)
    pairs = {(lab_h, l2): _mirror_pairs_by_matpn(p, n, lab_h, l2) for lab_h in labels for l2 in labels}
    for chi in PChar.all_characters(p, n):
        vexp, m = chi.exponent_table(), chi.field.order
        basis = supported_basis(p, n, chi)
        for l2 in basis:
            for lab_x, (target, unit, count) in _mirror_geometry(p, n, l2).items():
                if lab_x not in basis:
                    continue
                for j, lab_h in enumerate(labels):
                    on = target == j
                    got = np.bincount(vexp[unit[on]], weights=count[on], minlength=m)
                    e_b, e_x = pairs[(lab_h, l2)].get(lab_x, np.zeros((2, 0), dtype=np.int64))
                    want = np.bincount((vexp[e_x] + vexp[e_b]) % m, minlength=m)
                    assert np.array_equal(got, want), (chi.conrey_index(), lab_h, l2, lab_x)


def _moved_count(entry, gen, pn):
    """(target, unit, count) with one count of its first unit moved to that
    unit times gen."""
    target, unit, count = (x.copy() for x in entry)
    count[0] -= 1
    moved = (target[0], unit[0] * gen % pn)
    at = np.flatnonzero((target == moved[0]) & (unit == moved[1]))
    if len(at):
        count[at[0]] += 1
        return target, unit, count
    return np.append(target, moved[0]), np.append(unit, moved[1]), np.append(count, 1)


def test_moving_one_unit_count_fails_both_oracles(monkeypatch, fresh_caches):
    # one count of the identity product moved from unit u to u g, for the
    # unit group's generator g: every character with chi(g) != 1 sees it,
    # in the mirrored sum and in the whole-group sum alike
    p, n = 3, 2
    top = f"y{n}"
    (gen,) = unit_group(p, n).generators
    seen = [chi for chi in PChar.all_characters(p, n) if chi.exponent(gen)]
    assert all(verify_relations(p, n, chi).ok for chi in seen)
    geometry = hecke._mirror_geometry
    mirror, pairs = dict(geometry(p, n, top)), dict(groupconv._pair_counts(p, n))
    mirror[top] = _moved_count(mirror[top], gen, p**n)
    pairs[(top, top)] = _moved_count(pairs[(top, top)], gen, p**n)
    monkeypatch.setattr(hecke, "_mirror_geometry", lambda p, n, l2: mirror if l2 == top else geometry(p, n, l2))
    monkeypatch.setattr(groupconv, "_pair_counts", lambda p, n: pairs)
    for chi in seen:
        failed = {a.id.split(".", 3)[3] for a in verify_relations(p, n, chi).failures()}
        assert failed == {"mirrored-convolution", f"bruteforce.{top}x{top}"}, chi.conrey_index()


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


# cells whose algebras have three or four basis labels
PRODUCT_CELLS = [(2, 2), (3, 2), (2, 3)]


@st.composite
def label_coefficients(draw, count: int):
    """A cell of PRODUCT_CELLS, and `count` maps from all its labels to
    rationals: integers, 1/p^k multiples, and small fractions."""
    p, n = draw(st.sampled_from(PRODUCT_CELLS))
    power = st.builds(lambda s, k: Fraction(s, p**k), st.integers(-3, 3), st.integers(1, n + 1))
    coefficient = st.one_of(st.integers(-4, 4), power, RATIONALS)
    labels = all_labels(p, n)
    return p, n, [{lab: draw(coefficient) for lab in labels} for _ in range(count)]


@given(label_coefficients(3), RATIONALS, RATIONALS)
def test_convolve_on_every_character(cell, a, b):
    """Integral and 1/p^k coefficients alike: convolve is bilinear, agrees
    with the mirrored sum for every character of the cell, and keeps its
    coefficients Fractions."""
    p, n, maps = cell
    for chi in PChar.all_characters(p, n):
        basis = supported_basis(p, n, chi)
        f, g, h = (HeckeElem(p, n, chi, {lab: m[lab] for lab in basis}) for m in maps)
        fh, gh = convolve(f, h), convolve(g, h)
        assert convolve(a * f + b * g, h) == a * fh + b * gh
        assert convolve(h, a * f + b * g) == a * convolve(h, f) + b * convolve(h, g)
        assert fh == convolve_mirrored(f, h)
        assert all(type(c) is Fraction for c in fh.coeffs.values())


@pytest.mark.parametrize("p,n", GRID)
def test_transport_lemma(p, n):
    # a y(p^j) class representative moves every coset with k0 = diag(s^-1, 1)
    for lab in all_labels(p, n)[1:]:
        _, d0 = _left_transport(p, n)[lab]
        assert np.all(d0 == 1), (p, n, lab)


def test_basis_product_refuses_transport_off_the_lemma(monkeypatch, fresh_caches):
    p, n = 3, 2
    assert _basis_product_cached(p, n, "y1", "y1") == (("y1", 1), ("y2", 2))
    clear_cell_caches()  # the checked table is cached; check the patched one
    table = dict(_left_transport(p, n))
    cls, d0 = table["y1"]
    d0 = d0.copy()
    d0[1, 2] = 2  # a unit, but not 1 mod 3
    table["y1"] = (cls, d0)
    monkeypatch.setattr(hecke, "_left_transport", lambda p, n: table)
    with pytest.raises(AlgebraError, match="y1"):
        _basis_product_cached(p, n, "y1", "y1")
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
        _basis_product_cached(p, n, "w", "w")
    with pytest.raises(AlgebraError, match="non-unit"):
        induced._basis_operator(p, n, "w")


def test_transport_refuses_a_closed_form_off_its_decomposition(monkeypatch, fresh_caches):
    """One w factor moved to another unit d0, which the lemma allows, and one
    y1 coset moved, at (3,2): the decomposition refuses each table, naming
    its label, and caches neither; the coset sum and the induced operator
    that read them refuse too."""
    p, n = 3, 2
    assert p**n <= BRUTE_LIMIT
    table = dict(_left_transport(p, n))
    cls, d0 = table["w"]
    d0 = d0.copy()
    d0[4, 1] = 2 * d0[4, 1] % p**n
    table["w"] = (cls, d0)
    cls, d0 = table["y1"]
    cls = cls.copy()
    cls[1, 2] = (cls[1, 2] + 1) % len(cls[1])
    table["y1"] = (cls, d0)
    monkeypatch.setattr(hecke, "_left_transport", lambda p, n: table)
    for lab in ("w", "y1"):
        with pytest.raises(AlgebraError, match=f"the {lab} transport differs from its decomposition"):
            hecke._checked_transport(p, n, lab)
    assert hecke._checked_transport.cache_info().currsize == 0
    with pytest.raises(AlgebraError, match="y1"):
        verify_relations(p, n, PChar.from_conrey(p, n, 8))  # conductor 3: basis y1, y2
    with pytest.raises(AlgebraError, match="the w transport"):
        induced._basis_operator(p, n, "w")
    assert induced._basis_operator.cache_info().currsize == 0


def _assertion(rep, suffix):
    [a] = [a for a in rep.assertions if a.id.endswith(suffix)]
    return a


def _second_read_shifted(exact):
    """`exact` with every second call's exponents shifted by one: a call
    reads chi once for a whole basis product, at the products of the two
    twists' entries, so every term of every second product moves by one
    root of unity."""
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
            for constants in structure_constants(p, n, chi).values():
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
        constants = structure_constants(p, n, chi)
        assert all(constants[(l1, l2)] == constants[(l2, l1)] for l1, l2 in constants)

