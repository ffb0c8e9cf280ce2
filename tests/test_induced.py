import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hecke_lab import cosets, cyclotomic, hecke, induced
from hecke_lab.campaign import Campaign
from hecke_lab.characters import PChar
from hecke_lab.cosets import MatPn, all_labels, class_right_reps, coset_table, xmat, ymat
from hecke_lab.hecke import AlgebraError
from hecke_lab.induced import (
    InducedRep,
    PermSum,
    _row_blocks,
    _trace,
    _vanishes,
    component_dimensions,
    fixed_subspace,
    verify_induced,
)
from tests.conftest import GRID, clear_cell_caches


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_dimension_formula(p, n):
    rep = InducedRep(p, n, PChar.trivial(p, n))
    assert rep.dim == p ** (n - 1) * (p + 1)


def test_fixed_chain_trivial_character():
    # (2, 3): the unit group mod 8 needs two generators
    for p, n in [(3, 2), (2, 3)]:
        rep = InducedRep(p, n, PChar.trivial(p, n))
        dims = [fixed_subspace(rep, m).dim for m in range(n + 1)]
        assert dims == list(range(1, n + 2))  # one new dimension per level, from m = 0


def test_fixed_chain_primitive_character():
    for p, n, conrey in [(3, 2, 2), (2, 3, 3)]:  # conductors 9 and 8
        chi = PChar.from_conrey(p, n, conrey)
        assert chi.conductor_exponent == n
        rep = InducedRep(p, n, chi)
        dims = [fixed_subspace(rep, m).dim for m in range(n + 1)]
        assert dims == [0] * n + [1]


def _sample_K0m(p, n, m, rng, size=8):
    """Uniform sample of K0(p^m) mod p^n (all of GL2(Z/p^n) at m = 0)."""
    pn = p**n
    out = []
    while len(out) < size:
        a, b, d = (rng.randrange(pn) for _ in range(3))
        c = p**m * rng.randrange(p ** (n - m))
        if (a * d - b * c) % p:
            out.append(MatPn(p, n, a, b, c, d))
    return out


@pytest.mark.parametrize("p,n", GRID)
def test_fixed_vectors_are_eigenvectors_of_sampled_K0m(p, n):
    """fixed_subspace imposes only a generating set; every basis vector must
    still satisfy pi_R(k) v = chi(d_k) v for random k in K0(p^m), m >= r."""
    rng = random.Random(f"K0m:{p}:{n}")
    # one sample per level, shared by every character of the cell
    samples = {m: _sample_K0m(p, n, m, rng) for m in range(n + 1)}
    for chi in PChar.all_characters(p, n):
        rep = InducedRep(p, n, chi)
        r, mord, vexp = rep.r, rep.field.order, chi.exponent_table()
        for m in range(r, n + 1):
            basis = fixed_subspace(rep, m).basis_exponents
            assert len(basis) == m - r + 1
            for k in samples[m]:
                cls, e = rep.piR(k)
                # conductor 1: eigenvalue 1 on all of GL2, where d_k may be a non-unit
                xk = 0 if r == 0 else int(vexp[k.d])
                for ph in basis:
                    live = ph >= 0
                    assert np.array_equal(live[cls], live), (chi, m, k)
                    lhs = (e[live] + ph[cls[live]]) % mord
                    assert np.array_equal(lhs, (xk + ph[live]) % mord), (chi, m, k)


@st.composite
def phase_systems(draw):
    """1-4 phase permutations on 1-12 coordinates over an exponent table of
    1-6 entries: word k sends v to (zeta^vexp[d0[c]] v[cls[c]])_c and asks
    for the eigenvalue zeta^vexp[kd]."""
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    dim = draw(st.integers(1, 12))
    size = draw(st.integers(1, 6))
    vexp = draw(arrays(np.int64, size, elements=st.integers(0, m - 1)))
    words = [
        (
            np.array(draw(st.permutations(range(dim))), dtype=np.int64),
            draw(arrays(np.int64, dim, elements=st.integers(0, size - 1))),
            draw(st.integers(0, size - 1)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return m, vexp, words


@given(phase_systems())
def test_live_components_span_the_solution_space(system):
    """The phases read through the path-count matrix give as many solutions
    as the stacked (P_k - zeta^x_k I) has null dimension, with disjoint
    supports, each solving every equation exactly."""
    m, vexp, words = system
    dim = len(words[0][0])
    basis = induced._live_basis(induced._word_geometry(words), vexp, m)

    def root(e):
        return np.exp(2j * np.pi * np.asarray(e) / m)

    stacked = []
    for cls, d0, kd in words:
        P = np.zeros((dim, dim), dtype=complex)
        P[np.arange(dim), cls] = root(vexp[d0])
        stacked.append(P - root(vexp[kd]) * np.eye(dim))
    sv = np.linalg.svd(np.vstack(stacked), compute_uv=False)
    assert len(basis) == dim - int(np.sum(sv > 1e-8))

    support = np.zeros(dim, dtype=np.int64)
    for ph in basis:
        live = ph >= 0
        assert live.any()
        support += live
        for cls, d0, kd in words:
            assert np.array_equal(live[cls], live)
            assert np.array_equal((vexp[d0][live] + ph[cls[live]]) % m, (vexp[kd] + ph[live]) % m)
    assert support.max(initial=0) <= 1


def test_coboundary_systems_have_every_component_live():
    """Words whose phases are the differences phi[cls[c]] - phi[c] of one
    potential phi: every component is live, and its solution is phi minus
    phi at the component's lowest coordinate, on the component only.  Long
    random forests read each coordinate's phase off many path counts."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        dim, m = int(rng.integers(1, 40)), int(rng.integers(2, 13))
        phi = rng.integers(0, m, dim)
        vexp, words = [], []
        for _ in range(int(rng.integers(1, 4))):
            cls = rng.permutation(dim)
            kd = int(rng.integers(0, m))
            # one entry per (word, coordinate), then the word's own entry
            d0 = np.arange(len(vexp), len(vexp) + dim)
            vexp += list((kd - phi[cls] + phi) % m) + [kd]
            words.append((cls, d0, len(vexp) - 1))
        geo = induced._word_geometry(words)
        basis = induced._live_basis(geo, np.array(vexp), m)
        assert len(basis) == geo.labels.max() + 1
        for comp, ph in enumerate(basis):
            on = geo.labels == comp
            root = np.flatnonzero(on)[0]
            assert np.array_equal(ph[on], (phi[on] - phi[root]) % m)
            assert np.all(ph[~on] == -1)


def _scipy_live_components(dim, mord, src, dst, delta):
    """Reference route: scipy connected components, phases along a
    breadth-first tree rooted at each component's first coordinate."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(dim, dim)).tocsr()
    ncomp, labels = connected_components(graph, directed=False)
    step = np.zeros((dim, dim), dtype=np.int64)
    step[dst, src] = -delta % mord
    step[src, dst] = delta
    ph = np.zeros(dim, dtype=np.int64)
    for root in np.unique(labels, return_index=True)[1]:
        order, pred = breadth_first_order(graph, root, directed=False, return_predecessors=True)
        for c in order[1:]:
            ph[c] = (ph[pred[c]] + step[pred[c], c]) % mord
    dead = np.zeros(ncomp, dtype=bool)
    dead[labels[src[(ph[src] + delta - ph[dst]) % mord != 0]]] = True
    return [np.where(labels == comp, ph, -1) for comp in np.flatnonzero(~dead)]


def _piR_edges(rep, m):
    """The fixed-vector system of K0(p^m), and of the witness word below the
    conductor, as (src, dst, delta) edges read off rep.piR."""
    p, n, mord, vexp = rep.p, rep.n, rep.field.order, rep.chi.exponent_table()
    words = induced._k0m_generators(p, n, m)
    if m < rep.r:
        t = next(t for t in range(p**n) if vexp[(1 + p**m * t) % p**n] > 0)
        words.append(ymat(p, n, p**m) @ xmat(p, n, t))
    edges = [(np.arange(rep.dim), cls, (vexp[k.d] - e) % mord)
             for k, (cls, e) in ((k, rep.piR(k)) for k in words)]
    return [np.concatenate(col) for col in zip(*edges)]


def test_fixed_subspace_matches_scipy_components(monkeypatch):
    """On every grid character and level, the chain solves exactly the edges
    of right translation, and fixed_subspace returns the same basis as the
    scipy graph route on them."""
    pytest.importorskip("scipy.sparse.csgraph")
    live_basis, solved = induced._live_basis, []

    def recorded(geo, vexp, mord):
        solved.append(geo)
        return live_basis(geo, vexp, mord)

    monkeypatch.setattr(induced, "_live_basis", recorded)
    calls = 0
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            rep = InducedRep(p, n, chi)
            vexp, mord = chi.exponent_table(), rep.field.order
            for m in range(n + 1):
                src, dst, delta = _piR_edges(rep, m)
                basis = fixed_subspace(rep, m).basis_exponents
                geo = solved.pop()
                read = vexp[geo.entries[geo.word_at]] - vexp[geo.entries[geo.coset_at]]
                assert np.array_equal(geo.src, src) and np.array_equal(geo.dst, dst)
                assert np.array_equal(read % mord, delta), (p, n, chi.conrey_index(), m)
                ref = _scipy_live_components(rep.dim, mord, src, dst, delta)
                assert len(basis) == len(ref), (p, n, chi.conrey_index(), m)
                assert all(np.array_equal(a, b) for a, b in zip(basis, ref))
                calls += 1
    assert calls == 586


def test_path_counts_fit_in_the_dense_int8_matrix(monkeypatch):
    """On every grid character and level, the (row, entry, count) triples of
    the forest's path counts take no more bytes than a dim x entries int8
    matrix, hold nonzero counts only, at most one per (row, entry), and none
    on a component's root."""
    live_basis, seen = induced._live_basis, {}

    def recorded(geo, vexp, mord):
        seen[id(geo)] = geo
        return live_basis(geo, vexp, mord)

    monkeypatch.setattr(induced, "_live_basis", recorded)
    clear_cell_caches()
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            for m in range(n + 1):
                fixed_subspace(InducedRep(p, n, chi), m)
    assert len(seen) > len(GRID)
    for geo in seen.values():
        dim, size = len(geo.labels), len(geo.entries)
        stored = geo.path_row.nbytes + geo.path_entry.nbytes + geo.path_count.nbytes
        assert stored <= dim * size, (dim, size, stored)
        assert geo.path_count.dtype == np.int8 and geo.path_count.all()
        cells = geo.path_row.astype(np.int64) * size + geo.path_entry
        assert len(np.unique(cells)) == len(cells)
        roots = np.unique(geo.labels, return_index=True)[1]
        assert not np.isin(geo.path_row, roots).any()


def test_fixed_subspace_refuses_a_missing_witness(monkeypatch):
    # a trivial character posing as conductor p^n has no witness word below it
    p, n = 3, 2
    chi = PChar.trivial(p, n)
    monkeypatch.setattr(chi, "conductor_exponent", n)
    with pytest.raises(AlgebraError, match=r"p=3, n=2, conrey 1, m=0"):
        fixed_subspace(InducedRep(p, n, chi), 0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_spectral_audit(p, n):
    for chi in PChar.all_characters(p, n):
        sp = verify_induced(p, n, chi)
        assert sp.report.ok, [a.id for a in sp.report.failures()]
        assert sp.tables["entrywise_ok"]
        assert sp.component_dims["agree"]
        for m, d in sp.fixed_dims.items():
            assert d == (m - sp.r + 1 if m >= sp.r else 0)


def test_iwahori_components():
    # level-one induction from the trivial character splits 4 = 1 + 3
    sp = verify_induced(3, 1, PChar.trivial(3, 1))
    assert sp.tables["Y"][(1, 1)] == 1
    assert sp.dim == 4
    assert sp.component_dims["by_formula"] == {"w+": 1, "w-": 3}


def _dense(op):
    """Integer matrix of a sum, as a reference."""
    out = np.zeros((op.dim, op.dim), dtype=np.int64)
    np.add.at(out, (np.broadcast_to(np.arange(op.dim), op.cls.shape), op.cls), 1)
    return out


def test_products_and_traces_match_dense_matrices(monkeypatch, fresh_caches):
    rng = np.random.default_rng(7)
    dim = 6
    A, B, C = (PermSum(rng.integers(dim, size=(3, dim))) for _ in range(3))
    ABC = _dense(A) @ _dense(B) @ _dense(C)
    [(rows, [(q, prod)])] = _row_blocks([(1, (A, B, C))])
    assert q == 1 and np.array_equal(rows, np.arange(dim)) and np.array_equal(prod, ABC)
    # one-row blocks split the product
    monkeypatch.setattr(induced, "_BLOCK_ENTRIES", 1)
    combo = [(Fraction(1, 3), (A, B, C)), (2, (C,))]
    assert _trace(combo) == Fraction(int(np.trace(ABC)), 3) + 2 * int(np.trace(_dense(C)))
    q = induced._RANK_PRIME  # the prime field of the rank confirmation
    assert all(q % t for t in range(2, math.isqrt(q) + 1))


@pytest.mark.parametrize("block_entries", [None, 1])  # default blocks, then one row each
def test_vanishes_rejects_one_perturbed_entry(monkeypatch, fresh_caches, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(induced, "_BLOCK_ENTRIES", block_entries)
    p, n, k = 3, 2, 1
    rep = InducedRep(p, n, PChar.trivial(p, n))
    Y, s = rep.y_operator(k), p ** (n - k)
    assert Y.cls.size == 36
    assert _vanishes([(1, (Y, Y)), (-s, (Y,))])
    for a, c in np.ndindex(*Y.cls.shape):
        cls = Y.cls.copy()
        cls[a, c] = (cls[a, c] + 1) % Y.dim  # one term sends row c elsewhere
        Yp = PermSum(cls)
        assert not _vanishes([(1, (Yp, Yp)), (-s, (Yp,))]), (a, c)


def _component_verdicts(p, n):
    """component_dimensions of every character of a cell, computed afresh."""
    clear_cell_caches()
    out = []
    for chi in PChar.all_characters(p, n):
        res = component_dimensions(InducedRep(p, n, chi))
        checks = [(a.id, a.status) for a in res["report"].assertions]
        out.append((res["by_rank"], res["by_system"], res["agree"], checks))
    return out


def test_one_row_blocks_give_same_verdicts(monkeypatch, fresh_caches):
    p, n = 3, 2
    blocked = _component_verdicts(p, n)
    assert any("projcert" in cid for *_, checks in blocked for cid, _ in checks)
    assert any("rank-specialization" in cid for *_, checks in blocked for cid, _ in checks)
    monkeypatch.setattr(induced, "_BLOCK_ENTRIES", 1)
    blocks, row_blocks = [], induced._row_blocks

    def recorded(combo):
        for rows, block in row_blocks(combo):
            blocks.append(len(rows))
            yield rows, block

    monkeypatch.setattr(induced, "_row_blocks", recorded)
    assert _component_verdicts(p, n) == blocked
    assert blocks and set(blocks) == {1}  # the certificates were built on one-row blocks


def test_component_dimensions_memory(fresh_caches):
    """Certification holds one (dim, dim) count matrix per operator and one
    block of rows of each product, far below the 18 MB of a single dense
    (dim, dim, m) int64 tensor at (5,3)."""
    p, n = 5, 3
    rep = InducedRep(p, n, PChar.trivial(p, n))
    for lab in ["w"] + [f"y{j}" for j in range(1, n + 1)]:
        rep.piL_basis(lab)  # the cached basis operators are not part of the budget
    tracemalloc.start()
    try:
        res = component_dimensions(rep)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert res["agree"]
    assert peak_mb < 48, peak_mb


def test_component_dimensions_large_operator(fresh_caches):
    """The trivial character at (7,3), dimension 392: all three routes agree
    within the (5,3) memory budget."""
    p, n = 7, 3
    rep = InducedRep(p, n, PChar.trivial(p, n))
    for lab in ["w"] + [f"y{j}" for j in range(1, n + 1)]:
        rep.piL_basis(lab)  # the cached basis operators are not part of the budget
    tracemalloc.start()
    try:
        res = component_dimensions(rep)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert res["agree"] and res["by_rank"] == res["by_system"] == res["by_formula"]
    assert peak_mb < 48, peak_mb


def test_exact_tables_are_compact(fresh_caches):
    """The transport tables are unsigned in the smallest dtype that holds
    dim (and so p^n), the operators keep them without a copy, and every
    count matrix is unsigned and no wider than its number of terms needs."""
    for p, n in GRID + [(7, 3)]:
        dim = coset_table(p, n).dim
        for lab, (cls, d0) in cosets._left_transport(p, n).items():
            assert cls.dtype == d0.dtype == np.min_scalar_type(dim), (p, n, lab)
            assert induced._basis_operator(p, n, lab).cls is cls
        ops = [induced._basis_operator(p, n, lab) for lab in all_labels(p, n)]
        for op in ops + [induced._y_operator(p, n, k) for k in range(1, n + 1)]:
            assert op.counts.dtype.kind == "u" and op.counts.dtype == np.min_scalar_type(op.terms)
            assert np.array_equal(op.counts.sum(axis=1), np.full(dim, op.terms))
    assert induced._basis_operator(7, 3, "w").counts.dtype == np.uint16  # 343 terms
    assert induced._basis_operator(7, 3, "y1").counts.dtype == np.uint8  # 42 terms


def test_transport_and_counts_build_under_8_mb(fresh_caches):
    """At (7,3), dim 392: the transport tables, walked a block of lower rows
    at a time, and the basis operators' count matrices, built a block of
    rows at a time, peak under 8 MB together (full int64 products of the
    153,664 pairs took 17.5 MB alone)."""
    p, n = 7, 3
    coset_table(p, n)  # the coset table is not part of the budget
    tracemalloc.start()
    try:
        cosets._left_transport(p, n)
        for lab in all_labels(p, n):
            induced._basis_operator(p, n, lab).counts
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 8, peak_mb


@st.composite
def combinations(draw):
    """A random combination [(q, (A, ...))] of sums: dim 1-8, 1-4 terms of
    1-3 factors, each factor a sum of 1-3 maps of the coordinates."""
    dim = draw(st.integers(1, 8))

    def factor():
        maps = draw(st.integers(1, 3))
        return PermSum(draw(arrays(np.int64, (maps, dim), elements=st.integers(0, dim - 1))))

    weight = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    terms = draw(st.integers(1, 4))
    return [(draw(weight), tuple(factor() for _ in range(draw(st.integers(1, 3)))))
            for _ in range(terms)]


def _dense_combo(combo):
    """The combination as a matrix of exact Fractions."""
    return sum(Fraction(q) * reduce(np.matmul, map(_dense, factors)).astype(object)
               for q, factors in combo)


@given(combinations(), st.sampled_from([cyclotomic._FLOAT_EXACT, 0]), st.data())
def test_vanishes_and_trace_match_dense_matrices(combo, float_exact, data):
    """Against the exact dense reference, on both product routes (a float64
    bound of 0 sends every product through int64)."""
    dense = _dense_combo(combo)
    with mock.patch.object(cyclotomic, "_FLOAT_EXACT", float_exact):
        assert _vanishes(combo) == (not any(dense.flat))
        assert _trace(combo) == sum(dense.diagonal())
        # scaled by the lcm of its weights, the combination is a small integer matrix
        den = math.lcm(*(q.denominator for q, _ in combo))
        assert induced._rank_mod_q(combo) == np.linalg.matrix_rank((dense * den).astype(np.float64))
        # the combination minus itself cancels
        zero = combo + [(-q, factors) for q, factors in combo]
        assert _vanishes(zero) and _trace(zero) == 0 and induced._rank_mod_q(zero) == 0
        # one operator on an integer vector
        f = combo[0][1][0]
        v = data.draw(arrays(np.int64, f.dim, elements=st.integers(-3, 3)))
        img = induced._act(f, v)
        assert img.dtype == np.int64 and np.array_equal(img, _dense(f) @ v)


def test_int64_products_give_same_verdicts(monkeypatch, fresh_caches):
    p, n = 3, 2
    floated = _component_verdicts(p, n)
    monkeypatch.setattr(cyclotomic, "_FLOAT_EXACT", 0)
    assert induced._exact_dtype(1) is np.int64
    dtypes, exact_dtype = [], induced._exact_dtype

    def recorded(bound):
        dtypes.append(exact_dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(induced, "_exact_dtype", recorded)
    assert _component_verdicts(p, n) == floated
    assert dtypes and set(dtypes) == {np.int64}  # the certificates were built in int64
    with pytest.raises(OverflowError):
        induced._exact_dtype(2**63)


def test_large_campaign_cells_fit_the_transport_budget():
    """Every cell of the shipped large campaign passes the size check of
    cosets._left_transport (dim^2 entries per table), read without building a
    table."""
    path = Path(__file__).resolve().parents[1] / "campaigns" / "large.json"
    campaign = Campaign.from_file(path)
    cells = [(c["p"], c["n"]) for c in campaign.grid]
    assert cells == [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (5, 4), (7, 2), (7, 3), (11, 2)]
    assert all(set(cell) == {"p", "n"} for cell in campaign.grid)  # every character
    for p, n in cells:
        dim = p**n + p ** (n - 1)
        assert dim * dim <= cosets.K0_ENUMERATION_LIMIT, (p, n)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 3), (7, 2)])
def test_transport_tables_match_matpn_loop(p, n):
    # reference: decompose one MatPn per (representative, coset)
    table = coset_table(p, n)

    def reference(products):
        pairs = [table.decompose(g) for g in products]
        return [pos for pos, _ in pairs], [k0.d for _, k0 in pairs]

    reps = [table.rep_array[i] for i in range(table.dim)]
    left = cosets._left_transport(p, n)
    for lab in all_labels(p, n):
        for ai, a in enumerate(class_right_reps(p, n, lab)):
            cls, d0 = reference([a.inv() @ repc for repc in reps])
            assert list(left[lab][0][ai]) == cls and list(left[lab][1][ai]) == d0, (lab, ai)
    for k in [xmat(p, n, 1), ymat(p, n, p), MatPn(p, n, -1, 1, p, 1), ymat(p, n, 1) @ xmat(p, n, 2)]:
        cls, d0 = induced._right_transport(p, n, k)
        assert (list(cls), list(d0)) == reference([repc @ k for repc in reps]), k


def test_induced_refuses_transport_off_the_lemma(monkeypatch, fresh_caches):
    """One y1 transport factor with d0 = 2 at (3,2): every character that
    supports y1 (r <= 1) must refuse, not read a clean cell certificate; a
    character with r = 2 never reads the y1 operator."""
    p, n = 3, 2
    chars = {chi.conductor_exponent: chi for chi in PChar.all_characters(p, n)}
    assert set(chars) == {0, 1, 2}
    assert all(verify_induced(p, n, chi).ok() for chi in chars.values())
    table = dict(cosets._left_transport(p, n))
    cls, d0 = table["y1"]
    d0 = d0.copy()
    d0[1, 2] = 2  # a unit, but not 1 mod 3
    table["y1"] = (cls, d0)
    monkeypatch.setattr(hecke, "_left_transport", lambda p, n: table)
    clear_cell_caches()
    for r in (0, 1):
        with pytest.raises(AlgebraError, match="y1"):
            verify_induced(p, n, chars[r])
    assert verify_induced(p, n, chars[2]).ok()


def test_operators_only_for_supported_labels():
    p, n = 3, 2
    chi = PChar.from_conrey(p, n, 2)  # conductor 9
    rep = InducedRep(p, n, chi)
    assert rep.r == 2
    for lab in ("w", "y1"):
        with pytest.raises(ValueError):
            rep.piL_basis(lab)
    with pytest.raises(ValueError):
        rep.y_operator(1)
    assert rep.piL_basis("y2") is InducedRep(p, n, PChar.trivial(p, n)).piL_basis("y2")
