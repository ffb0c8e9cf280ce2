import copy
import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hecke_lab import cosets, hecke, induced, permsum
from hecke_lab.campaign import Campaign
from hecke_lab.characters import PChar, unit_group
from hecke_lab.cosets import (
    MatArray,
    MatPn,
    all_labels,
    class_right_reps,
    coset_table,
    identity,
    k0_order,
    xmat,
    ymat,
)
from hecke_lab.groupconv import BRUTE_LIMIT, _group_slices
from hecke_lab.hecke import AlgebraError
from hecke_lab.induced import (
    InducedRep,
    component_dimensions,
    eigenvalue_tables,
    fixed_subspace,
    verify_induced,
)
from hecke_lab.permsum import PermSum
from hecke_lab.report import Report
from tests.conftest import GRID, clear_cell_caches, decompose, stack

SMALL_CELLS = [(p, n) for p, n in GRID if p**n <= BRUTE_LIMIT]


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


def _packed(g):
    """A MatArray's entries packed as ((a q + b) q + c) q + d, q = p^n."""
    q = g.pn
    return ((g.a * q + g.b) * q + g.c) * q + g.d


def _closure(p, n, gens):
    """The subgroup of GL2(Z/p^n) that gens generate, as a mask over the
    packed entries: right multiplication from the identity, a breadth-first
    front at a time."""
    seen = np.zeros(p ** (4 * n), dtype=bool)
    front = stack(p, n, [identity(p, n)])
    seen[_packed(front)] = True
    while len(front):
        step = MatArray.concat(p, n, [front @ k for k in gens])
        keys, first = np.unique(_packed(step), return_index=True)
        new = ~seen[keys]
        seen[keys[new]] = True
        front = step[first[new]]
    return seen


@pytest.mark.parametrize("p,n", [(p, n) for p, n in GRID if p**n <= BRUTE_LIMIT])
def test_k0m_generators_generate_K0m(p, n):
    """With the scalars u*I, the words of `_k0m_generators` generate all of
    K0(p^m) at every level of the fixed chain (GL2(Z/p^n) at m = 0): the
    closure is the set of c = 0 mod p^m in the whole-group walk, of
    k0_order(p, n, m) elements."""
    scalars = [MatPn(p, n, u, 0, 0, u) for u in unit_group(p, n).generators]
    for m in range(n + 1):
        member = np.zeros(p ** (4 * n), dtype=bool)
        for a, delta in _group_slices(p, n):
            ia, b, c, d = np.nonzero(delta)
            g = MatArray(p, n, a.ravel()[ia], b, c, d)
            member[_packed(g[g.c % p**m == 0])] = True
        closure = _closure(p, n, induced._k0m_generators(p, n, m) + scalars)
        assert np.array_equal(closure, member), (p, n, m)
        assert member.sum() == k0_order(p, n, m), (p, n, m)


def _piR(rep, k):
    """Right translation by one group element, twisted by chi: (cls, e)
    with (pi_R(k) v)[c] = zeta^e[c] v[cls[c]], zeta of order field.order."""
    cls, d0 = induced._right_transport(rep.p, rep.n, k)
    e = rep.chi.exponent_table()[d0]
    assert np.all(e >= 0), "twist evaluated at a non-unit entry"
    return cls, e


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
                cls, e = _piR(rep, k)
                # conductor 1: eigenvalue 1 on all of GL2, where d_k may be a non-unit
                xk = 0 if r == 0 else int(vexp[k.d])
                for ph in basis:
                    live = ph >= 0
                    assert np.array_equal(live[cls], live), (chi, m, k)
                    lhs = (e[live] + ph[cls[live]]) % mord
                    assert np.array_equal(lhs, (xk + ph[live]) % mord), (chi, m, k)


def _path_count_basis(words, vexp, m):
    """The fixed chain's former route, an oracle for the unit potentials:
    the same breadth-first forest carries, for each coordinate, the signed
    counts of the entries read along its path in a dense (dim, entries)
    matrix; the phase of a coordinate is those counts times vexp at the
    entries, and a component is dead where an edge disagrees with them."""
    dim = len(words[0][0])
    src = np.tile(np.arange(dim), len(words))
    dst = np.concatenate([cls for cls, _, _ in words])
    read = np.concatenate([np.full(dim, kd) for _, _, kd in words] + [d0 for _, d0, _ in words])
    entries, at = np.unique(read, return_inverse=True)
    word_at, coset_at = at[: len(src)], at[len(src) :]
    tail, head = np.concatenate([src, dst]), np.concatenate([dst, src])
    edge, sign = np.tile(np.arange(len(src)), 2), np.repeat([1, -1], len(src))
    labels = np.full(dim, -1)
    paths = np.zeros((dim, len(entries)), dtype=np.int64)
    ncomp = 0
    while (labels < 0).any():
        front = np.flatnonzero(labels < 0)[:1]
        labels[front] = ncomp
        while True:
            on = np.zeros(dim, dtype=bool)
            on[front] = True
            hit = np.flatnonzero(on[tail] & (labels[head] < 0))
            if not len(hit):
                break
            front, first = np.unique(head[hit], return_index=True)
            a, i, sg = tail[hit[first]], edge[hit[first]], sign[hit[first]]
            labels[front] = ncomp
            paths[front] = paths[a]
            paths[front, word_at[i]] += sg
            paths[front, coset_at[i]] -= sg
        ncomp += 1
    vals = vexp[entries]
    ph = paths @ vals % m
    delta = vals[word_at] - vals[coset_at]
    dead = np.zeros(ncomp, dtype=bool)
    dead[labels[src[(ph[src] + delta - ph[dst]) % m != 0]]] = True
    return [np.where(labels == comp, ph, -1) for comp in np.flatnonzero(~dead)]


CELL_CHARACTERS = {cell: list(PChar.all_characters(*cell)) for cell in SMALL_CELLS}


@st.composite
def phase_systems(draw):
    """A character of a cell with p^n <= 27 and 1-4 phase permutations on
    1-12 coordinates with unit entries: word k sends v to
    (chi(d0[c]) v[cls[c]])_c and asks for the eigenvalue chi(kd)."""
    p, n = draw(st.sampled_from(SMALL_CELLS))
    chi = draw(st.sampled_from(CELL_CHARACTERS[(p, n)]))
    unit = st.sampled_from(unit_group(p, n).units.tolist())
    dim = draw(st.integers(1, 12))
    words = [
        (
            np.array(draw(st.permutations(range(dim))), dtype=np.int64),
            np.array(draw(st.lists(unit, min_size=dim, max_size=dim)), dtype=np.int64),
            draw(unit),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return p, n, chi, words


@given(phase_systems())
def test_live_components_span_the_solution_space(system):
    """The phases read at the unit potentials give as many solutions as the
    stacked (P_k - chi(kd) I) has null dimension, with disjoint supports,
    each solving every equation exactly, and they are the path-count
    route's, bit for bit."""
    p, n, chi, words = system
    vexp, m = chi.exponent_table(), chi.field.order
    dim = len(words[0][0])
    basis = induced._live_basis(induced._word_geometry(words, p, n), vexp)

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
    oracle = _path_count_basis(words, vexp, m)
    assert len(basis) == len(oracle) and all(np.array_equal(a, b) for a, b in zip(basis, oracle))


def test_coboundary_systems_have_every_component_live():
    """Words whose edge units are the ratios W[cls[c]] W[c]^-1 of one unit
    potential W: no cycle unit but 1, so every component is live for every
    character; the potential is W over W at the component's lowest
    coordinate, and the solution is chi there, on the component only.  Long
    random forests multiply many edge units."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        p, n = SMALL_CELLS[rng.integers(len(SMALL_CELLS))]
        pn, group = p**n, unit_group(p, n)
        dim = int(rng.integers(1, 40))
        W = rng.choice(group.units, dim)
        words = []
        for _ in range(int(rng.integers(1, 4))):
            cls, kd = rng.permutation(dim), int(rng.choice(group.units))
            # the edge unit kd d0[c]^-1 is W[cls[c]] W[c]^-1
            words.append((cls, kd * W % pn * group.inverse[W[cls]] % pn, kd))
        geo = induced._word_geometry(words, p, n)
        assert len(geo.cycle_unit) == 0
        for chi in CELL_CHARACTERS[(p, n)]:
            vexp = chi.exponent_table()
            basis = induced._live_basis(geo, vexp)
            assert len(basis) == geo.labels.max() + 1
            for comp, ph in enumerate(basis):
                on = geo.labels == comp
                root = np.flatnonzero(on)[0]
                assert np.array_equal(geo.potential[on], W[on] * group.inverse[W[root]] % pn)
                assert np.array_equal(ph[on], vexp[geo.potential[on]])
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


def _fixed_words(rep, m):
    """The words of the fixed-vector system of K0(p^m), with the witness
    word below the conductor."""
    p, n, vexp = rep.p, rep.n, rep.chi.exponent_table()
    words = induced._k0m_generators(p, n, m)
    if m < rep.r:
        t = next(t for t in range(p**n) if vexp[(1 + p**m * t) % p**n] > 0)
        words.append(ymat(p, n, p**m) @ xmat(p, n, t))
    return words


def _piR_edges(rep, words):
    """The system's edges as (src, dst, delta), read off pi_R."""
    mord, vexp = rep.field.order, rep.chi.exponent_table()
    edges = [(np.arange(rep.dim), cls, (vexp[k.d] - e) % mord)
             for k, (cls, e) in ((k, _piR(rep, k)) for k in words)]
    return [np.concatenate(col) for col in zip(*edges)]


def test_fixed_subspace_matches_scipy_components():
    """On every grid character and level, fixed_subspace returns the same
    basis, bit for bit, as the scipy graph route on the edges of right
    translation and as the path-count route on the same words."""
    pytest.importorskip("scipy.sparse.csgraph")
    calls = 0
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            rep = InducedRep(p, n, chi)
            vexp, mord = chi.exponent_table(), rep.field.order
            for m in range(n + 1):
                words = _fixed_words(rep, m)
                basis = fixed_subspace(rep, m).basis_exponents
                ref = _scipy_live_components(rep.dim, mord, *_piR_edges(rep, words))
                old = _path_count_basis([(*induced._right_transport(p, n, k), k.d) for k in words],
                                        vexp, mord)
                assert len(basis) == len(ref) == len(old), (p, n, chi.conrey_index(), m)
                assert all(np.array_equal(a, b) and np.array_equal(a, c)
                           for a, b, c in zip(basis, ref, old)), (p, n, chi.conrey_index(), m)
                calls += 1
    assert calls == 586


def test_fixed_geometry_holds_units_only(monkeypatch):
    """On every grid character and level, the geometry the character reads
    holds units mod p^n only: each potential is 1 at its component's lowest
    coordinate, and the cycle units are distinct within a component, sorted,
    and never 1."""
    live_basis, seen = induced._live_basis, {}

    def recorded(geo, vexp):
        seen[id(geo)] = geo
        return live_basis(geo, vexp)

    monkeypatch.setattr(induced, "_live_basis", recorded)
    for p, n in GRID:
        clear_cell_caches()
        for chi in PChar.all_characters(p, n):
            for m in range(n + 1):
                fixed_subspace(InducedRep(p, n, chi), m)
        geos, seen = seen, {}
        assert geos
        for geo in geos.values():
            roots = np.unique(geo.labels, return_index=True)[1]
            assert np.all(geo.potential[roots] == 1)
            assert np.all(geo.potential % p) and np.all(geo.cycle_unit % p)
            assert not np.any(geo.cycle_unit == 1)
            codes = geo.cycle_label * p**n + geo.cycle_unit
            assert np.all(np.diff(codes) > 0)
            assert np.all(geo.cycle_label <= geo.labels.max())


def test_fixed_geometry_refuses_a_non_unit_entry(monkeypatch, fresh_caches):
    # a right transport whose d0 holds a non-unit: refused once, in the
    # cell's geometry, before any product is formed
    p, n = 3, 2
    transport = induced._right_transport

    def broken(p, n, k):
        cls, d0 = transport(p, n, k)
        d0 = d0.copy()
        d0[0] = p
        return cls, d0

    monkeypatch.setattr(induced, "_right_transport", broken)
    with pytest.raises(AssertionError, match="non-unit"):
        fixed_subspace(InducedRep(p, n, PChar.trivial(p, n)), 1)


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
        tables = [a for a in sp.report.assertions if ".table." in a.id]
        assert tables and all(a.status == "pass" for a in tables)
        assert sp.component_dims["agree"]
        for m, d in sp.fixed_dims.items():
            assert d == (m - sp.r + 1 if m >= sp.r else 0)


def test_iwahori_components():
    # level-one induction from the trivial character splits 4 = 1 + 3
    sp = verify_induced(3, 1, PChar.trivial(3, 1))
    assert eigenvalue_tables(InducedRep(3, 1, PChar.trivial(3, 1)), Report())["Y"][(1, 1)] == 1
    assert sp.dim == 4
    assert sp.component_dims["by_formula"] == {"w+": 1, "w-": 3}


def _dense(op):
    """Integer matrix of a sum, as a reference."""
    out = np.zeros((op.dim, op.dim), dtype=np.int64)
    np.add.at(out, (np.broadcast_to(np.arange(op.dim), op.cls.shape), op.cls), 1)
    return out


def _dense_combo(combo):
    """The combination as a matrix of exact Fractions."""
    return sum(Fraction(q) * reduce(np.matmul, map(_dense, factors)).astype(object)
               for q, factors in combo)


def _dense_vanishes(combo):
    """The dense oracle: every entry of the combination's matrix is zero."""
    return not any(_dense_combo(combo).flat)


def _dense_trace(combo):
    """The dense oracle's trace, from the diagonal of the combination."""
    return sum(_dense_combo(combo).diagonal())


def test_products_and_traces_match_dense_matrices():
    rng = np.random.default_rng(7)
    dim = 6
    A, B, C = (PermSum(rng.integers(dim, size=(3, dim))) for _ in range(3))
    ABC = _dense(A) @ _dense(B) @ _dense(C)
    combo = [(Fraction(1, 3), (A, B, C)), (2, (C,))]
    assert _dense_trace(combo) == Fraction(int(np.trace(ABC)), 3) + 2 * int(np.trace(_dense(C)))


def test_rank_mod_q_refuses_mismatched_and_inexact_products():
    """The rank confirmation refuses factors of other dimensions, and a
    product whose factors' terms multiply to 2^62 or more (the bound on its
    entries) before any matrix is formed: the 2^31 terms here are views of
    one entry, so nothing is allocated."""
    q = permsum._RANK_PRIME  # the prime field of the rank confirmation
    assert all(q % t for t in range(2, math.isqrt(q) + 1))
    A, B = PermSum(np.zeros((1, 2), dtype=np.int64)), PermSum(np.zeros((2, 3), dtype=np.int64))
    for combo in ([(1, (A, B))], [(1, (A,)), (1, (B,))]):
        with pytest.raises(ValueError, match="mismatched operators"):
            permsum._rank_mod_q(combo)
    wide = PermSum(np.broadcast_to(np.zeros(1, dtype=np.uint8), (2**31, 1)))
    assert wide.terms == 2**31 and wide.dim == 1
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            permsum._rank_mod_q([(1, (wide,)), (1, (wide, wide))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def test_rank_confirmation_runs_on_small_cells_only(monkeypatch, fresh_caches):
    """_spectral_certificate confirms the ranks in the prime field on every
    cell with p^n <= BRUTE_LIMIT, and on no larger one: the rank route's
    matrices are at most 36 x 36."""
    dims, rank = [], induced._rank_mod_q

    def spy(combo):
        dims.append(combo[0][1][0].dim)
        return rank(combo)

    monkeypatch.setattr(induced, "_rank_mod_q", spy)
    for p, n in GRID + [(7, 3)]:
        dims.clear()
        for r in sorted({chi.conductor_exponent for chi in PChar.all_characters(p, n)}):
            induced._spectral_certificate(p, n, r)
        if p**n <= BRUTE_LIMIT:
            assert dims and set(dims) == {coset_table(p, n).dim}, (p, n)
        else:
            assert not dims, (p, n)
    assert max(coset_table(p, n).dim for p, n in SMALL_CELLS) == 36


def test_vanishes_rejects_one_perturbed_entry(fresh_caches):
    """Every single-entry perturbation of Y_1 at (3,2) breaks its
    commutation with right translation: the column route refuses it (no
    vanishing, no trace), and the dense oracle finds the identity false."""
    p, n, k = 3, 2, 1
    route = induced._column_route(p, n)
    Y, s = induced._y_operator(p, n, k), p ** (n - k)
    assert Y.cls.size == 36
    assert route.vanishes([(1, (Y, Y)), (-s, (Y,))]) and _dense_vanishes([(1, (Y, Y)), (-s, (Y,))])
    for a, c in np.ndindex(*Y.cls.shape):
        cls = Y.cls.copy()
        cls[a, c] = (cls[a, c] + 1) % Y.dim  # one term sends row c elsewhere
        Yp = PermSum(cls)
        identity = [(1, (Yp, Yp)), (-s, (Yp,))]
        assert not route.commutes(Yp) and not route.vanishes(identity), (a, c)
        with pytest.raises(AlgebraError, match="commute"):
            route.trace(identity)
        assert not _dense_vanishes(identity), (a, c)


def _cell_operators(p, n):
    """Every basis operator of a cell, and the Y_k."""
    return ([induced._basis_operator(p, n, lab) for lab in all_labels(p, n)]
            + [induced._y_operator(p, n, k) for k in range(1, n + 1)])


@pytest.mark.parametrize("p,n", GRID + [(7, 3)])
def test_right_translation_is_transitive_and_commutes_with_every_operator(p, n):
    route = induced._column_route(p, n)
    assert len(route.perms) == 2
    assert route.transitive and all(route.commutes(op) for op in _cell_operators(p, n))


@st.composite
def cell_combinations(draw):
    """A cell with p^n <= 27 and a weighted combination of 1-4 products of
    1-3 of its operators, and whether each term is followed by its factors
    reversed, negated: the algebra is commutative, so that one vanishes."""
    p, n = draw(st.sampled_from(SMALL_CELLS))
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    factors = st.lists(st.sampled_from(_cell_operators(p, n)), min_size=1, max_size=3).map(tuple)
    combo = draw(st.lists(st.tuples(weight, factors), min_size=1, max_size=4))
    mirrored = draw(st.booleans())
    if mirrored:
        combo += [(-q, f[::-1]) for q, f in combo]
    return p, n, combo, mirrored


@given(cell_combinations())
def test_column_route_matches_the_dense_oracle(drawn):
    p, n, combo, mirrored = drawn
    route = induced._column_route(p, n)
    vanishes = route.vanishes(combo)
    assert vanishes == _dense_vanishes(combo) and (vanishes or not mirrored)
    assert route.trace(combo) == _dense_trace(combo)


@given(st.sampled_from(SMALL_CELLS), st.data())
def test_column_route_refuses_non_equivariant_sums(cell, data):
    """A random sum of coordinate maps passes the premise exactly when its
    dense matrix commutes with every right translation; otherwise the route
    refuses it, even a combination that cancels to zero."""
    route = induced._column_route(*cell)
    terms = data.draw(st.integers(1, 3))
    T = PermSum(data.draw(arrays(np.int64, (terms, route.dim), elements=st.integers(0, route.dim - 1))))
    dense = _dense(T)
    moves = [np.eye(route.dim, dtype=np.int64)[perm] for perm in route.perms]
    commutes = all(np.array_equal(dense @ P, P @ dense) for P in moves)
    assert route.commutes(T) == commutes
    if not commutes:
        Y = induced._y_operator(*cell, 1)
        assert not route.vanishes([(1, (T,)), (-1, (T,))])
        assert not route.vanishes([(1, (Y, T)), (-1, (Y, T))])
        with pytest.raises(AlgebraError, match="commute"):
            route.trace([(1, (T,))])


def test_dropping_y1_from_the_translations_fails_the_certificates(monkeypatch, fresh_caches):
    """Without y(1) every word is upper triangular, and right translation by
    an upper triangular matrix keeps the valuation of a coset's lower-left
    entry: the orbit of coordinate 0 is not every coordinate.  Every
    projector identity then fails, and the traces raise."""
    k0m = induced._k0m_generators
    monkeypatch.setattr(induced, "_k0m_generators",
                        lambda p, n, m: [k for k in k0m(p, n, m) if k != ymat(p, n, p**m)])
    p, n = 3, 2
    assert not induced._column_route(p, n).transitive
    for r in range(n + 1):
        rec = Report()
        induced._certify_projector_family(p, n, r, rec)
        assert rec.assertions and {a.status for a in rec.assertions} == {"fail"}, r
    with pytest.raises(AlgebraError, match="commute"):
        component_dimensions(InducedRep(p, n, PChar.trivial(p, n)), Report())


def _component_verdicts(p, n):
    """component_dimensions of every character of a cell, computed afresh."""
    clear_cell_caches()
    out = []
    for chi in PChar.all_characters(p, n):
        report = Report()
        res = component_dimensions(InducedRep(p, n, chi), report)
        checks = [(a.id, a.status) for a in report.assertions]
        out.append((res["by_rank"], res["by_system"], res["agree"], checks))
    return out


def test_component_dimensions_memory(fresh_caches):
    """Certification holds the operators' coordinate maps and one column at
    a time, far below the 18 MB of a single dense (dim, dim, m) int64 tensor
    at (5,3)."""
    p, n = 5, 3
    rep = InducedRep(p, n, PChar.trivial(p, n))
    for lab in ["w"] + [f"y{j}" for j in range(1, n + 1)]:
        rep.piL_basis(lab)  # the cached basis operators are not part of the budget
    report = Report()
    tracemalloc.start()
    try:
        res = component_dimensions(rep, report)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert res["agree"] and report.ok
    assert peak_mb < 48, peak_mb


def test_component_dimensions_large_operator(fresh_caches):
    """The trivial character at (7,3), dimension 392: all three routes agree
    within the (5,3) memory budget."""
    p, n = 7, 3
    rep = InducedRep(p, n, PChar.trivial(p, n))
    for lab in ["w"] + [f"y{j}" for j in range(1, n + 1)]:
        rep.piL_basis(lab)  # the cached basis operators are not part of the budget
    report = Report()
    tracemalloc.start()
    try:
        res = component_dimensions(rep, report)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert res["agree"] and res["by_rank"] == res["by_system"] == res["by_formula"]
    assert report.ok and report.assertions[-1].id == "p7.n3.chi1.component-dims"
    assert peak_mb < 48, peak_mb


def test_component_dimensions_at_5_4_under_6_mb(fresh_caches):
    """The trivial character at (5,4), dimension 750: the column route
    certifies every component within 6 MB traced (the dense (dim, dim)
    products peaked at 10.95 MB)."""
    p, n = 5, 4
    rep = InducedRep(p, n, PChar.trivial(p, n))
    for lab in ["w"] + [f"y{j}" for j in range(1, n + 1)]:
        rep.piL_basis(lab)  # the cached basis operators are not part of the budget
    report = Report()
    tracemalloc.start()
    try:
        res = component_dimensions(rep, report)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert res["agree"] and report.ok
    assert peak_mb < 6, peak_mb


def test_returned_data_does_not_alias_the_certificates(fresh_caches):
    """What eigenvalue_tables and component_dimensions return is the
    caller's to change: another character of the same (p, n, r) still gets
    the closed forms."""
    p, n = 3, 3
    first, second = [InducedRep(p, n, chi) for chi in PChar.all_characters(p, n)
                     if chi.conductor_exponent == 2][:2]

    def fetch(rep):
        report = Report()
        return eigenvalue_tables(rep, report), component_dimensions(rep, report)

    want = copy.deepcopy(fetch(first))
    tables, dims = fetch(first)
    assert dims["by_formula"] == {"i2": 12, "i3": 24}
    for kind in ("V", "Y"):
        tables[kind][(2, 2)] += 1
    for route in ("by_rank", "by_system", "by_formula"):
        dims[route]["i2"] = 0
    assert fetch(second) == want


def test_exact_tables_are_compact(fresh_caches):
    """The transport tables are unsigned in the smallest dtype that holds
    dim (and so p^n), and the operators keep them without a copy."""
    for p, n in GRID + [(7, 3)]:
        dim = coset_table(p, n).dim
        for lab, (cls, d0) in cosets._left_transport(p, n).items():
            assert cls.dtype == d0.dtype == np.min_scalar_type(dim), (p, n, lab)
            assert induced._basis_operator(p, n, lab).cls is cls


def test_transport_and_counts_build_under_8_mb(fresh_caches):
    """At (7,3), dim 392: the transport tables, written a block of class
    representatives at a time, and the basis operators over them peak under
    8 MB together (full int64 products of the 153,664 pairs took 17.5 MB
    alone)."""
    p, n = 7, 3
    coset_table(p, n)  # the coset table is not part of the budget
    tracemalloc.start()
    try:
        cosets._left_transport(p, n)
        for lab in all_labels(p, n):
            induced._basis_operator(p, n, lab)
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


@given(combinations(), st.data())
def test_vanishes_and_trace_match_dense_matrices(combo, data):
    """The rank confirmation against the exact dense reference, and one
    operator's gather."""
    dense = _dense_combo(combo)
    # scaled by the lcm of its weights, the combination is a small integer matrix
    den = math.lcm(*(q.denominator for q, _ in combo))
    assert permsum._rank_mod_q(combo) == np.linalg.matrix_rank((dense * den).astype(np.float64))
    # the combination minus itself cancels
    zero = combo + [(-q, factors) for q, factors in combo]
    assert _dense_vanishes(zero) and _dense_trace(zero) == 0 and permsum._rank_mod_q(zero) == 0
    # one operator on an integer vector
    f = combo[0][1][0]
    v = data.draw(arrays(np.int64, f.dim, elements=st.integers(-3, 3)))
    img = permsum._act(f, v)
    assert img.dtype == np.int64 and np.array_equal(img, _dense(f) @ v)


def test_int64_products_give_same_verdicts(monkeypatch, fresh_caches):
    """Every gather and column image of a cell passes the int64 guard, and
    the three routes agree with every check passing; the guard refuses a
    bound of 2^62."""
    bounds, require = [], permsum._require_int64

    def recorded(bound):
        bounds.append(bound)
        require(bound)

    monkeypatch.setattr(permsum, "_require_int64", recorded)
    for by_rank, by_system, agree, checks in _component_verdicts(3, 2):
        assert agree and by_rank == by_system and all(status == "pass" for _, status in checks)
    assert bounds and max(bounds) < 2**62
    require(2**62 - 1)
    with pytest.raises(OverflowError):
        require(2**62)


def test_large_campaign_cells_fit_the_transport_budget():
    """Every cell of the shipped large campaign passes the size guard of the
    transport tables (cosets.require_transportable), read without building a
    table."""
    path = Path(__file__).resolve().parents[1] / "campaigns" / "large.json"
    campaign = Campaign.from_file(path)
    cells = [(c["p"], c["n"]) for c in campaign.grid]
    assert cells == [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (5, 4), (7, 2), (7, 3), (11, 2)]
    assert all(set(cell) == {"p", "n"} for cell in campaign.grid)  # every character
    for p, n in cells:
        cosets.require_transportable(p, n)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 3), (7, 2)])
def test_transport_tables_match_matpn_loop(p, n):
    # reference: decompose one MatPn per (representative, coset)
    table = coset_table(p, n)

    def reference(products):
        pairs = [decompose(table, g) for g in products]
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
    assert rep.piL_basis("y2") is InducedRep(p, n, PChar.trivial(p, n)).piL_basis("y2")
