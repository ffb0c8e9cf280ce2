"""Acceptance gate.

One test per published guarantee, each at its stated tolerance; run with -v
for a one-line pass/fail verdict per item.  Eigenvalue and dimension claims
on the exact side are integer equalities; the operator engine claims carry
explicit numerical tolerances and spectral-gap floors.
"""

import time

import numpy as np
import pytest

from hecke_lab.characters import PChar
from hecke_lab.cosets import all_labels, class_right_reps, coset_table, k0_order, label_rep
from hecke_lab.groupconv import BRUTE_LIMIT
from hecke_lab.hecke import is_supported, supported_basis, verify_relations
from hecke_lab.induced import verify_induced
from hecke_lab.newspace import placement_checks, qualifying_primes
from hecke_lab.operators import op_U, op_W, w_square_scalar
from tests.conftest import GRID, double_coset_census, structure_constants

QUAD_TOL = 1e-6
PLACEMENT_TOL = 1e-6
DUAL_ROUTE_TOL = 1e-8
GAP_MIN = 1e3

CENSUS_BUDGET = 30.0
STRUCTURE_BUDGET = 120.0
INDUCED_BUDGET = 180.0


@pytest.fixture(scope="module")
def induced_suite():
    t0 = time.perf_counter()
    out = {}
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            out[(p, n, chi.conrey_index())] = verify_induced(p, n, chi)
    return out, time.perf_counter() - t0


def test_c1_double_coset_census():
    t0 = time.perf_counter()
    for p, n in GRID:
        total = len(coset_table(p, n).rep_array)
        assert total == p ** (n - 1) * (p + 1), (p, n)
        sizes = {lab: len(class_right_reps(p, n, lab)) for lab in all_labels(p, n)}
        assert sizes["w"] == p**n, (p, n)
        assert sizes[f"y{n}"] == 1, (p, n)
        for j in range(1, n):
            assert sizes[f"y{j}"] == p ** (n - j - 1) * (p - 1), (p, n, j)
        assert sum(sizes.values()) == total, (p, n)
        if p**n <= BRUTE_LIMIT:
            # second route: element counts of each double coset in all of GL2(Z/p^n)
            census = double_coset_census(p, n)
            for lab, size in sizes.items():
                assert census[lab] == k0_order(p, n) * size, (p, n, lab)
    elapsed = time.perf_counter() - t0
    assert elapsed < CENSUS_BUDGET, f"census took {elapsed:.1f}s"


def test_c2_support_law():
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            r = chi.conductor_exponent
            expected = (["w"] if r == 0 else []) + [
                f"y{j}" for j in range(max(r, 1), n + 1)
            ]
            assert supported_basis(p, n, chi) == expected, (p, n, chi.conrey_index())
            # independent route: the membership test on each class representative
            for lab in all_labels(p, n):
                member = is_supported(label_rep(p, n, lab), chi)
                assert member == (lab in expected), (p, n, chi.conrey_index(), lab)


def test_c3_structure_constants():
    t0 = time.perf_counter()
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            rep = verify_relations(p, n, chi)  # brute-force cross-check on for p^n <= 27
            assert rep.ok, (p, n, chi.conrey_index(), [a.id for a in rep.failures()])
            ids = {a.id.split(".", 3)[-1] for a in rep.assertions}
            if chi.conductor_exponent == 0:
                assert {"Usquare", "Ucubic"} <= ids, (p, n, chi.conrey_index())
                assert any(i.startswith("UY") for i in ids)
                if n == 1:
                    assert any(i.startswith("Uquadratic") for i in ids)
            if p**n <= 27:
                assert any(i.startswith("bruteforce") for i in ids)
    elapsed = time.perf_counter() - t0
    assert elapsed < STRUCTURE_BUDGET, f"structure sweep took {elapsed:.1f}s"


def test_c4_dimension_and_commutativity():
    for p, n in GRID:
        for chi in PChar.all_characters(p, n):
            r = chi.conductor_exponent
            assert len(supported_basis(p, n, chi)) == n - r + 1, (p, n, chi.conrey_index())
            constants = structure_constants(p, n, chi)
            for (l1, l2), product in constants.items():
                assert product == constants[(l2, l1)], (p, n, chi.conrey_index(), l1, l2)


def test_c5_induced_spectra(induced_suite):
    suite, elapsed = induced_suite
    for (p, n, conrey), sp in suite.items():
        assert sp.dim == p ** (n - 1) * (p + 1), (p, n, conrey)
        assert sp.report.ok, (p, n, conrey, [a.id for a in sp.report.failures()])
        assert all(a.status == "pass" for a in sp.report.assertions if ".table." in a.id), (p, n, conrey)
        assert sp.component_dims["agree"], (p, n, conrey)
        ids = {a.id.split(".", 3)[-1] for a in sp.report.assertions}
        assert any(i.startswith("table.") for i in ids), (p, n, conrey)
        assert "component-dims" in ids, (p, n, conrey)
        if max(sp.r, 1) <= n - 1:  # a proper shift class exists; its trace is checked
            assert any(i.startswith("trace.") for i in ids), (p, n, conrey)
    assert elapsed < INDUCED_BUDGET, f"induced sweep took {elapsed:.1f}s"


def test_c6_fixed_vector_chain(induced_suite):
    suite, _ = induced_suite
    for (p, n, conrey), sp in suite.items():
        assert set(sp.fixed_dims) == set(range(n + 1))
        for m, d in sp.fixed_dims.items():
            expected = m - sp.r + 1 if m >= sp.r else 0
            assert d == expected, (p, n, conrey, m)


def test_c7_quadratic_relations(char_results):
    seen = 0
    for name, res in char_results.items():
        for op in res.ops:
            assert op.quad <= QUAD_TOL, (name, op.label, op.quad)
            assert not op.poisoned, (name, op.label, op.residual, op.conditioning)
            seen += 1
    assert seen >= 20  # every qualifying fixture contributes its operator pairs


def test_c8_newspace_characterization(families, char_results):
    kinds = {fam["kind"] for fam in families}
    assert kinds == {"a", "b", "c"}  # squarefree/trivial, squarefree/odd
    # character, and higher prime power with imprimitive character
    for fam in families:
        res = char_results[fam["name"]]
        assert res.new_dim == res.expected_new, (fam["name"], res.new_dim, res.expected_new)
        assert res.expected_new == fam["expected_new"], fam["name"]
        assert res.gap >= GAP_MIN, (fam["name"], res.gap)
        for op in res.ops:
            assert op.eig_dist <= QUAD_TOL, (fam["name"], op.label, op.eig_dist)


def test_operator_engine_cross_checks(families):
    # sampled and coefficient routes for the shift agree; the involution
    # squares to its predicted scalar
    for fam in families:
        sp = fam["space"]
        if sp.dim == 0:
            continue
        for q in qualifying_primes(sp.level, sp.char):
            p = q.p
            Us = op_U(sp, p, route="sampled")
            Uc = op_U(sp, p, route="coeff")
            dev = float(np.linalg.norm(Us.matrix - Uc.matrix))
            dev /= max(1.0, float(np.linalg.norm(Uc.matrix)))
            assert dev <= DUAL_ROUTE_TOL, (fam["name"], p, dev)
            W = op_W(sp, p)
            s = w_square_scalar(sp, p)
            wdev = float(np.linalg.norm(W.matrix @ W.matrix - s * np.eye(sp.dim)))
            assert wdev <= DUAL_ROUTE_TOL, (fam["name"], p, wdev)


def test_c9_oldspace_placement(families):
    checked = 0
    for fam in families:
        sp = fam["space"]
        quals = qualifying_primes(sp.level, sp.char)
        for level, lower in fam["lower"].items():
            for q in quals:
                if sp.level // q.p != level:
                    continue
                checks = placement_checks(sp, q.p, lower)
                for c in checks:
                    assert c.ok and c.residual <= PLACEMENT_TOL, (fam["name"], c.name, c.residual)
                checked += len(checks)
    assert checked >= 20
