"""The default campaign's verdicts, pinned to a digest.

A change that alters any assertion of the default campaign (its id, status,
values, provenance or detail) must update DEFAULT_VERDICTS_SHA256 on
purpose.  Runtimes and the report's meta (which holds the fixture path) are
left out."""

import hashlib
import json
import re
import time
from collections import Counter

import pytest

from hecke_lab import campaign, newspace, operators
from hecke_lab.campaign import Campaign, run_verify
from hecke_lab.dimoracle import dim_cusp
from hecke_lab.hecke import AlgebraError
from hecke_lab.operators import SamplingError
from hecke_lab.spaces import fixture_dir
from tests.conftest import chi_bar

FIELDS = ("id", "status", "expected", "computed", "provenance", "detail")
DEFAULT_VERDICTS_SHA256 = "85123cbdde940e45addd4b7617ee8ffc14de8acbe43084b458dd97087bc9bf0d"


def test_default_campaign_verdicts_are_pinned(fresh_caches):
    rep = run_verify(Campaign.default())
    assert rep.ok and len(rep.assertions) == 3238
    assert len({a.id for a in rep.assertions}) == 3238  # no id repeats
    rows = [[getattr(a, f) for f in FIELDS] for a in rep.assertions]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEFAULT_VERDICTS_SHA256


def _rows(rep):
    return [[getattr(a, f) for f in FIELDS] for a in rep.assertions]


def test_a_failed_premise_is_one_error_verdict(fresh_caches, monkeypatch):
    """A premise that fails in one (cell, character) or in one family
    becomes one "error" verdict under its tag's .premise id, and the run goes
    on: every other verdict is the one an unpatched run records."""
    run = Campaign(grid=[{"p": 3, "n": 1}, {"p": 2, "n": 2}], fixture_dirs=[str(fixture_dir())])
    clean = _rows(run_verify(run))
    relations, space_checks = campaign.verify_relations, campaign.space_checks

    def broken_relations(p, n, chi):
        if (p, n, chi.conrey_index()) == (3, 1, 2):
            raise AlgebraError("a patched premise")
        return relations(p, n, chi)

    def broken_space_checks(rep, tag, sp, flipped):
        if tag == "classical.sq11":
            raise SamplingError("no feasible sample region (patched)")
        return space_checks(rep, tag, sp, flipped)

    monkeypatch.setattr(campaign, "verify_relations", broken_relations)
    monkeypatch.setattr(campaign, "space_checks", broken_space_checks)
    rep = run_verify(run)
    assert [[a.id, a.status, a.provenance, a.computed, a.detail] for a in rep.failures()] == [
        ["p3.n1.chi2.premise", "error", "premise", "AlgebraError", "a patched premise"],
        ["classical.sq11.premise", "error", "premise", "SamplingError",
         "no feasible sample region (patched)"],
    ]
    broken = ("p3.n1.chi2.", "classical.sq11.")
    kept = [row for row in clean if not row[0].startswith(broken)]
    assert len(kept) < len(clean)
    assert [row for row in _rows(rep) if not row[0].startswith(broken)] == kept


@pytest.mark.parametrize("mutant, n_failed", [("swapped roots", 30), ("level N", 36)])
def test_mult_fails_a_wrong_multiplicity(mutant, n_failed, monkeypatch):
    """The mult verdict has teeth: m1 read with the roots swapped (d - m1
    in its place), or predicted by the oracle at level N instead of
    N/p^(n-r), fails it on n_failed of the 36 shipped operators, and no
    other verdict fails."""
    if mutant == "swapped roots":
        op_report = newspace.op_report
        monkeypatch.setattr(newspace, "op_report",
                            lambda op, roots, old: op_report(op, roots[::-1], old))
    else:
        monkeypatch.setattr(newspace, "_old_dim",
                            lambda sp, q: dim_cusp(sp.level, sp.weight, sp.char))
    rep = run_verify(Campaign(fixture_dirs=[str(fixture_dir())]))
    mult = {a.id for a in rep.assertions if a.id.endswith(".mult")}
    failed = [a.id for a in rep.failures()]
    assert len(mult) == 36
    assert set(failed) <= mult and len(failed) == n_failed


def _from_r_plus_1(survey_terms):
    """survey_terms without its j = r terms: the sum from r + 1."""
    return lambda chi, p, r: [
        (w, A) for w, A in survey_terms(chi, p, r) if A[1, 0] % p ** (r + 1) == 0
    ]


def _without_s0(shift_terms):
    return lambda p: shift_terms(p)[1:]


# in-process mutants of the slash terms: the operators name each replaces,
# the mutant made from the original, and the classical verdicts it fails,
# counted by kind (the id past the family, operator arguments dropped)
SLASH_MUTANTS = {
    "chi-bar slash character": ("slash_character", chi_bar, {}),
    "survey from r + 1": ("survey_terms", _from_r_plus_1, {
        "newdim": 4, "S.quad": 6, "S.eigset": 6, "S.mult": 5, "S'.quad": 6,
        "S'.eigset": 6, "S'.mult": 5, "placement.p2": 4, "placement.p3": 2,
    }),
    "shift without s = 0": ("shift_terms", _without_s0, {"U.routes": 18}),
}
# the mutants no classical verdict kills, with what kills them: every
# shipped character is real, so chi-bar reads bit for bit as chi on them
EXPECTED_SURVIVORS = {
    "chi-bar slash character": "tests/test_characters.py::"
    "test_chi_bar_slash_character_fails_the_crt_lift_test; on verdicts, "
    "ROADMAP items 19 (symbols) and 3 (non-real fixtures)",
}


@pytest.mark.parametrize("name", list(SLASH_MUTANTS))
def test_slash_term_mutants(name, monkeypatch):
    """Each mutant fails exactly the classical verdicts listed, every one
    of them as "fail", not "error"; the survivors are exactly those that
    fail none."""
    attr, mutate, killed = SLASH_MUTANTS[name]
    monkeypatch.setattr(operators, attr, mutate(getattr(operators, attr)))
    failures = run_verify(Campaign(fixture_dirs=[str(fixture_dir())])).failures()
    assert {a.status for a in failures} <= {"fail"}
    kinds = Counter(re.sub(r"\[[^]]*\]", "", a.id.split(".", 2)[2]) for a in failures)
    assert kinds == Counter(killed)
    assert (name in EXPECTED_SURVIVORS) == (not killed)


def test_other_exceptions_still_propagate(fresh_caches, monkeypatch):
    def relations(p, n, chi):
        raise TypeError("not a premise")

    monkeypatch.setattr(campaign, "verify_relations", relations)
    with pytest.raises(TypeError, match="not a premise"):
        run_verify(Campaign(grid=[{"p": 2, "n": 1}]))


def test_campaign_file_cannot_set_tolerances(tmp_path):
    """The pass thresholds are fixed (newspace.TOLERANCE): a campaign file
    that names them is refused rather than read."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": [], "fixture_dirs": [], "tolerance": {"quad": 1.0}}))
    with pytest.raises(ValueError, match="cannot set tolerances"):
        Campaign.from_file(path)


@pytest.mark.parametrize("grid", [
    "abc", 5, {"p": 3, "n": 2}, [5], ["p"], [[3, 2]], [{"p": 3}], [{"n": 2}],
    [{"p": 3, "n": 2.0}], [{"p": "3", "n": 2}], [{"p": 3, "n": True}],
    [{"p": 3, "n": None}], [{"p": 3, "n": 2, "conrey": 2.5}],
    # chi5 mod 3 would run as chi2 under the id p3.n1.chi5
    [{"p": 3, "n": 1, "conrey": 5}],
    [{"p": 3, "n": 1, "conrey": 2}, {"p": 3, "n": 1, "conrey": 5}],
    [{"p": 3, "n": 1, "conrey": 0}], [{"p": 5, "n": 2, "conrey": -1}],
    [{"p": 3, "n": 2, "conrey": 3}],
    [{"p": 4, "n": 2}], [{"p": 1, "n": 1}], [{"p": 3, "n": 0}],
    # refused before the good first cell runs
    [{"p": 2, "n": 1}, {"p": 4, "n": 2}],
    # a misspelt or unknown key, refused by name rather than ignored
    [{"p": 3, "n": 1, "Conrey": 2}], [{"p": 3, "n": 1, "N": 2}], [{"p": 3, "n": 1, "about": "x"}],
])
def test_campaign_file_refuses_a_malformed_grid(grid, tmp_path):
    """A grid is a list of objects with a prime p, an integer n >= 1 and an
    optional integer conrey, a unit in 1..p^n - 1; anything else is a
    ValueError (the CLI's exit 2) when the file is read, not a KeyError or
    TypeError from the first cell that reads it, nor another character run
    under the id the cell names."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": grid}))
    with pytest.raises(ValueError, match="grid"):
        Campaign.from_file(path)


@pytest.mark.parametrize("grid", [
    [{"p": 1000000000000000003, "n": 1}], [{"p": 2, "n": 10**9}], [{"p": 2, "n": 1}, {"p": 7, "n": 4}],
])
def test_campaign_file_refuses_an_oversized_cell(grid, tmp_path):
    """A cell over the transport tables' size budget is refused when the file
    is read, before its prime is factorized or p^n is formed."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": grid}))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit"):
        Campaign.from_file(path)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("key", ["grids", "fixture_dir", "Seed"])
def test_campaign_file_refuses_an_unknown_key(key, tmp_path):
    """A misspelt key is refused by name, not read as an empty campaign
    that passes with no assertion."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: [{"p": 3, "n": 2}]}))
    with pytest.raises(ValueError, match=key):
        Campaign.from_file(path)


def test_campaign_file_reads_a_well_formed_grid(tmp_path):
    grid = [{"p": 3, "n": 2}, {"p": 5, "n": 1, "conrey": 2}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": grid}))
    assert Campaign.from_file(path).grid == grid
