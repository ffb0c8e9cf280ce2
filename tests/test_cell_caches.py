"""The character-free work cached per cell (p, n) or per (p, n, r) gives
every character the report it would get from empty caches, and that report
passes; once a cell's caches are filled, a character's work there reads chi
without any matrix arithmetic."""

import random

import pytest

from hecke_lab import campaign, groupconv, hecke, induced
from hecke_lab.cellcache import CELL_CACHES
from hecke_lab.cosets import CosetTable, MatArray
from hecke_lab.characters import PChar
from hecke_lab.hecke import verify_relations
from hecke_lab.induced import verify_induced
from tests.conftest import GRID, clear_cell_caches


def _reports(p, n, chi):
    reports = verify_relations(p, n, chi), verify_induced(p, n, chi).report
    assert all(rep.ok for rep in reports), (p, n, chi.conrey_index())
    return tuple(rep.to_json(include_runtime=False) for rep in reports)


def test_cached_cell_work_matches_a_cold_run(fresh_caches):
    chars = [(p, n, chi) for p, n in GRID for chi in PChar.all_characters(p, n)]
    assert len(chars) == 157
    cold = {}
    for p, n, chi in chars:
        clear_cell_caches()
        cold[(p, n, chi)] = _reports(p, n, chi)
    # warm: every cache filled by the characters visited before, in shuffled order
    clear_cell_caches()
    random.Random(9).shuffle(chars)
    for p, n, chi in chars:
        assert _reports(p, n, chi) == cold[(p, n, chi)], (p, n, chi.conrey_index())


def test_registry_holds_every_cell_cache():
    assert {f.__wrapped__.__qualname__ for f in CELL_CACHES} >= {
        "_basis_product_cached", "_mirror_geometry", "_relation_verdicts", "_pair_counts",
        "_basis_operator", "_y_operator", "_table_certificate", "_spectral_certificate",
        "_fixed_geometry", "coset_table", "_left_transport", "_right_transport",
        "_Kg_twist_ratios",
    }


def test_campaign_holds_one_cell_at_a_time(monkeypatch, fresh_caches):
    clears = []

    def recorded():
        clears.append(True)
        clear_cell_caches()

    monkeypatch.setattr(campaign, "clear_cell_caches", recorded)
    grid = [{"p": 2, "n": 2}, {"p": 2, "n": 2, "conrey": 3}, {"p": 3, "n": 1}]
    assert campaign.run_verify(campaign.Campaign(grid=grid)).ok
    assert len(clears) == 2
    # only (3, 1) is left: its conductor exponents 0 and 1
    assert hecke._relation_verdicts.cache_info().currsize == 2
    assert induced._spectral_certificate.cache_info().currsize == 2


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (5, 3)])
def test_per_character_work_reads_cached_cells_only(monkeypatch, fresh_caches, p, n):
    """A second pass over every character of a cell, with the caches the
    first pass filled, runs with coset decomposition, matrix products and
    inverses and the whole-group walk all refused: what is left per
    character is reading chi at precomputed entries."""
    chars = list(PChar.all_characters(p, n))
    first = [_reports(p, n, chi) for chi in chars]

    def refused(*args, **kwargs):
        raise AssertionError("per-character work reached the cell's matrix arithmetic")

    for owner, attr in [(CosetTable, "decompose_rows"), (MatArray, "__matmul__"),
                        (MatArray, "inv"), (groupconv, "_group_slices")]:
        monkeypatch.setattr(owner, attr, refused)
    assert [_reports(p, n, chi) for chi in chars] == first
