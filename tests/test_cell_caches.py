"""The character-free work cached per cell (p, n) or per (p, n, r) gives
every character the report it would get from empty caches, and that report
passes."""

import random

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
