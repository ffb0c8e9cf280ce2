"""The benchmark's correctness gate accepts the program's real outputs and
rejects each deliberately perturbed one, so a pass is never vacuous.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hecke_lab import campaign  # noqa: E402
from hecke_lab.characters import PChar  # noqa: E402
from hecke_lab.cosets import all_labels, label_rep  # noqa: E402
from hecke_lab.hecke import is_supported, verify_relations  # noqa: E402
from hecke_lab.induced import verify_induced  # noqa: E402

P, N = 3, 2  # characters of conductor exponent 0, 1 and 2


@pytest.fixture(scope="module")
def characters():
    return list(PChar.all_characters(P, N))


@pytest.fixture(scope="module")
def char_records(characters):
    return [workloads.character_record(P, N, chi, verify_relations(P, N, chi), verify_induced(P, N, chi))
            for chi in characters]


@pytest.fixture(scope="module")
def family_records(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    # the workload wraps campaign's functions; the monkeypatch puts them back
    for attr in ("characterize", "op_W", "w_square_scalar"):
        mp.setattr(campaign, attr, getattr(campaign, attr))
    try:
        wl = workloads.Classical()
        inp = wl.setup(0, tmp_path_factory.mktemp("work"))
        report = wl.run(inp)
        assert report.ok
        yield inp.classical_capture.records(inp.families, inp.shipped)
    finally:
        mp.undo()


def test_conductor_exponent_counts():
    # characters of conductor dividing p^k are those of (Z/p^k)^x
    for p, n in workloads.GRID:
        rs = [checks.conductor_exponent(p, n, chi.exponent_table()) for chi in PChar.all_characters(p, n)]
        for k in range(n + 1):
            assert sum(r <= k for r in rs) == (checks.euler_phi(p, k) if k else 1), (p, n, k)


def test_closed_forms_sum_to_dimension():
    for p, n in workloads.GRID + [workloads.LARGE_CELL]:
        for r in range(n + 1):
            assert sum(checks.component_dims(p, n, r).values()) == checks.induced_dim(p, n)


def test_cell_characters(characters):
    tables = [(chi.exponent_table(), chi.field.order) for chi in characters]
    assert checks.check_cell_characters(P, N, tables) == []
    assert checks.check_cell_characters(P, N, tables[1:])  # one missing
    assert checks.check_cell_characters(P, N, tables[:-1] + [tables[0]])  # one repeated
    broken = tables[1][0].copy()
    broken[2] = (broken[2] + 1) % tables[1][1]
    assert checks.check_cell_characters(P, N, [tables[0], (broken, tables[1][1])] + tables[2:])


def test_real_character_outputs_pass(char_records):
    assert {checks.conductor_exponent(P, N, rec["vexp"]) for rec in char_records} == {0, 1, 2}
    for rec in char_records:
        assert checks.check_character(rec) == []


def _fixed_off_by_one(rec):
    rec["fixed"][N] += 1


def _components_swapped(rec):
    a, b = [k for k in rec["components"]][:2]
    rec["components"][a], rec["components"][b] = rec["components"][b], rec["components"][a]


def _system_route_off(rec):
    key = next(iter(rec["components_by_system"]))
    rec["components_by_system"][key] += 1


def _algebra_dim_off(rec):
    rec["algebra_dim"] += 1


def _induced_dim_off(rec):
    rec["induced_dim"] += 1


def _conductor_off(rec):
    rec["r"][1] = (rec["r"][1] + 1) % (N + 1)


def _report_failed(rec):
    rec["ok"] = False


@pytest.mark.parametrize("perturb", [
    _fixed_off_by_one, _components_swapped, _system_route_off, _algebra_dim_off,
    _induced_dim_off, _conductor_off, _report_failed,
])
def test_perturbed_character_rejected(char_records, perturb):
    for rec in char_records:
        if perturb is _components_swapped and len(set(rec["components"].values())) < 2:
            continue  # nothing to swap between equal blocks
        bad = copy.deepcopy(rec)
        perturb(bad)
        assert checks.check_character(bad), (perturb.__name__, rec["conrey"])


def test_support_law(characters):
    for chi in characters:
        rec = {"p": P, "n": N, "conrey": chi.conrey_index(), "vexp": chi.exponent_table(),
               "r": [chi.conductor_exponent],
               "supported": [lab for lab in all_labels(P, N) if is_supported(label_rep(P, N, lab), chi)]}
        assert checks.check_support(rec) == []
        unsupported = [lab for lab in all_labels(P, N) if lab not in rec["supported"]]
        if unsupported:
            assert checks.check_support(dict(rec, supported=rec["supported"] + unsupported[:1]))
        assert checks.check_support(dict(rec, supported=rec["supported"][1:]))


def test_real_family_outputs_pass(family_records):
    assert len(family_records) == 12
    for rec in family_records:
        assert checks.check_family(rec) == [], rec["name"]


@pytest.mark.parametrize("field, change", [
    ("new_dim", lambda v: v + 1),
    ("oracle", lambda v: v + 1),
    ("manifest", lambda v: v + 1),
    ("expected_new", lambda v: v + 1),
    ("gap", lambda v: 10.0),
    ("quads", lambda v: v[:-1] + [1e-3]),
    ("w_devs", lambda v: v[:-1] + [1e-6]),
    ("w_devs", lambda v: v[:-1]),
])
def test_perturbed_family_rejected(family_records, field, change):
    rec = next(r for r in family_records if r["dim"] and r["quads"])
    bad = dict(rec, **{field: change(copy.deepcopy(rec[field]))})
    assert checks.check_family(bad), field


def test_span_totals_and_self_time():
    rec = spans.Recorder()
    # outer a [0, 10] holds b [1, 4], which holds a nested a [2, 3]
    rec.spans = [
        ["induced.fixed_subspace", 0.0, 10.0, -1, None],
        ["induced.piL_basis", 1.0, 4.0, 0, None],
        ["induced.fixed_subspace", 2.0, 3.0, 1, None],
    ]
    assert rec.self_times() == [7.0, 2.0, 1.0]
    m = rec.metrics()
    assert m["induced.fixed_subspace_s"] == 10.0
    assert m["induced.fixed_subspace_calls"] == 2
    assert m["induced.piL_basis_s"] == 3.0
    assert set(m) | {"trace.overhead_s"} == set(spans.layer_metric_units())


def test_memory_guard_refuses_before_starting(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(workloads.WORKLOADS["large-cell"], "need_mb", 10**9)
    monkeypatch.setattr(run.Runner, "child", lambda *a: pytest.fail("a pass was started"))
    args = run.argparse.Namespace(workload="large-cell", seed=0, seconds=1.0, trace=0)
    with pytest.raises(run.PassFailed, match="MemAvailable"):
        run.Runner(args, tmp_path).measured_pass()
