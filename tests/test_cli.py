import json
import math
import re

import pytest

from hecke_lab import newspace, operators
from hecke_lab.campaign import Campaign, run_verify
from hecke_lab.cli import main
from hecke_lab.report import Report
from hecke_lab.spaces import fixture_dir
from tests.test_spaces import _doc


def test_verify_empty_campaign(tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [], "fixture_dirs": []}))
    report = tmp_path / "out.json"
    code = main(["verify", "--campaign", str(campaign), "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"] == {"pass": 0, "fail": 0, "error": 0, "total": 0}


def test_verify_small_campaign(tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({
        "grid": [{"p": 2, "n": 1}],
        "fixture_dirs": [],
        "seed": 3,
    }))
    report = tmp_path / "out.json"
    code = main(["verify", "--campaign", str(campaign), "--seed", "3",
                 "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["seed"] == 3
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["total"] > 0
    for a in doc["assertions"]:
        assert a["provenance"] in ("formula", "definition", "oracle")


def test_verify_keeps_campaign_seed_unless_given(tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [], "fixture_dirs": [], "seed": 5}))
    report = tmp_path / "out.json"
    assert main(["verify", "--campaign", str(campaign), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["seed"] == 5
    assert main(["verify", "--campaign", str(campaign), "--seed", "9",
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["seed"] == 9


def test_verify_reports_a_failed_premise(tmp_path, monkeypatch, capsys):
    """An AlgebraError is a ValueError, but in a campaign it is a failed
    premise: exit 1 with the report written, not an input error (exit 2)."""
    from hecke_lab import campaign as runner
    from hecke_lab.hecke import AlgebraError

    def relations(p, n, chi):
        raise AlgebraError("a patched premise")

    monkeypatch.setattr(runner, "verify_relations", relations)
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [{"p": 2, "n": 1}]}))
    report = tmp_path / "out.json"
    assert main(["verify", "--campaign", str(campaign), "--report", str(report)]) == 1
    rows = json.loads(report.read_text())["assertions"]
    assert [(a["id"], a["status"], a["provenance"]) for a in rows] == [
        ("p2.n1.chi1.premise", "error", "premise")
    ]
    out = capsys.readouterr().out
    assert "0 pass, 0 fail, 1 error" in out
    assert "ERROR p2.n1.chi1.premise: a patched premise" in out


def test_verify_builds_no_json_without_report(tmp_path, monkeypatch, capsys):
    def refused(self, include_runtime=True):
        raise AssertionError("to_json ran without --report")

    monkeypatch.setattr(Report, "to_json", refused)
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [{"p": 2, "n": 1}], "fixture_dirs": []}))
    assert main(["verify", "--campaign", str(campaign)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("assertions: ") and out.endswith(" pass, 0 fail, 0 error\n")


def test_verify_refuses_oversized_cell(tmp_path, capsys):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [{"p": 7, "n": 4}], "fixture_dirs": []}))
    code = main(["verify", "--campaign", str(campaign)])
    assert code == 2
    assert "limit" in capsys.readouterr().err


def test_verify_refuses_campaign_tolerances(tmp_path, capsys):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [], "fixture_dirs": [], "tolerance": {}}))
    assert main(["verify", "--campaign", str(campaign)]) == 2
    assert "cannot set tolerances" in capsys.readouterr().err


CLASSICAL = ["classical", "--fixture", str(fixture_dir())]


def _rows(rep_doc):
    """A report's assertions, runtimes aside."""
    return [{k: v for k, v in a.items() if k != "runtime"} for a in rep_doc["assertions"]]


def test_classical_characterize(tmp_path):
    report = tmp_path / "out.json"
    assert main([*CLASSICAL, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["summary"] == {"pass": 217, "fail": 0, "error": 0, "total": 217}


def test_classical_characterize_runs_the_campaign_checks(tmp_path):
    """The command is the campaign's classical suite on its directory: its
    assertions are those of run_verify on a campaign holding only that
    directory, row for row, runtimes aside."""
    report = tmp_path / "out.json"
    assert main([*CLASSICAL, "--report", str(report)]) == 0
    suite = run_verify(Campaign(fixture_dirs=[str(fixture_dir())]))
    assert _rows(json.loads(report.read_text())) == _rows(suite.to_dict())
    assert {a.id.rsplit(".", 1)[-1] for a in suite.assertions} == {
        "newdim", "gap", "quad", "eigset", "mult", "healthy", "routes", "square",
    } | {"p2", "p3", "p5", "p11"}  # placement at these primes


def test_classical_help_lists_only_its_two_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", "--fixture", "--report"}


def test_classical_missing_directory(tmp_path, capsys):
    assert main(["classical", "--fixture", str(tmp_path / "nope")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classical_records_a_failed_premise(tmp_path, monkeypatch, capsys):
    """A premise that fails in one family is one classical.<family>.premise
    verdict: exit 1, the report written, every other row the unpatched
    run's."""
    from hecke_lab import campaign as runner

    clean = tmp_path / "clean.json"
    assert main([*CLASSICAL, "--report", str(clean)]) == 0
    space_checks = runner.space_checks

    def broken(rep, tag, sp, flipped):
        if tag == "classical.ch21w3":
            raise operators.SamplingError("no feasible sample region (patched)")
        return space_checks(rep, tag, sp, flipped)

    monkeypatch.setattr(runner, "space_checks", broken)
    report = tmp_path / "out.json"
    capsys.readouterr()
    assert main([*CLASSICAL, "--report", str(report)]) == 1
    rows = _rows(json.loads(report.read_text()))
    assert [(a["id"], a["status"], a["provenance"]) for a in rows if a["status"] != "pass"] == [
        ("classical.ch21w3.premise", "error", "premise")
    ]
    assert "ERROR classical.ch21w3.premise: no feasible sample region (patched)" in (
        capsys.readouterr().out
    )
    family = "classical.ch21w3."
    assert [a for a in rows if not a["id"].startswith(family)] == [
        a for a in _rows(json.loads(clean.read_text())) if not a["id"].startswith(family)
    ]


def _failed_ids(report):
    assert main([*CLASSICAL, "--report", str(report)]) == 1
    return {a["id"] for a in json.loads(report.read_text())["assertions"] if a["status"] != "pass"}


def test_classical_op_fails_a_poisoned_operator(tmp_path, monkeypatch):
    """Every operator flagged poisoned: each operator's healthy check
    fails, and nothing else."""
    monkeypatch.setattr(operators, "CONDITION_LIMIT", 1.0)
    failed = _failed_ids(tmp_path / "out.json")
    assert len(failed) == 36 and all(aid.endswith(".healthy") for aid in failed)


def test_classical_characterize_fails_below_the_gap_floor(tmp_path, monkeypatch):
    monkeypatch.setitem(newspace.TOLERANCE, "gap_min", math.inf)
    failed = _failed_ids(tmp_path / "out.json")
    assert failed and all(aid.endswith(".gap") for aid in failed)


@pytest.mark.parametrize("grid", [[{"p": 3}], "abc", [5], [{"p": 3, "n": 2.0}],
                                  [{"p": 3, "n": 2, "conrey": "2"}]])
def test_verify_refuses_a_malformed_grid(grid, tmp_path, capsys):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": grid, "fixture_dirs": []}))
    assert main(["verify", "--campaign", str(campaign)]) == 2
    assert "grid" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classical"])  # missing required --fixture
    assert exc.value.code == 2


@pytest.mark.parametrize("doc", [{"fixture_dirs": 5}, {"fixture_dirs": [5]}, {"fixture_dirs": "src"},
                                 {"fixture_dirs": {"a": "b"}}])
def test_verify_refuses_malformed_fixture_dirs(doc, tmp_path, capsys):
    # 5 and [5] used to die with a TypeError traceback, and "src" was read
    # one character at a time, as s/families.json
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [], **doc}))
    assert main(["verify", "--campaign", str(campaign)]) == 2
    assert "fixture_dirs" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [[1], 1.9, True, "3", None])
def test_verify_refuses_a_non_integer_seed(seed, tmp_path, capsys):
    # [1] used to die with a TypeError traceback, and 1.9 and true were
    # truncated to an int without a word
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [], "fixture_dirs": [], "seed": seed}))
    assert main(["verify", "--campaign", str(campaign)]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["level", "manifest", "absent", "lower"])
@pytest.mark.parametrize("command", ["classical", "verify"])
def test_malformed_fixture_directory_exits_2(command, broken, tmp_path, capsys, monkeypatch):
    # a fixture with "level": null used to die with a TypeError traceback, and
    # a manifest without a "families" list with KeyError: both exited 1, the
    # code for failed assertions; a directory without a manifest has no
    # families to run; a lower fixture of the wrong level used to stop the
    # run at its family's placement, after the families before it had run
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    doc = _doc()
    manifest = {"families": [{"name": "sq11", "space": "N11k2c1"}]}
    if broken == "level":
        doc["level"] = None
    elif broken == "lower":
        lower = {"1": "N11k2c1"}  # the level-11 fixture listed as level 1
        manifest["families"].append({"name": "sq11b", "space": "N11k2c1", "lower": lower})
    else:
        manifest = {"fams": manifest["families"]}
    (fixtures / "N11k2c1.json").write_text(json.dumps(doc))
    if broken != "absent":
        (fixtures / "families.json").write_text(json.dumps(manifest))
    report = tmp_path / "out.json"
    if command == "classical":
        argv = ["classical", "--fixture", str(fixtures), "--report", str(report)]
    else:
        campaign = tmp_path / "c.json"
        campaign.write_text(json.dumps({"grid": [], "fixture_dirs": [str(fixtures)]}))
        argv = ["verify", "--campaign", str(campaign), "--report", str(report)]
    checked = []
    monkeypatch.setattr("hecke_lab.campaign.space_checks", lambda *args: checked.append(args))
    assert main(argv) == 2
    assert checked == [] and not report.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if broken == "lower":
        assert "family sq11b: lower fixture N11k2c1 has level 11 and weight 2, not 1 and 2" in err
