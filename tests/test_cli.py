import json
import math

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
    assert doc["summary"] == {"pass": 0, "fail": 0, "total": 0}


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
    assert "FAIL p2.n1.chi1.premise" in capsys.readouterr().out


def test_verify_builds_no_json_without_report(tmp_path, monkeypatch, capsys):
    def refused(self, include_runtime=True):
        raise AssertionError("to_json ran without --report")

    monkeypatch.setattr(Report, "to_json", refused)
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": [{"p": 2, "n": 1}], "fixture_dirs": []}))
    assert main(["verify", "--campaign", str(campaign)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("assertions: ") and out.endswith(" pass, 0 fail\n")


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


def test_classical_single_operator(tmp_path):
    report = tmp_path / "out.json"
    code = main(["classical", "--fixture", str(fixture_dir()), "--prime", "11",
                 "--op", "q", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    ops = doc["meta"]["operators"]
    assert any(o.get("op", "").startswith("Q[11]") for o in ops)
    for o in ops:
        if "residual" in o:
            assert o["residual"] < 1e-6
            assert not o["poisoned"]


def test_classical_skips_primitive_character(tmp_path):
    # N4k3c3 carries a character primitive at 2: no survey operator exists
    # there, and the run must note the skip instead of failing
    report = tmp_path / "out.json"
    code = main(["classical", "--fixture", str(fixture_dir()), "--prime", "2",
                 "--op", "s", "--report", str(report)])
    assert code == 0
    ops = json.loads(report.read_text())["meta"]["operators"]
    skipped = {o["space"]: o["skipped"] for o in ops if "skipped" in o}
    assert skipped["N4k3c3"] == "character primitive at p"
    assert any(o.get("op", "").startswith("S[16,") for o in ops)


def test_classical_characterize(tmp_path):
    report = tmp_path / "out.json"
    code = main(["classical", "--fixture", str(fixture_dir()), "--prime", "3",
                 "--characterize", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["total"] > 0


def test_classical_missing_directory(tmp_path):
    code = main(["classical", "--fixture", str(tmp_path / "nope"), "--prime", "2",
                 "--characterize"])
    assert code == 2


def test_classical_prime_without_fixture():
    code = main(["classical", "--fixture", str(fixture_dir()), "--prime", "13",
                 "--characterize"])
    assert code == 2


def test_classical_refuses_a_run_without_checks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--fixture", str(fixture_dir()), "--prime", "3"])
    assert exc.value.code == 2
    assert "needs --op, --characterize or both" in capsys.readouterr().err


# (p, --op) where every shipped fixture of level divisible by p skips the
# operator: none has p^2 in its level and a character imprimitive at p
NO_ADMISSIBLE_OP = [(p, op) for p in (5, 7, 11) for op in ("s", "sprime")]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_classical_passes_every_check_choice(p, capsys):
    """Every check choice passes at p, except the --op runs that no shipped
    fixture admits at p, which are refused (exit code 2)."""
    cmd = ["classical", "--fixture", str(fixture_dir()), "--prime", str(p)]
    for choice in (["--characterize"], *(["--op", op] for op in ("q", "qprime", "s", "sprime"))):
        want = 2 if (p, choice[-1]) in NO_ADMISSIBLE_OP else 0
        assert main([*cmd, *choice]) == want, choice
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("p, op", NO_ADMISSIBLE_OP)
def test_classical_refuses_an_op_no_fixture_admits(p, op, tmp_path, capsys):
    """An --op run in which every space skips the operator would check
    nothing, so it is refused; with --characterize beside it the skips are
    noted and the characterization runs on every space as it does alone."""
    cmd = ["classical", "--fixture", str(fixture_dir()), "--prime", str(p)]
    assert main([*cmd, "--op", op]) == 2
    assert f"admits --op {op} at p = {p}" in capsys.readouterr().err
    alone, both = tmp_path / "alone.json", tmp_path / "both.json"
    assert main([*cmd, "--characterize", "--report", str(alone)]) == 0
    assert main([*cmd, "--op", op, "--characterize", "--report", str(both)]) == 0
    ids = [[a["id"] for a in json.loads(r.read_text())["assertions"]] for r in (alone, both)]
    assert ids[0] and ids[1] == ids[0]
    ops = json.loads(both.read_text())["meta"]["operators"]
    assert ops and all("skipped" in o for o in ops)


def _failed_ids(cmd, report):
    assert main([*cmd, "--report", str(report)]) == 1
    return {a["id"] for a in json.loads(report.read_text())["assertions"] if a["status"] != "pass"}


def test_classical_op_fails_a_poisoned_operator(tmp_path, monkeypatch):
    """Every operator flagged poisoned: the healthy check fails, as in the
    campaign."""
    monkeypatch.setattr(operators, "CONDITION_LIMIT", 1.0)
    cmd = ["classical", "--fixture", str(fixture_dir()), "--prime", "11", "--op", "q"]
    assert _failed_ids(cmd, tmp_path / "out.json") == {
        "N11k2c1.Q[11].healthy", "N22k2c1.Q[11].healthy",
    }


def test_classical_characterize_fails_below_the_gap_floor(tmp_path, monkeypatch):
    monkeypatch.setitem(newspace.TOLERANCE, "gap_min", math.inf)
    cmd = ["classical", "--fixture", str(fixture_dir()), "--prime", "3", "--characterize"]
    failed = _failed_ids(cmd, tmp_path / "out.json")
    assert failed and all(aid.endswith(".gap") for aid in failed)


def test_classical_characterize_runs_the_campaign_checks(tmp_path):
    """On N30k2c1 (family sq30) the command records the campaign's
    assertions, placement aside, under the fixture stem for a tag."""
    fields = ("status", "expected", "computed", "provenance")
    report = tmp_path / "out.json"
    assert main(["classical", "--fixture", str(fixture_dir()), "--prime", "5",
                 "--characterize", "--report", str(report)]) == 0
    cli = [
        (a["id"].removeprefix("N30k2c1."), *(a[f] for f in fields))
        for a in json.loads(report.read_text())["assertions"] if a["id"].startswith("N30k2c1.")
    ]
    suite = [
        (a.id.removeprefix("classical.sq30."), *(getattr(a, f) for f in fields))
        for a in run_verify(Campaign(fixture_dirs=[str(fixture_dir())])).assertions
        if a.id.startswith("classical.sq30.") and ".placement." not in a.id
    ]
    assert cli == suite
    assert {aid.rsplit(".", 1)[-1] for aid, *_ in cli} == {
        "newdim", "gap", "quad", "eigset", "healthy", "routes", "square",
    }


@pytest.mark.parametrize("prime", ["4", "0", "1", "-3", "9", "x"])
def test_classical_refuses_a_non_prime(prime, capsys):
    # --prime 4 --op q used to die with KeyError: 4, --prime 0 with
    # ZeroDivisionError, and --prime 1 --characterize ran on every fixture
    for checks in (["--op", "q"], ["--characterize"]):
        with pytest.raises(SystemExit) as exc:
            main(["classical", "--fixture", str(fixture_dir()), "--prime", prime, *checks])
        assert exc.value.code == 2
        assert f"{prime} is not a prime" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[{"p": 3}], "abc", [5], [{"p": 3, "n": 2.0}],
                                  [{"p": 3, "n": 2, "conrey": "2"}]])
def test_verify_refuses_a_malformed_grid(grid, tmp_path, capsys):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"grid": grid, "fixture_dirs": []}))
    assert main(["verify", "--campaign", str(campaign)]) == 2
    assert "grid" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classical"])  # missing required --fixture/--prime
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


@pytest.mark.parametrize("broken", ["level", "manifest"])
@pytest.mark.parametrize("command", ["classical", "verify"])
def test_malformed_fixture_directory_exits_2(command, broken, tmp_path, capsys):
    # a fixture with "level": null used to die with a TypeError traceback, and
    # a manifest without a "families" list with KeyError: both exited 1, the
    # code for failed assertions
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    doc = _doc()
    manifest = {"families": [{"name": "sq11", "space": "N11k2c1"}]}
    if broken == "level":
        doc["level"] = None
    else:
        manifest = {"fams": manifest["families"]}
    (fixtures / "N11k2c1.json").write_text(json.dumps(doc))
    (fixtures / "families.json").write_text(json.dumps(manifest))
    if command == "classical":
        argv = ["classical", "--fixture", str(fixtures), "--prime", "11", "--characterize"]
    else:
        campaign = tmp_path / "c.json"
        campaign.write_text(json.dumps({"grid": [], "fixture_dirs": [str(fixtures)]}))
        argv = ["verify", "--campaign", str(campaign)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
