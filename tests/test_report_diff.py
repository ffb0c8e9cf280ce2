import subprocess
import sys
from pathlib import Path

from hecke_lab.report import Assertion, Report

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def _write(path, rows):
    rep = Report(seed=0, meta={"path": str(path)})
    rep.extend(Assertion(*row) for row in rows)
    path.write_text(rep.to_json() + "\n")
    return str(path)


def _diff(a, b):
    out = subprocess.run([sys.executable, str(TOOL), a, b], capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def test_report_diff_lists_added_removed_and_changed_ids(tmp_path):
    """Ids only B has, ids only A has, and ids whose status, values,
    provenance or detail differ; runtimes and meta are ignored, and a
    repeated id is matched by its occurrence."""
    a = _write(tmp_path / "a.json", [
        ("x.same", "pass", "1", "1", "oracle", 0.5, ""),
        ("x.gap", "pass", ">= 1e3", "8.86e+14", "definition", 0.1, ""),
        ("x.gone", "pass", "1", "1", "formula"),
        ("x.twice", "pass", "0", "1e-16", "formula"),
        ("x.twice", "pass", "0", "2e-16", "formula"),
    ])
    b = _write(tmp_path / "b.json", [
        ("x.same", "pass", "1", "1", "oracle", 0.9, ""),
        ("x.gap", "fail", ">= 1e3", "9.09e+14", "definition", 0.2, "moved"),
        ("x.twice", "pass", "0", "1e-16", "formula"),
        ("x.twice", "pass", "0", "3e-16", "formula"),
        ("x.new.premise", "error", "premises hold", "SamplingError", "premise"),
    ])
    code, lines = _diff(a, b)
    assert code == 1
    assert lines == [
        "added x.new.premise",
        "removed x.gone",
        "changed x.gap: status 'pass' -> 'fail'; computed '8.86e+14' -> '9.09e+14'; "
        "detail '' -> 'moved'",
        "changed x.twice #2: computed '2e-16' -> '3e-16'",
        "1 added, 1 removed, 2 changed",
    ]
    assert _diff(a, a) == (0, ["0 added, 0 removed, 0 changed"])
