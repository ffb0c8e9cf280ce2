import importlib.util
from pathlib import Path

from hecke_lab.spaces import fixture_dir

TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_fixtures.py"


def test_build_reproduces_shipped_fixtures(tmp_path, monkeypatch):
    """tools/build_fixtures.py rebuilds every shipped fixture and the family
    manifest byte for byte."""
    spec = importlib.util.spec_from_file_location("build_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT_DIR", tmp_path)
    tool.build()
    shipped = sorted(p.name for p in fixture_dir().glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 24  # 23 spaces and families.json
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixture_dir() / name).read_bytes(), name
