import json

import numpy as np
import pytest

from hecke_lab.dimoracle import dim_cusp
from hecke_lab.spaces import SpaceFormatError, fixture_dir, load_space

REQUIRED_KEYS = {"level", "weight", "character", "precision", "basis", "provenance"}


def _doc(level=11, weight=2, conrey=1, prec=256, nforms=0):
    rng = np.random.default_rng(0)
    basis = []
    for _ in range(nforms):
        c = rng.standard_normal(prec)
        basis.append([[float(x), 0.0] for x in c])
    return {
        "level": level,
        "weight": weight,
        "character": {"modulus": level, "conrey": conrey},
        "precision": prec,
        "basis": basis,
        "provenance": "synthetic",
    }


def test_all_shipped_fixtures_load():
    base = fixture_dir()
    paths = sorted(p for p in base.glob("*.json") if p.name != "families.json")
    assert len(paths) == 23
    for path in paths:
        doc = json.loads(path.read_text())
        assert set(doc) == REQUIRED_KEYS, path.name
        sp = load_space(path)
        assert sp.dim == dim_cusp(sp.level, sp.weight, sp.char), path.name
        assert sp.prec == 2048


def test_missing_key():
    doc = _doc()
    del doc["basis"]
    with pytest.raises(SpaceFormatError, match="basis"):
        load_space(doc)


def test_wrong_character_modulus():
    doc = _doc()
    doc["character"] = {"modulus": 7, "conrey": 1}
    with pytest.raises(SpaceFormatError, match="modulus"):
        load_space(doc)


def test_exponents_character_spec_rejected():
    # characters are exchanged by Conrey label only
    doc = _doc(level=7)
    doc["character"] = {"modulus": 7, "exponents": {"7": [1]}}
    with pytest.raises(SpaceFormatError, match="conrey"):
        load_space(doc)


def test_parity_rejected():
    # odd character with even weight cannot carry a nonzero space
    doc = _doc(level=4, weight=2, conrey=3, nforms=1)
    with pytest.raises(SpaceFormatError, match="parity"):
        load_space(doc)


def test_parity_ok_when_empty():
    doc = _doc(level=4, weight=2, conrey=3, nforms=0)
    sp = load_space(doc)
    assert sp.dim == 0


def test_low_precision_rejected():
    doc = _doc(prec=16, nforms=1)
    with pytest.raises(SpaceFormatError, match="precision"):
        load_space(doc)


def test_dependent_basis_rejected():
    doc = _doc(nforms=2)
    doc["basis"][1] = doc["basis"][0]
    with pytest.raises(SpaceFormatError, match="dependent"):
        load_space(doc)


def test_ragged_basis_rejected():
    doc = _doc(nforms=1)
    doc["basis"][0] = doc["basis"][0][:-1]
    with pytest.raises(SpaceFormatError, match="coefficients"):
        load_space(doc)


def test_non_pair_coefficient_rejected():
    for bad in ([1.0], [1.0, 2.0, 3.0], 1.0):
        doc = _doc(nforms=1)
        doc["basis"][0][5] = bad
        with pytest.raises(SpaceFormatError, match="form 0"):
            load_space(doc)


def test_load_families_parses_each_fixture_once(monkeypatch):
    from hecke_lab import spaces

    loaded = []
    load = spaces.load_space
    monkeypatch.setattr(spaces, "load_space", lambda path: loaded.append(path.stem) or load(path))
    families = spaces.load_families()
    manifest = json.loads((fixture_dir() / "families.json").read_text())["families"]
    by_stem: dict[str, list] = {}
    for doc, fam in zip(manifest, families, strict=True):
        by_stem.setdefault(doc["space"], []).append(fam["space"])
        for lv, stem in doc.get("lower", {}).items():
            by_stem.setdefault(stem, []).append(fam["lower"][int(lv)])
        if "flipped" in doc:
            by_stem.setdefault(doc["flipped"], []).append(fam["flipped"])
    assert sorted(loaded) == sorted(by_stem)
    shared = {stem: group for stem, group in by_stem.items() if len(group) > 1}
    assert sorted(shared) == ["N11k2c1", "N15k2c1", "N7k3c6"]
    assert all(sp is group[0] for group in shared.values() for sp in group)


def test_nonfinite_rejected():
    doc = _doc(nforms=1)
    doc["basis"][0][3] = [float("nan"), 0.0]
    with pytest.raises(SpaceFormatError):
        load_space(doc)


def test_coordinates_and_membership():
    sp = load_space(fixture_dir() / "N22k2c1.json")
    assert sp.dim == 2
    target = 2.0 * sp.basis[0].coeffs - 3.0 * sp.basis[1].coeffs
    x, mis = sp.coordinates(target)
    assert np.allclose(x, [2.0, -3.0])
    assert mis < 1e-9
    assert mis / np.linalg.norm(target) < 1e-12
    # something outside the span
    alien = np.zeros(sp.prec, dtype=np.complex128)
    alien[0] = 1.0
    _, mis = sp.coordinates(alien)
    assert mis > 1e-3


def test_load_from_json_string():
    text = json.dumps(_doc())
    sp = load_space(text)
    assert (sp.level, sp.weight, sp.dim) == (11, 2, 0)
