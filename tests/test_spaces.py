import base64
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hecke_lab.dimoracle import dim_cusp
from hecke_lab.spaces import (
    SpaceFormatError,
    encode_coeffs,
    fixture_dir,
    load_families,
    load_fixtures,
    load_space,
)

REQUIRED_KEYS = {"level", "weight", "character", "precision", "basis", "provenance"}
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
# sha256 of each shipped space's basis coefficients, concatenated in basis
# order as little-endian complex128, computed from the [re, im] pair rows of
# the format the fixtures were first written in: the conversion to format 2
# changed no bit
SHIPPED_COEFF_SHA256 = {
    "N11k2c1": "55e330701d1e0468d58d17d7aabb87ba4374be4d49eb99522de9abefabe8e35d",
    "N14k2c1": "fc1fe2987d6ff8f45d62f23467cb8c7f14d6c1e099a36fe4dd30f8aef8e7deea",
    "N14k3c13": "82ce7b0053d6d5da6c303268317f41e62f823227baedc779eb5abc06d9ba0fc7",
    "N15k2c1": "5c6d71cbd85c6603f37070d1739e6de304a00e79c471a2f466567a73904fe1cf",
    "N16k3c15": "6870794f43a0e1b599ba9a7ff2280c68e878a8f518adffc028d8e9af038d8898",
    "N16k3c7": "0c6141b2a760bb0358d52ba2e2f137477c63940eb6bf84b57fc536e400b2351d",
    "N21k3c13": "6c210d6157dd31ba5e01a94e6cb7998048f299f2841b67f656ce6e0a296d59d7",
    "N22k2c1": "c0ca5845785884ab8b3cb6380685f092404daa6d0ffd7b145650604dfc62e62a",
    "N27k2c1": "54f29e3488e242c37e6af5725fa1b0e9208a6a15edd0343cd4176bda2cfb50ea",
    "N30k2c1": "d520e14ab613daa6892d117b9861dad657e2c926997941150828223e1a5cc657",
    "N36k2c1": "53e9cd2df8554cf123b1c3ef44f70edd550f71944fc11bb36732657e6b3862f1",
    "N7k3c6": "65000c51988887bedd44a5edc8a6d85c4f508ace04ee314377874dbfb2dd66a4",
    "N8k3c3": "32fc69a1b3676634350afe09de3c42197411cb5ba7b9e7710f4c2f876917e9e3",
    "N8k4c1": "1adbfb4c4b131d4a00c29126bf07980dc74c1a16ef2699923acfd03d427da3a1",
}


def _doc(level=11, weight=2, conrey=1, prec=256, nforms=0):
    rng = np.random.default_rng(0)
    basis = [encode_coeffs(rng.standard_normal(prec)) for _ in range(nforms)]
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


@pytest.mark.parametrize("key,value,match", [
    ("level", None, "level must be an integer"),  # used to die with TypeError in int()
    ("level", 11.0, "level must be an integer"),
    ("level", True, "level must be an integer"),
    ("level", 0, "level must be at least 1"),  # used to load as a space
    ("weight", 2.7, "weight must be an integer"),  # used to load as weight 2
    ("weight", "2", "weight must be an integer"),
    ("precision", None, "precision must be an integer"),
    ("character", 1, "character must be an object"),
    ("character", [11, 1], "character must be an object"),
    ("character", {"modulus": None, "conrey": 1}, "integer modulus and conrey"),
    ("character", {"modulus": 11, "conrey": 1.9}, "integer modulus and conrey"),  # loaded as 1
    ("character", {"modulus": "11", "conrey": True}, "integer modulus and conrey"),
    ("character", {"conrey": 1}, "integer modulus and conrey"),
    ("basis", "abc", "basis must be a list"),
    ("basis", None, "basis must be a list"),
])
def test_wrong_typed_field_rejected(key, value, match):
    doc = _doc()
    doc[key] = value
    with pytest.raises(SpaceFormatError, match=match):
        load_space(doc)


def test_non_object_fixture_rejected(tmp_path):
    path = tmp_path / "N11k2c1.json"
    path.write_text("[1, 2]")
    with pytest.raises(SpaceFormatError, match="JSON object"):
        load_space(path)


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
    # scaling before the SVD refuses a zero form, and a dependent pair at
    # the top of the float range
    big = np.full(256, complex(np.finfo(float).max, -1.0))
    for forms in ([np.zeros(256)], [big, big / 2], [big, np.zeros(256)]):
        doc["basis"] = [encode_coeffs(f) for f in forms]
        with pytest.raises(SpaceFormatError, match="dependent"):
            load_space(doc)


def test_ragged_basis_rejected():
    """An entry whose bytes are not precision complex128 values."""
    coeffs = np.random.default_rng(0).standard_normal(256)
    for bad in (coeffs[:-1], np.append(coeffs, 1.0), np.zeros(0)):
        doc = _doc(nforms=1)
        doc["basis"][0] = encode_coeffs(bad)
        with pytest.raises(SpaceFormatError, match="form 0 holds .* expected 256 coefficients"):
            load_space(doc)
    doc = _doc(nforms=1)
    doc["basis"][0] = base64.b64encode(b"\0" * (16 * 256 - 8)).decode()  # half a value short
    with pytest.raises(SpaceFormatError, match="expected 256 coefficients"):
        load_space(doc)


def test_non_pair_coefficient_rejected():
    """An entry that is not a string: a number, None, an object, a list of
    numbers or of strings."""
    for bad in (1.0, None, {"re": 1.0}, [1.0, 2.0], [encode_coeffs(np.ones(256))]):
        doc = _doc(nforms=1)
        doc["basis"][0] = bad
        with pytest.raises(SpaceFormatError, match="form 0 is not a format-2 entry"):
            load_space(doc)


@pytest.mark.parametrize("pairs", [
    [[1.0, 2.0], [3.0]],  # ragged
    [[1.0, 2.0, 3.0]],  # a triple
    [[1.0]],  # a single number
    [1.0, 2.0],  # no pairs at all
    [[[1.0, 2.0]]],  # nested one level too deep
    [[1.0, "x"]],  # not a number
    [[1.0, [2.0]]],  # a list in place of a number
    [1.0, [2.0, 3.0]],  # a bare number in place of a pair
])
def test_pair_rows_rejected(pairs):
    """The [re, im] pair rows of the first fixture format, well formed or
    not, are refused, naming format 2 and the tool that writes it."""
    doc = _doc(nforms=1)
    doc["basis"][0] = pairs
    with pytest.raises(SpaceFormatError, match="format-2 .* tools/build_fixtures.py"):
        load_space(doc)


def test_shipped_fixture_as_pair_rows_rejected():
    """A shipped space written back as the first format's pair rows (every
    row the full precision long) is refused; there is no second reader."""
    doc = json.loads((fixture_dir() / "N11k2c1.json").read_text())
    coeffs = load_space(doc).basis[0].coeffs
    doc["basis"] = [[[float(c.real), float(c.imag)] for c in coeffs]]
    with pytest.raises(SpaceFormatError, match="pair rows are no longer read"):
        load_space(doc)


@pytest.mark.parametrize("char", ["*", "-", "_", " ", "\n", "\u00e9"], ids=[
    "star", "minus", "underscore", "space", "newline", "non-ascii",
])
def test_non_base64_entry_rejected(char):
    """Characters outside the standard alphabet (URL-safe ones, whitespace
    and non-ASCII included) are refused, not skipped."""
    doc = _doc(nforms=1)
    good = doc["basis"][0]
    doc["basis"][0] = good[:40] + char + good[41:]
    with pytest.raises(SpaceFormatError, match="form 0: not standard base64"):
        load_space(doc)


def test_encoding_is_little_endian_complex128():
    """An entry is base64 of re, im, re, im, ... as little-endian float64."""
    raw = struct.pack("<4d", 1.0, -2.5, -0.0, 2.0**-1074)
    assert encode_coeffs([1.0 - 2.5j, complex(-0.0, 2.0**-1074)]) == base64.b64encode(raw).decode()
    assert encode_coeffs(np.array([1.0 - 2.5j]).astype(">c16")) == encode_coeffs([1.0 - 2.5j])
    assert encode_coeffs([]) == ""


# every finite part: the independence check scales the basis before its SVD
_FMAX = float(np.finfo(float).max)
_part = st.floats(min_value=-_FMAX, max_value=_FMAX, allow_subnormal=True)


@given(st.lists(_part, min_size=128, max_size=160).filter(lambda v: len(v) % 2 == 0 and any(v)))
@example([-0.0, -0.0, 5e-324, -2.0**-1030, 1 / 3, -0.1, 1e150, -2.0**-1022] + [0.0] * 120)
@example([5e-324] + [-0.0] * 127)
@example([_FMAX, -_FMAX] * 64)
def test_codec_round_trip_keeps_every_bit(parts):
    """encode_coeffs, JSON and load_space return the coefficients bit for
    bit: -0.0, subnormals and non-integers included."""
    coeffs = np.array(parts).view(np.complex128)
    doc = {
        "level": 11, "weight": 2, "character": {"modulus": 11, "conrey": 1},
        "precision": len(coeffs), "basis": [encode_coeffs(coeffs)],
    }
    (form,) = load_space(json.dumps(doc)).basis
    assert form.coeffs.tobytes() == coeffs.tobytes()


def test_codec_keeps_negative_zero():
    coeffs = np.zeros(64, dtype=np.complex128)
    coeffs[:4] = [complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.0, -0.0), 0j]
    doc = _doc(prec=64)
    doc["basis"] = [encode_coeffs(coeffs)]
    got = load_space(doc).basis[0].coeffs[:4]
    assert np.signbit(got.real).tolist() == [True, True, False, False]
    assert np.signbit(got.imag).tolist() == [True, False, True, False]


def test_shipped_coefficients_are_pinned():
    """Every shipped space's coefficient bytes match the digests taken from
    the pair rows they were converted from."""
    for path in sorted(fixture_dir().glob("N*.json")):
        sp = load_space(path)
        got = hashlib.sha256(b"".join(f.coeffs.astype("<c16").tobytes() for f in sp.basis))
        assert got.hexdigest() == SHIPPED_COEFF_SHA256.get(path.stem, EMPTY_SHA256), path.stem
    assert sum(load_space(fixture_dir() / f"{stem}.json").dim > 0 for stem in SHIPPED_COEFF_SHA256) == 14


def test_loaded_coefficients_are_read_only():
    """A form cannot change under the operators memoized on its space."""
    sp = load_space(fixture_dir() / "N22k2c1.json")
    for form in sp.basis:
        assert not form.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form.coeffs[0] = 0.0


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
    for bad in (complex(float("nan"), 0.0), complex(0.0, float("inf")), complex(-float("inf"), 1.0)):
        coeffs = np.ones(256, dtype=np.complex128)
        coeffs[3] = bad
        doc = _doc(nforms=1)
        doc["basis"][0] = encode_coeffs(coeffs)
        with pytest.raises(SpaceFormatError, match="form 0: non-finite"):
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


@pytest.mark.parametrize("manifest,match", [
    ({"fams": []}, "'families' list"),  # used to die with KeyError: 'families'
    ([], "'families' list"),
    ({"families": {"name": "sq11"}}, "'families' list"),
    ({"families": ["N11k2c1"]}, "string name and space"),
    ({"families": [{"name": "sq11"}]}, "string name and space"),
    ({"families": [{"name": "sq11", "space": 11}]}, "string name and space"),
    ({"families": [{"space": "N11k2c1"}]}, "string name and space"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "flipped": 1}]}, "flipped"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "lower": ["N1k2c1"]}]}, "lower"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "lower": {"x": "N1k2c1"}}]}, "lower"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "lower": {"1": 1}}]}, "lower"),
])
@pytest.mark.parametrize("reader", [load_families, load_fixtures])
def test_malformed_manifest_rejected(manifest, match, reader, tmp_path):
    (tmp_path / "N11k2c1.json").write_text(json.dumps(_doc()))
    (tmp_path / "families.json").write_text(json.dumps(manifest))
    with pytest.raises(SpaceFormatError, match=match):
        reader(tmp_path)
