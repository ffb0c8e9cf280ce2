import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hecke_lab import spaces
from hecke_lab.dimoracle import dim_cusp
from hecke_lab.spaces import (
    SpaceFormatError,
    fixture_dir,
    least_squares,
    load_families,
    load_space,
)

REQUIRED_KEYS = {"level", "weight", "character", "precision", "basis", "provenance"}
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
# sha256 of each shipped space's basis coefficients, concatenated in basis
# order as little-endian complex128, computed from the [re, im] pair rows of
# the format the fixtures were first written in: the conversions to formats 2
# and 3 changed no bit
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
    basis = [rng.integers(-1000, 1000, prec).tolist() for _ in range(nforms)]
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
    ("weight", 1, "weight must be at least 2"),  # died in dim_cusp after a whole cell ran
    ("weight", -4, "weight must be at least 2"),
    ("precision", -5, "precision -5 below minimum 64"),  # loaded with an empty basis
    ("precision", 63, "precision 63 below minimum 64"),
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
    # a zero form, and dependent pairs at the top of the exact range
    top = [2**53 - 2] * 256
    for forms in ([[0] * 256], [top, [2**52 - 1] * 256], [top, [0] * 256]):
        doc["basis"] = forms
        with pytest.raises(SpaceFormatError, match="dependent"):
            load_space(doc)


def _good_row(position, value):
    row = [1] + [0] * 255
    row[position] = value
    return row


# (id, entry) pairs: what a format-3 entry of precision 256 must not be
BAD_ENTRIES = [
    ("format-2 string", "AAAAAAAA8D8AAAAAAAAAAA=="),
    ("number", 1.0),
    ("integer", 1),
    ("null", None),
    ("object", {"re": 1.0}),
    ("list of a string", ["AAAAAAAA8D8AAAAAAAAAAA=="]),
    ("integral float", _good_row(3, 2.0)),
    ("fraction", _good_row(3, 2.5)),
    ("bool", _good_row(3, True)),
    ("null coefficient", _good_row(3, None)),
    ("numeric string", _good_row(3, "2")),
    ("pair", _good_row(3, [2, 0])),
    ("NaN", _good_row(3, float("nan"))),
    ("inf", _good_row(3, float("inf"))),
    ("-inf", _good_row(3, -float("inf"))),
    ("2^53", _good_row(3, 2**53)),
    ("-2^53", _good_row(3, -(2**53))),
    ("-2^63", _good_row(3, -(2**63))),
    ("2^63", _good_row(3, 2**63)),
    ("10^400", _good_row(3, 10**400)),
    ("one short", [1] * 255),
    ("one long", [1] * 257),
    ("empty", []),
    # the [re, im] pair rows of the first fixture format, well formed or not
    ("pairs0", [[1.0, 2.0], [3.0]]),  # ragged
    ("pairs1", [[1.0, 2.0, 3.0]]),  # a triple
    ("pairs2", [[1.0]]),  # a single number
    ("pairs3", [1.0, 2.0]),  # no pairs at all
    ("pairs4", [[[1.0, 2.0]]]),  # nested one level too deep
    ("pairs5", [[1.0, "x"]]),  # not a number
    ("pairs6", [[1.0, [2.0]]]),  # a list in place of a number
    ("pairs7", [1.0, [2.0, 3.0]]),  # a bare number in place of a pair
]


@pytest.mark.parametrize("entry", [entry for _, entry in BAD_ENTRIES],
                         ids=[name for name, _ in BAD_ENTRIES])
def test_malformed_entry_rejected(entry):
    """Anything but a list of precision integers below 2^53 in absolute
    value is refused, naming format 3 and the tool that writes it; the
    fixture passes through JSON as a file would."""
    doc = _doc(nforms=1)
    doc["basis"][0] = entry
    with pytest.raises(SpaceFormatError, match="form 0 is not a format-3 entry .* tools/build_fixtures.py"):
        load_space(json.dumps(doc))


def test_shipped_fixture_as_pair_rows_rejected():
    """A shipped space written back as the first format's pair rows (every
    row the full precision long) is refused; there is no second reader."""
    doc = json.loads((fixture_dir() / "N11k2c1.json").read_text())
    coeffs = load_space(doc).basis[0].coeffs
    doc["basis"] = [[[float(c.real), float(c.imag)] for c in coeffs]]
    with pytest.raises(SpaceFormatError, match="form 0 is not a format-3 entry"):
        load_space(doc)


_EXACT = 2**53 - 1


@given(st.lists(st.integers(-_EXACT, _EXACT), min_size=64, max_size=96).filter(any))
@example([_EXACT, -_EXACT] * 32)
@example([0] * 63 + [-1])
def test_integer_rows_load_exactly(row):
    """An integer row below 2^53 in absolute value loads, through JSON, to
    exactly those floats; one at 2^53 is refused."""
    doc = {
        "level": 11, "weight": 2, "character": {"modulus": 11, "conrey": 1},
        "precision": len(row), "basis": [row],
    }
    (form,) = load_space(json.dumps(doc)).basis
    assert form.coeffs.real.tolist() == row
    assert form.coeffs.imag.tolist() == [0.0] * len(row)
    for edge in (2**53, -(2**53)):
        doc["basis"] = [row[:-1] + [edge]]
        with pytest.raises(SpaceFormatError, match="form 0 is not a format-3 entry"):
            load_space(json.dumps(doc))


def test_shipped_coefficients_are_pinned():
    """Every shipped space's coefficient bytes match the digests taken from
    the pair rows they were converted from."""
    for path in sorted(fixture_dir().glob("N*.json")):
        sp = load_space(path)
        got = hashlib.sha256(b"".join(f.coeffs.astype("<c16").tobytes() for f in sp.basis))
        assert got.hexdigest() == SHIPPED_COEFF_SHA256.get(path.stem, EMPTY_SHA256), path.stem
    assert sum(load_space(fixture_dir() / f"{stem}.json").dim > 0 for stem in SHIPPED_COEFF_SHA256) == 14


def test_loaded_coefficients_are_read_only():
    """A form cannot change under the operators memoized on its space.  The
    forms are views of the rows of the space's one array."""
    sp = load_space(fixture_dir() / "N22k2c1.json")
    assert sp.coeffs.shape == (sp.dim, sp.prec) == (2, 2048)
    assert not sp.coeffs.flags.writeable
    for form, row in zip(sp.basis, sp.coeffs, strict=True):
        assert np.shares_memory(form.coeffs, sp.coeffs) and (form.coeffs == row).all()
        assert not form.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form.coeffs[0] = 0.0


def test_load_families_parses_each_fixture_once(monkeypatch):
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


def test_coordinates_and_membership():
    sp = load_space(fixture_dir() / "N22k2c1.json")
    assert sp.dim == 2
    target = 2.0 * sp.basis[0].coeffs - 3.0 * sp.basis[1].coeffs
    # something outside the span
    alien = np.zeros(sp.prec, dtype=np.complex128)
    alien[0] = 1.0
    x, mis, sv = sp.coordinates(np.stack([target, alien], axis=1))
    assert x.shape == (2, 2) and mis.shape == (2,)
    assert np.allclose(x[:, 0], [2.0, -3.0])
    assert mis[0] < 1e-9
    assert mis[0] / np.linalg.norm(target) < 1e-12
    assert mis[1] > 1e-3
    assert np.allclose(sv, np.linalg.svd(sp.coeffs, compute_uv=False), rtol=1e-12)


def test_coordinates_truncate_to_what_both_hold():
    sp = load_space(fixture_dir() / "N22k2c1.json")
    target = 2.0 * sp.basis[0].coeffs - 3.0 * sp.basis[1].coeffs
    # a column shorter than the precision is solved over its own length,
    # against the basis truncated to it
    short = target[:100, None]
    x, mis, sv = sp.coordinates(short)
    assert np.allclose(x[:, 0], [2.0, -3.0]) and mis[0] < 1e-9
    assert np.allclose(sv, np.linalg.svd(sp.coeffs[:, :100], compute_uv=False), rtol=1e-12)
    # past the precision, the extra coefficients are not read
    long = np.concatenate([target, np.full(sp.prec, 1e6)])[:, None]
    x, mis, _ = sp.coordinates(long)
    assert np.allclose(x[:, 0], [2.0, -3.0]) and mis[0] < 1e-9


def test_coordinates_on_a_dim_0_space_make_no_solve(monkeypatch):
    sp = load_space(_doc())
    assert sp.dim == 0
    monkeypatch.setattr(spaces, "least_squares", None)  # any solve would raise
    block = np.arange(2 * (sp.prec + 5), dtype=np.complex128).reshape(sp.prec + 5, 2)
    x, mis, sv = sp.coordinates(block)
    assert x.shape == (0, 2) and sv.shape == (0,)
    # every column is all misfit, over the precision only
    assert np.array_equal(mis, np.linalg.norm(block[: sp.prec], axis=0))


def _column_reference(A, B):
    """np.linalg.lstsq one column at a time, with each misfit."""
    cols = [np.linalg.lstsq(A, b, rcond=None)[0] for b in B.T]
    X = np.stack(cols, axis=1) if cols else np.zeros((A.shape[1], 0), dtype=A.dtype)
    return X, np.array([np.linalg.norm(A @ x - b) for x, b in zip(cols, B.T)])


@given(
    st.integers(1, 12), st.integers(1, 6), st.integers(0, 4), st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
@example(4, 4, 4, 3, 0)  # square and full rank
def test_least_squares_equals_per_column_solves(rows, cols, rank, nrhs, seed):
    """least_squares equals np.linalg.lstsq column by column within 1e-12 of
    the block's scale, on random complex blocks of any rank (full when
    rank >= min(rows, cols), else the product of two thin factors) with
    some right-hand columns zero, and its singular values are A's."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gauss(rows, cols)
    if rank < min(rows, cols):
        A = gauss(rows, rank) @ gauss(rank, cols)
    B = gauss(rows, nrhs)
    B[:, rng.random(nrhs) < 0.3] = 0.0
    X, mis, sv = least_squares(A, B)
    X_ref, mis_ref = _column_reference(A, B)
    sv_ref = np.linalg.svd(A, compute_uv=False)
    assert X.shape == (cols, nrhs) and mis.shape == (nrhs,)
    scale = max(1.0, np.abs(X_ref).max(initial=0.0))
    assert np.abs(X - X_ref).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(mis - mis_ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(B).max(initial=0.0))
    assert np.abs(sv - sv_ref).max() <= 1e-12 * sv_ref[0]
    assert np.all(X[:, ~B.any(axis=0)] == 0) and np.all(mis[~B.any(axis=0)] == 0)


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
    # fixtures that do not fit their place in the family: these used to load,
    # and a wrong lower level stopped a run after the families before it
    ({"families": [{"name": "sq11", "space": "N11k2c1", "lower": {"1": "N11k2c1"}}]},
     "family sq11: lower fixture N11k2c1 has level 11 and weight 2, not 1 and 2"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "lower": {"1": "N1k4c1"}}]},
     "family sq11: lower fixture N1k4c1 has level 1 and weight 4, not 1 and 2"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "flipped": "N22k2c1"}]},
     "family sq11: flipped fixture N22k2c1 has level 22 and weight 2, not 11 and 2"),
    ({"families": [{"name": "sq11", "space": "N11k2c1", "flipped": "N11k4c1"}]},
     "family sq11: flipped fixture N11k4c1 has level 11 and weight 4, not 11 and 2"),
])
@pytest.mark.parametrize("reader", [load_families])
def test_malformed_manifest_rejected(manifest, match, reader, tmp_path):
    for level, weight in [(11, 2), (1, 4), (22, 2), (11, 4)]:
        doc = _doc(level=level, weight=weight)
        (tmp_path / f"N{level}k{weight}c1.json").write_text(json.dumps(doc))
    (tmp_path / "families.json").write_text(json.dumps(manifest))
    with pytest.raises(SpaceFormatError, match=match):
        reader(tmp_path)
