import json
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_lab.campaign import Campaign, run_verify
from hecke_lab.characters import DirChar
from hecke_lab.cli import main
from hecke_lab.cyclotomic import _factorize
from hecke_lab.newspace import characterize, placement_checks
from hecke_lab.operators import (
    HALTON_BATCH,
    HALTON_POINTS,
    HALTON_STRIDE,
    IMAG_FLOOR,
    SAMPLE_BAND,
    SamplingError,
    _solved,
    _feasible,
    _halton,
    _radical_inverse,
    atkin_lehner_matrix,
    nullspace,
    op_matrix,
    op_Q,
    op_Qprime,
    op_S,
    op_Sprime,
    op_U,
    op_W,
    quad_ratio,
    sample_points,
    shift_terms,
    slash_character,
    slash_evaluate,
    survey_terms,
    w_square_scalar,
)
from hecke_lab.qexp import evaluate_many
from hecke_lab.spaces import fixture_dir, load_space


@pytest.fixture(scope="module")
def sp11():
    return load_space(fixture_dir() / "N11k2c1.json")


@pytest.fixture(scope="module")
def sp21():
    return load_space(fixture_dir() / "N21k3c13.json")


@pytest.fixture(scope="module")
def sp16():
    return load_space(fixture_dir() / "N16k3c7.json")


def test_atkin_lehner_determinants():
    for p, n, N in [(11, 1, 11), (2, 1, 22), (11, 1, 22), (3, 2, 36), (2, 4, 16)]:
        A = atkin_lehner_matrix(p, n, N)
        q = p**n
        assert A[0, 0] % q == 0
        assert A[0, 1] == 1
        assert A[1, 0] % N == 0
        assert A[1, 1] == q
        det = int(A[0, 0]) * int(A[1, 1]) - int(A[0, 1]) * int(A[1, 0])
        assert det == q


def test_atkin_lehner_prime_level_identity():
    # at N = p the defining relation reads p^2 b - p c = p
    A = atkin_lehner_matrix(11, 1, 11)
    beta = int(A[0, 0]) // 11
    gamma = int(A[1, 0]) // 11
    assert 121 * beta - 11 * gamma == 11


def test_atkin_lehner_rejects_inexact():
    with pytest.raises(ValueError):
        atkin_lehner_matrix(2, 1, 12)  # 2^1 does not exactly divide 12
    with pytest.raises(ValueError):
        atkin_lehner_matrix(5, 1, 22)


def test_sample_points_deterministic_and_feasible():
    mats = [atkin_lehner_matrix(11, 1, 22)]
    # skip = 1 is the first retry of op_matrix: a later stretch of the sequence
    for skip in (0, 1):
        pts1 = sample_points(mats, 8, skip=skip)
        pts2 = sample_points(mats, 8, skip=skip)
        assert np.array_equal(pts1, pts2)
        # the disc of W[11] tops out below the band: its box is skipped
        assert pts1.tobytes() == reference_sample_points(mats, 8, skip).tobytes()
        for A in mats:
            (a, b), (c, d) = A
            det = int(a) * int(d) - int(b) * int(c)
            im = det * pts1.imag / np.abs(c * pts1 + d) ** 2
            assert np.all(im >= 0.02)
    assert not np.array_equal(sample_points(mats, 8, skip=1), sample_points(mats, 8))


def _batches(skip, stop):
    """The per-batch Halton points of attempt skip up to index stop, joined."""
    return np.concatenate([_halton(skip, start) for start in range(0, stop, HALTON_BATCH)])


def test_sample_points_match_scipy_halton():
    """The unit points of attempts 0-2 are scipy's unscrambled 2-d Halton
    points bit for bit over three 512-point batches, and so are the points
    sample_points keeps from them after scaling to the first box and
    filtering."""
    qmc = pytest.importorskip("scipy.stats").qmc
    mats = [np.array([[1, 0], [3, 1]])]  # cuts off part of the first box
    for skip in (0, 1, 2):
        engine = qmc.Halton(d=2, scramble=False)
        if skip:
            engine.fast_forward(skip * 65537)
        raw = np.concatenate([engine.random(512) for _ in range(3)])
        assert _batches(skip, len(raw)).tobytes() == raw.tobytes(), skip
        pts = qmc.scale(raw, [-0.5, SAMPLE_BAND[0]], [0.5, SAMPLE_BAND[1]])
        z = pts[:, 0] + 1j * pts[:, 1]
        z = z[_feasible(z, mats, IMAG_FLOOR)]
        assert len(z) > 1024  # the third batch is reached
        assert sample_points(mats, len(z), skip=skip).tobytes() == z.tobytes(), skip


@lru_cache(maxsize=None)
def _halton_table(skip):
    """The HALTON_POINTS points of attempt skip, built from the whole index
    range at once (read-only)."""
    index = np.arange(skip * HALTON_STRIDE, skip * HALTON_STRIDE + HALTON_POINTS)
    table = np.column_stack([_radical_inverse(index, 2), _radical_inverse(index, 3)])
    table.flags.writeable = False
    return table


@pytest.mark.parametrize("skip", [0, 3])
def test_halton_table_matches_a_one_shot_build(skip):
    """The batches, built one at a time, are over all HALTON_POINTS rows the
    table built from the whole index range at once, bit for bit, and each
    is read-only."""
    assert _batches(skip, HALTON_POINTS).tobytes() == _halton_table(skip).tobytes()
    assert not _halton(skip, HALTON_POINTS - HALTON_BATCH).flags.writeable


def reference_sample_points(mats, count, skip=0):
    """The whole-table scan sample_points replaced: every box the floors
    allow, in HALTON_BATCH batches of the one-shot table, with no disc test."""
    band_lo, band_hi = SAMPLE_BAND
    y_floor = IMAG_FLOOR
    for A in mats:
        (a, b), (c, d) = A
        if c == 0:
            y_floor = max(y_floor, IMAG_FLOOR * int(d) ** 2 / (int(a) * int(d)))
    unit = _halton_table(skip)
    for y_lo in (max(band_lo, y_floor), y_floor):
        if y_lo >= band_hi:
            continue
        lo, hi = np.array([-0.5, y_lo]), np.array([0.5, band_hi])
        found, total = [], 0
        for start in range(0, HALTON_POINTS, HALTON_BATCH):
            pts = lo + unit[start:start + HALTON_BATCH] * (hi - lo)
            z = pts[:, 0] + 1j * pts[:, 1]
            z = z[_feasible(z, mats, IMAG_FLOOR)]
            found.append(z)
            total += len(z)
            if total >= count:
                return np.concatenate(found)[:count]
    raise SamplingError("no feasible sample region")


def _det(A):
    return int(A[0, 0]) * int(A[1, 1]) - int(A[0, 1]) * int(A[1, 0])


# integer terms of positive determinant; c up to 400 spans discs wider than
# the strip down to ones narrower than a batch's spacing
_terms = st.lists(
    st.builds(lambda a, b, c, d: np.array([[a, b], [c, d]], dtype=np.int64),
              st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 400), st.integers(-400, 400),
              ).filter(lambda A: _det(A) > 0),
    min_size=1, max_size=4,
)


@settings(max_examples=200)
@given(_terms, st.integers(1, 24), st.integers(0, 2))
def test_sample_points_match_the_whole_table_scan(mats, count, skip):
    """The disc tests and the per-batch build change no point: sample_points
    returns the reference scan's bytes, or both refuse."""
    try:
        want = reference_sample_points(mats, count, skip).tobytes()
    except SamplingError:
        with pytest.raises(SamplingError, match="^no feasible sample region"):
            sample_points(mats, count, skip)
    else:
        assert sample_points(mats, count, skip).tobytes() == want


def test_sample_points_infeasible():
    # contradictory translation constraints: c = 0 matrices forcing y above
    # the ceiling
    huge = np.array([[1, 0], [0, 10**6]])
    with pytest.raises(SamplingError):
        sample_points([huge], 4)


@pytest.fixture
def count_feasible(monkeypatch):
    """The number of _feasible calls so far, as calls[0]."""
    from hecke_lab import operators

    calls = [0]
    feasible = operators._feasible

    def counted(*args):
        calls[0] += 1
        return feasible(*args)

    monkeypatch.setattr(operators, "_feasible", counted)
    return calls


def test_unreachable_cusp_is_refused_at_once(count_feasible):
    """At N = 53 the Atkin-Lehner matrix is (0, 1; -53, 53): its disc of
    radius 1/(0.04 * 53) touches the real line at the cusp 1, farther than
    that from the strip, and no batch is read."""
    with pytest.raises(SamplingError, match="^no feasible sample region: the disc at cusp 1 "):
        sample_points([atkin_lehner_matrix(53, 1, 53)], 4)
    assert count_feasible == [0]


NON_POSITIVE = [[[0, 0], [0, 1]], [[1, 0], [0, -1]], [[1, 1], [1, 1]], [[1, 2], [1, 1]]]


@pytest.mark.parametrize("A", NON_POSITIVE)
def test_non_positive_determinant_is_refused_before_sampling(A, sp11, count_feasible):
    """det 0, -1, 0 and -1: refused as slash_evaluate refuses them, before
    any batch is read, directly and through op_matrix."""
    for call in (lambda: sample_points([np.array(A)], 4),
                 lambda: op_matrix(sp11, [(1.0, np.array(A))], label="bad")):
        with pytest.raises(ValueError, match="slash requires positive determinant"):
            call()
    assert count_feasible == [0]


def test_slash_identity(sp11):
    z = np.array([0.1 + 0.35j, 0.4j])
    ident = np.eye(2, dtype=np.int64)
    vals = slash_evaluate(sp11.basis, ident, z)
    assert vals.shape == (2, sp11.dim)
    assert np.allclose(vals, slash_evaluate(sp11.basis, 5 * ident, z))


def test_gamma0_automorphy(sp21):
    # f |_k gamma = chi(d) f for gamma in Gamma_0(N); chi(5) = -1 here
    from hecke_lab.qexp import evaluate_many

    gamma = np.array([[17, 4], [21, 5]])
    assert gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0] == 1
    z = np.array([-0.23 + 0.4j, -0.2 + 0.5j])
    lhs = slash_evaluate(sp21.basis, gamma, z)
    chi_d = complex(sp21.char.value_complex(5))
    assert abs(chi_d + 1) < 1e-12
    assert np.allclose(lhs, chi_d * evaluate_many(sp21.basis, z), atol=1e-9)


def test_w_square_is_scalar(sp21):
    W = op_W(sp21, 3)
    s = w_square_scalar(sp21, 3)
    dev = np.linalg.norm(W.matrix @ W.matrix - s * np.eye(sp21.dim))
    assert dev < 1e-9
    assert abs(abs(s) - 1) < 1e-12


def test_operators_at_a_prime_off_the_level_raise(sp21):
    # 5 does not divide the level 21
    for build in (op_W, w_square_scalar, op_Q, op_S):
        with pytest.raises(ValueError, match="does not divide the level 21"):
            build(sp21, 5)


def test_dual_route_shift(sp21):
    Us = op_U(sp21, 3, route="sampled")
    Uc = op_U(sp21, 3, route="coeff")
    assert np.linalg.norm(Us.matrix - Uc.matrix) < 1e-8
    assert not Us.poisoned and not Uc.poisoned


def test_coeff_shift_is_memoized_on_the_space():
    """A repeated coefficient-route U returns the same object, bit for bit a
    cold build on a freshly loaded copy, with a read-only matrix."""
    sp = load_space(fixture_dir() / "N21k3c13.json")
    U = op_U(sp, 3)
    assert op_U(sp, 3, route="coeff") is U and op_U(sp, 7) is not U
    cold = op_U(load_space(fixture_dir() / "N21k3c13.json"), 3)
    assert U.matrix.tobytes() == cold.matrix.tobytes()
    assert (U.residual, U.conditioning, U.poisoned, U.label) == \
        (cold.residual, cold.conditioning, cold.poisoned, cold.label)
    assert not U.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        U.matrix[0, 0] = 0


def test_involution_quadratic(sp11):
    Q = op_Q(sp11, 11)
    assert quad_ratio(Q, -1, 11) < 1e-6
    assert np.allclose(Q.matrix, [[-1.0]], atol=1e-9)


def test_conjugated_involution(sp21):
    Q = op_Q(sp21, 3)
    Qp = op_Qprime(sp21, 3)
    assert quad_ratio(Qp, -1, 3) < 1e-6
    # conjugate operators share their spectrum
    ev = sorted(np.linalg.eigvals(Q.matrix).real)
    evp = sorted(np.linalg.eigvals(Qp.matrix).real)
    assert np.allclose(ev, evp, atol=1e-8)


def test_survey_operator(sp16):
    S = op_S(sp16, 2)
    Sp = op_Sprime(sp16, 2)
    assert quad_ratio(S, 0, 2) < 1e-6
    assert quad_ratio(Sp, 0, 2) < 1e-6
    assert S.label == "S[16,3]"


def _synthetic_doc(level, weight, conrey, rows=1):
    """A fixture document: the form q + O(q^64) when rows = 1."""
    basis = [[1] + [0] * 63] * rows
    return {
        "level": level, "weight": weight, "precision": 64, "basis": basis,
        "character": {"modulus": level, "conrey": conrey},
    }


def _synthetic_space(level, weight, conrey, rows=1):
    """A space read from a dict (_synthetic_doc)."""
    return load_space(_synthetic_doc(level, weight, conrey, rows))


@pytest.fixture
def no_sampling(monkeypatch):
    """sample_points fails: for tests that must decide before any sampling."""
    from hecke_lab import operators

    def refuse(*args, **kwargs):
        raise AssertionError("sampled where no sample point is needed")

    monkeypatch.setattr(operators, "sample_points", refuse)


def test_w_conjugate_checks_the_flipped_space_first(no_sampling):
    """Conrey 8 mod 27 is non-real and imprimitive (conductor 9), so S' at 3
    passes through the space whose character has its 3-factor inverted.
    Each wrong flipped_space is refused before any operator is sampled."""
    sp = _synthetic_space(27, 3, 8)
    chi = sp.char
    assert sp.dim == 1 and chi.components[3].conductor_exponent == 2
    assert chi.flip_at(3) != chi and chi.flip_at(3).conrey_index() == 17
    with pytest.raises(ValueError, match="flipped_space is required"):
        op_Sprime(sp, 3)
    with pytest.raises(ValueError, match="mismatched level"):
        op_Sprime(sp, 3, flipped_space=_synthetic_space(54, 3, 1, rows=0))
    with pytest.raises(ValueError, match="wrong character"):
        op_Sprime(sp, 3, flipped_space=sp)
    assert not sp._op_memo


def test_characterize_passes_the_twin_through(no_sampling):
    """Conrey 8 and 17 mod 27 are each other's flip at 3.  With the twin,
    every W-conjugate reaches it; without, S' refuses as op_Sprime does."""
    sp, twin = _synthetic_space(27, 3, 8, rows=0), _synthetic_space(27, 3, 17, rows=0)
    lower = _synthetic_space(9, 3, 8, rows=0)
    assert sp.char.flip_at(3) == twin.char
    res = characterize(sp, twin)
    assert [op.label for op in res.ops] == ["S[27,2]", "S'[27,2]"]
    assert (res.dim, res.new_dim, res.expected_new) == (0, 0, 1)
    assert placement_checks(sp, 3, lower, twin) == []
    with pytest.raises(ValueError, match="flipped_space is required"):
        characterize(sp)
    with pytest.raises(ValueError, match="flipped_space is required"):
        placement_checks(sp, 3, lower)


def _twin_directory(base, name_twin=True):
    """Two families over the Conrey 8 / 17 mod 27 pair, each naming the
    other as its twin when name_twin is set."""
    pair = {"N27k3c8": 8, "N27k3c17": 17}
    for stem, conrey in pair.items():
        (base / f"{stem}.json").write_text(json.dumps(_synthetic_doc(27, 3, conrey, rows=0)))
    families = [
        {"name": f"c{conrey}", "kind": "c", "space": stem, "lower": {}, "expected_new": 1}
        for stem, conrey in pair.items()
    ]
    if name_twin:
        families[0]["flipped"], families[1]["flipped"] = "N27k3c17", "N27k3c8"
    (base / "families.json").write_text(json.dumps({"families": families}))
    return base


def test_load_families_shares_the_named_twin(tmp_path, monkeypatch, no_sampling):
    from hecke_lab import spaces

    loaded = []
    load = spaces.load_space
    monkeypatch.setattr(spaces, "load_space", lambda path: loaded.append(path.stem) or load(path))
    c8, c17 = spaces.load_families(_twin_directory(tmp_path))
    assert sorted(loaded) == ["N27k3c17", "N27k3c8"]
    assert c8["flipped"] is c17["space"] and c17["flipped"] is c8["space"]
    assert all(fam["flipped"] is None for fam in spaces.load_families())
    # the campaign hands each family its twin: S' is built for both, not refused
    rep = run_verify(Campaign(fixture_dirs=[str(tmp_path)]))
    assert {a.id for a in rep.assertions} >= {
        "classical.c8.S'[27,2].quad", "classical.c17.S'[27,2].quad",
    }


@pytest.mark.parametrize("name_twin", [True, False])
def test_classical_cli_passes_the_named_twin(tmp_path, no_sampling, name_twin):
    """Without the twin the run stops on the refusal (exit 2).  With it S'
    is built and passes, and characterize runs to its verdict: the empty
    fixtures miss the oracle's new dimension 1 (exit 1)."""
    report = tmp_path / "out.json"
    cmd = ["classical", "--fixture", str(_twin_directory(tmp_path, name_twin))]
    assert main([*cmd, "--report", str(report)]) == (1 if name_twin else 2)
    if name_twin:
        status = {a["id"]: a["status"] for a in json.loads(report.read_text())["assertions"]}
        assert status["classical.c8.S'[27,2].quad"] == status["classical.c17.S'[27,2].quad"] == "pass"
        assert status["classical.c8.newdim"] == status["classical.c17.newdim"] == "fail"


def test_survey_terms_are_one_per_right_coset():
    """For every N < 2000, every p^n || N with n >= 2 and 0 <= r <= n - 1
    (the trivial character admits every r): survey_terms gives matrices of
    determinant 1 with d a unit mod N and pairwise distinct ratios c d^(-1)
    mod N, so no two share a right coset of Gamma_0(N).  At r >= 1 there
    are p^(n-r) of them, each in Gamma_0(L) with L = N / p^(n-r): one per
    right coset of Gamma_0(N) in Gamma_0(L), a twisted trace.  At r = 0 the
    p^n terms cover only p^n of the p^(n-1) (p + 1) cosets of Gamma_0(N) in
    Gamma_0(N / p^n)."""
    traces = partial = 0
    for N in range(2, 2000):
        chi = DirChar.trivial(N)
        for p, n in _factorize(N):
            for r in range(n if n >= 2 else 0):
                terms = survey_terms(chi, p, r)
                ratios = set()
                for _, A in terms:
                    (a, b), (c, d) = A.tolist()
                    assert a * d - b * c == 1 and math.gcd(d, N) == 1, (N, p, r)
                    ratios.add(c * pow(d, -1, N) % N)
                assert len(ratios) == len(terms), (N, p, r)
                if r >= 1:
                    L = N // p ** (n - r)
                    assert len(terms) == p ** (n - r), (N, p, r)
                    assert all(A[1, 0] % L == 0 for _, A in terms), (N, p, r)
                    traces += 1
                else:
                    assert len(terms) == p**n < p ** (n - 1) * (p + 1), (N, p)
                    partial += 1
    assert (traces, partial) == (1512, 888)


def test_survey_and_shift_terms_are_data():
    """The terms need no space: survey_terms weights each matrix by
    conj(chi(d)) from the character alone (Conrey 13 mod 21, p = 3, r = 0,
    where chi(-4) = chi(-11) = -1), and U's shifts are (1, s; 0, p)."""
    chi = DirChar.from_conrey(21, 13)
    terms = survey_terms(chi, 3, 0)
    assert [A.tolist() for _, A in terms] == [
        [[1, 0], [0, 1]], [[5, -3], [7, -4]], [[5, -8], [7, -11]],
    ]
    assert [w for w, _ in terms] == [1.0, *(np.conj(slash_character(chi, A)) for _, A in terms[1:])]
    assert [w.real for w, _ in terms] == [1, -1, -1]
    assert [(w, A.tolist()) for w, A in shift_terms(3)] == [
        (1.0, [[1, s], [0, 3]]) for s in range(3)
    ]


def test_survey_rejects_bad_r(sp16):
    with pytest.raises(ValueError):
        op_S(sp16, 2, r=1)  # below the conductor exponent of the 2-part
    with pytest.raises(ValueError):
        op_S(sp16, 2, r=4)  # at or above n


SURVEY_REFUSALS = {
    ("N27k2c1", 3, 0): "the disc at cusp -26 misses the strip",
    ("N27k2c1", 3, 1): "the discs at cusps -8/3 and -2/9 are disjoint",
    ("N36k2c1", 2, 0): "the disc at cusp 23/9 misses the strip",
    ("N36k2c1", 3, 0): "the disc at cusp 11/4 misses the strip",
}


@pytest.mark.parametrize("name, p, r", list(SURVEY_REFUSALS))
def test_survey_below_top_level_finds_no_sample_points(name, p, r, count_feasible):
    # open case: the terms with j < n - 1 push the sample box toward cusps
    # whose feasibility disks miss the strip or each other, and the sampler
    # refuses before it reads a batch
    why = SURVEY_REFUSALS[name, p, r]
    with pytest.raises(SamplingError, match=f"^no feasible sample region: {why}$"):
        op_S(load_space(fixture_dir() / f"{name}.json"), p, r)
    assert count_feasible == [0]


def test_op_Q_requires_exact_divisor(sp16):
    with pytest.raises(ValueError):
        op_Q(sp16, 2)


def test_nullspace_stacked():
    A = np.vstack([np.diag([1.0, 0.0]), np.diag([0.0, 0.0])])
    basis, gap = nullspace(A)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1) < 1e-12
    assert gap > 1e6


def test_empty_space_matrix():
    sp = load_space(fixture_dir() / "N12k2c1.json")
    assert sp.dim == 0
    S = op_S(sp, 2, r=1)
    assert S.matrix.shape == (0, 0)
    assert quad_ratio(S, 0, 2) == 0.0


def test_op_matrix_residual_tracking(sp11):
    terms = [(1.0, np.eye(2, dtype=np.int64))]
    op = op_matrix(sp11, terms, label="id")
    assert np.allclose(op.matrix, np.eye(1))
    assert op.residual < 1e-10
    assert not op.poisoned


def _same_op(a, b):
    return (
        a.matrix.tobytes() == b.matrix.tobytes()
        and a.meta["points"].tobytes() == b.meta["points"].tobytes()
        and (a.residual, a.conditioning, a.poisoned, a.label)
        == (b.residual, b.conditioning, b.poisoned, b.label)
    )


def test_op_matrix_is_memoized_on_the_space():
    """A repeated W or S returns the same object, bit for bit a cold build on
    a freshly loaded copy, with read-only arrays; another codomain, term list
    or label builds anew."""
    sp = load_space(fixture_dir() / "N21k3c13.json")
    sp16 = load_space(fixture_dir() / "N16k3c7.json")
    W = op_W(sp, 3)
    S = op_S(sp16, 2)
    assert op_W(sp, 3) is W and op_S(sp16, 2) is S
    assert _same_op(W, op_W(load_space(fixture_dir() / "N21k3c13.json"), 3))
    assert _same_op(S, op_S(load_space(fixture_dir() / "N16k3c7.json"), 2))
    for op in (W, S):
        for arr in (op.matrix, op.meta["points"]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    A = atkin_lehner_matrix(3, 1, 21)
    assert op_matrix(sp, [(1.0, A)], label=W.label) is W
    assert op_matrix(sp, [(1 + 0j, A.astype(np.int32))], label=W.label) is W
    copy = load_space(fixture_dir() / "N21k3c13.json")
    misses = [
        op_W(sp, 3, codomain=copy),
        op_matrix(sp, [(2.0, A)], label=W.label),
        op_matrix(sp, [(1.0, A), (1.0, np.eye(2, dtype=np.int64))], label=W.label),
        op_matrix(sp, [(1.0, atkin_lehner_matrix(7, 1, 21))], label=W.label),
        op_matrix(sp, [(1.0, A)], label="W[3] again"),
    ]
    assert all(op is not W for op in misses)
    assert len({id(op) for op in misses}) == len(misses)
    assert _same_op(misses[0], W)  # the same operator into an equal space
    assert np.allclose(misses[1].matrix, 2 * W.matrix, atol=1e-9)


def test_classical_suite_builds_each_operator_once(monkeypatch):
    """The classical suite over the shipped families asks for 160 operator
    matrices, 42 of them distinct; each distinct one is sampled and solved
    once (one first sampling attempt per build).  The coefficient route of
    op_U is built once for each of its 18 (space, p).  Each build is one
    least-squares solve, and the placement checks make 11 more (one per
    block of embeddings, dilations and images into a nonzero space).  The
    sampled builds pass 40,448 points (79 batches) to _feasible and use
    197: the whole-table scan passed 81,408 (159 batches) for the same 197."""
    from hecke_lab import operators, spaces
    from hecke_lab.campaign import Campaign, run_verify

    op_matrix_, sample_points_ = operators.op_matrix, operators.sample_points
    build_op_U_coeff_ = operators._build_op_U_coeff
    build_op_matrix_ = operators._build_op_matrix
    least_squares_ = spaces.least_squares
    calls, distinct, builds, coeff_builds, solves, sampled = [], set(), [], [], [], []

    def counted_op_matrix(space, terms, label="", codomain=None):
        target = codomain if codomain is not None else space
        calls.append(label)
        distinct.add((id(space), id(target), label, tuple(
            (complex(c), np.asarray(A, dtype=np.int64).tobytes()) for c, A in terms)))
        return op_matrix_(space, terms, label, codomain)

    def counted_sample_points(mats, count, skip=0):
        if skip == 0:
            builds.append(mats)
        return sample_points_(mats, count, skip)

    def counted_build_op_matrix(space, terms, label, target):
        sampled.append(build_op_matrix_(space, terms, label, target))
        return sampled[-1]

    def counted_build_op_U_coeff(space, p):
        coeff_builds.append((id(space), p))
        return build_op_U_coeff_(space, p)

    def counted_least_squares(A, B):
        solves.append(B.shape)
        return least_squares_(A, B)

    monkeypatch.setattr(operators, "op_matrix", counted_op_matrix)
    monkeypatch.setattr(operators, "sample_points", counted_sample_points)
    monkeypatch.setattr(operators, "_build_op_U_coeff", counted_build_op_U_coeff)
    monkeypatch.setattr(operators, "_build_op_matrix", counted_build_op_matrix)
    monkeypatch.setattr(operators, "least_squares", counted_least_squares)
    monkeypatch.setattr(spaces, "least_squares", counted_least_squares)
    rep = run_verify(Campaign(fixture_dirs=[str(fixture_dir())]))
    assert rep.n_fail == 0
    assert (len(calls), len(distinct), len(builds)) == (160, 42, 42)
    assert (len(coeff_builds), len(set(coeff_builds))) == (18, 18)
    assert len(solves) == 42 + 18 + 11 and all(cols > 0 for _, cols in solves)
    assert sum(op.meta["examined"] for op in sampled) == 40448
    assert sum(op.meta["kept"] for op in sampled) == 197


def test_conditioning_is_the_solved_matrix_condition_number():
    """Both routes read the condition number off the singular values of
    their one least-squares solve: it is np.linalg.cond of the matrix
    solved against (the sampled basis values, the truncated coefficients),
    and a zero singular value makes it inf, without a warning."""
    sp = load_space(fixture_dir() / "N22k2c1.json")
    for op in (op_U(sp, 2, route="sampled"), op_W(sp, 11)):
        V = evaluate_many(sp.basis, op.meta["points"])
        assert op.conditioning == pytest.approx(np.linalg.cond(V), rel=1e-12)
    A = sp.coeffs[:, : sp.prec // 2].T
    assert op_U(sp, 2).conditioning == pytest.approx(np.linalg.cond(A), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sv in ([3.0, 0.0], [0.0, 0.0]):
            op = _solved(np.zeros((2, 2)), 0.0, np.array(sv), "X")
            assert op.conditioning == np.linalg.cond(np.diag(sv)) == math.inf and op.poisoned
