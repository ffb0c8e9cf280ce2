import numpy as np
import pytest

from hecke_lab.characters import DirChar
from hecke_lab.newspace import characterize, placement_checks, qualifying_primes
from hecke_lab.operators import op_Q, op_Qprime, op_S, op_Sprime
from hecke_lab.qexp import op_Vp
from hecke_lab.spaces import fixture_dir, load_space
from hecke_lab.spectra import u_eigenvalue


def test_qualifying_primes_squarefree():
    chi = DirChar.trivial(30)
    quals = qualifying_primes(30, chi)
    assert [(q.p, q.n, q.r) for q in quals] == [(2, 1, 0), (3, 1, 0), (5, 1, 0)]
    assert all(q.builders == (op_Q, op_Qprime) for q in quals)
    # the local data at each p is read from the character's p-component
    with pytest.raises(ValueError, match="modulus must equal the level"):
        qualifying_primes(30, DirChar.from_conrey(7, 3).at_modulus(14))


def test_qualifying_primes_character_blocks():
    # primitive local factor at 7 disqualifies that prime
    chi = DirChar.from_conrey(21, 13)
    assert [(q.p, q.n, q.r) for q in qualifying_primes(21, chi)] == [(3, 1, 0)]
    # conductor 8 inside modulus 16: imprimitive, survey operator applies
    chi16 = DirChar.from_conrey(16, 7)
    [q] = qualifying_primes(16, chi16)
    assert (q.p, q.n, q.r, q.builders) == (2, 4, 3, (op_S, op_Sprime))
    # primitive at full level: nothing qualifies
    chi7 = DirChar.from_conrey(7, 6)
    assert qualifying_primes(7, chi7) == []


def test_characterize_oldspace_only():
    sp = load_space(fixture_dir() / "N22k2c1.json")
    res = characterize(sp)
    assert (res.dim, res.new_dim, res.expected_new) == (2, 0, 0)
    assert res.gap >= 1e3
    assert res.basis.shape == (2, 0)


def test_characterize_mixed_space():
    sp = load_space(fixture_dir() / "N21k3c13.json")
    res = characterize(sp)
    assert (res.dim, res.new_dim, res.expected_new) == (4, 2, 2)
    assert res.gap >= 1e3
    # the joint eigenspace is honest: each operator fixes it with eigenvalue -1,
    # and p occurs dim S_3(7, chi) = 1 times
    for rep in res.ops:
        assert rep.quad <= 1e-6
        assert rep.eig_dist <= 1e-6
        assert rep.expected_old == 1 and abs(rep.old_mult - 1) <= 1e-6


def test_characterize_no_qualifying_primes():
    sp = load_space(fixture_dir() / "N7k3c6.json")
    res = characterize(sp)
    assert res.new_dim == res.dim == res.expected_new == 1
    assert res.ops == []


def test_placement_requires_matching_level():
    sp = load_space(fixture_dir() / "N22k2c1.json")
    lower = load_space(fixture_dir() / "N7k3c6.json")
    with pytest.raises(ValueError):
        placement_checks(sp, 2, lower)


def test_placement_requires_a_qualifying_prime():
    # 7 exactly divides 21, but the character is primitive there
    sp = load_space(fixture_dir() / "N21k3c13.json")
    lower = load_space(fixture_dir() / "N7k3c6.json")
    for p in (7, 5):
        with pytest.raises(ValueError, match="no characterizing operator"):
            placement_checks(sp, p, lower)


def test_placement_dilation_images():
    sp = load_space(fixture_dir() / "N16k3c7.json")
    lower = load_space(fixture_dir() / "N8k3c3.json")
    checks = placement_checks(sp, 2, lower)
    assert len(checks) == 6
    assert all(c.ok for c in checks), [(c.name, c.residual) for c in checks]


def test_placement_survey_images_vanish_into_lower():
    # all-new space: survey images must be (numerically) zero, which lies in
    # any span including the zero-dimensional one
    sp = load_space(fixture_dir() / "N27k2c1.json")
    lower = load_space(fixture_dir() / "N9k2c1.json")
    assert lower.dim == 0
    checks = placement_checks(sp, 3, lower)
    assert all(c.ok for c in checks)


def _placement_reference(space, p, lower, flipped):
    """placement_checks one form at a time, each coordinate vector from its
    own np.linalg.lstsq call: (name, residual, ok) triples."""

    def coords(target, vec, scale):
        b = vec[: min(target.prec, len(vec))]
        if target.dim == 0:
            return np.zeros(0), float(np.linalg.norm(b)) / scale
        A = target.coeffs[:, : len(b)].T
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        return x, float(np.linalg.norm(A @ x - b)) / scale

    def eig(mat, x, lam):
        nx = float(np.linalg.norm(x))
        return float(np.linalg.norm(mat @ x - lam * x)) / nx if nx else 0.0

    q = next(q for q in qualifying_primes(space.level, space.char) if q.p == p)
    main, conj = (q.operator(which, space, flipped) for which in (0, 1))
    old, out = q.roots[1], []
    for i, g in enumerate(lower.basis):
        x, emb = coords(space, g.coeffs, float(np.linalg.norm(g.coeffs)))
        vg = op_Vp(g, p).coeffs
        xv, emb_v = coords(space, vg, float(np.linalg.norm(vg)))
        out += [
            (f"embed[{i}]", emb),
            (f"{main.label} embed[{i}] eig {p}", eig(main.matrix, x, old)),
            (f"dilate[{i}]", emb_v),
            (f"{conj.label} dilate[{i}] eig {p}", eig(conj.matrix, xv, old)),
        ]
    if q.roots[0] == 0.0:
        for j in range(space.dim):
            vec = space.coeffs.T @ main.matrix[:, j]
            _, r = coords(lower, vec, float(np.linalg.norm(space.coeffs[j])))
            out.append((f"{main.label} image[{j}] in lower span", r))
    return [(name, r, r <= 1e-6) for name, r in out]


def test_placement_equals_the_per_form_reference(families):
    """The block solves of placement_checks give, on every shipped family
    and lower level, the checks that one solve per form gives: the same
    names and pass flags in the same order, and residuals (misfits already
    relative to their vector's norm) within 1e-12."""
    checked = 0
    for fam in families:
        sp = fam["space"]
        for level, lower in fam["lower"].items():
            for q in qualifying_primes(sp.level, sp.char):
                if sp.level // q.p != level:
                    continue
                got = placement_checks(sp, q.p, lower, fam["flipped"])
                want = _placement_reference(sp, q.p, lower, fam["flipped"])
                assert [(c.name, c.ok) for c in got] == [(n, ok) for n, _, ok in want]
                for c, (_, r, _) in zip(got, want):
                    assert type(c.residual) is float and abs(c.residual - r) <= 1e-12, c.name
                checked += len(got)
    assert checked >= 20


def test_spectra_are_the_exact_side_closed_forms(families):
    # the roots read from spectra's closed forms are the table they replaced,
    # as the floats the reports print
    exponents = set()
    for fam in families:
        sp = fam["space"]
        for q in qualifying_primes(sp.level, sp.char):
            lam = -1.0 if q.n == 1 else 0.0  # Q at n = 1, S above
            assert repr(q.roots) == repr((lam, float(q.p))), (fam["name"], q)
            exponents.add(min(q.n, 2))
    assert exponents == {1, 2}
    # at n = 1, U is -1 on w- and p on w+
    for p in (2, 3, 5, 7, 11):
        assert (u_eigenvalue("w-", p, 1), u_eigenvalue("w+", p, 1), u_eigenvalue("i1", p, 1)) == (
            -1, p, 0,
        )
