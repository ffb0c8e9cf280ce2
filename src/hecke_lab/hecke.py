"""The twisted double-coset convolution algebra on K0(p^n)\\GL2(Z/p^n)/K0(p^n).

Basis functions are chi-twisted indicators of supported double cosets: V_j on
the y(p^j) class (j = r, ..., n where r is the conductor exponent of chi) and,
for trivial chi only, U0 on the w class.  V_n is the indicator of K0(p^n)
itself and is the identity of the algebra.  Convolution is the finite coset
sum with K0(p^n) normalized to mass 1.

The structure constants on this basis are counts.  A y(p^j) class
representative a moves every coset with a factor k0 whose lower-right entry
is 1 mod p^j (the lemma in _checked_transport), and j >= r on the supported
basis, so every term of the coset sum is chi(1) = 1; on the w class chi is
trivial.  The algebra therefore runs over Q: coefficients are Fractions and
the integer constants are shared by every character of a cell, and the
relation audit on them by every character of one conductor exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, _vp_array
from .cosets import (
    _BLOCK_ELEMENTS,
    K0_ENUMERATION_LIMIT,
    MatPn,
    _left_transport,
    all_labels,
    class_left_reps,
    coset_table,
    k0_order,
    label_rep,
    label_stratum,
    require_enumerable,
    stratum_label,
    stratum_of,
)
from .groupconv import BRUTE_LIMIT, cross_check_structure
from .report import Assertion, Report, check, check_bool, timed


class AlgebraError(ValueError):
    pass


def is_supported(g: MatPn, chi: PChar) -> bool:
    """Does the chi-twisted indicator extend to the double coset of g?

    The criterion: chi(g k g^{-1}) = chi(k) for every k in
    K_g = g^{-1} K0 g  intersect  K0.  Checked by definition, walking all of
    K_g, on every cell with p^n <= 128 (the cells the K0 enumeration guard
    admits); through the closed-form parametrization of K_g above that.
    """
    p, n = g.p, g.n
    if stratum_of(g) == n:
        return True  # g in K0: g k g^{-1} and k share their lower-right entry
    if k0_order(p, n) <= K0_ENUMERATION_LIMIT:
        return _supported_by_definition(g, chi)
    return _supported_by_closed_form(g, chi)


@cell_cache
def _Kg_twist_pairs(g: MatPn) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (d_k, d_{g k g^-1}) over k in K_g: the lower-right
    entries the twist reads on both sides, at most p^{2n} of them.

    Every k = (a, b; 0, d) of K0(p^n) is walked, but only the lower row of
    g k g^-1 is computed, the two entries the criterion reads.  With
    g^-1 = (a', b'; c', d') that row is
        (g_c a a' + (g_c b + g_d d) c',  g_c a b' + (g_c b + g_d d) d'),
    linear forms in (a, b, d).  Their (a, b) planes are built once; d is
    walked in blocks of at most _BLOCK_ELEMENTS elements, and k lies in K_g
    exactly when the lower-left entry vanishes.  cosets.Kg_blocks is the
    full-matrix reference."""
    p, n, pn = g.p, g.n, g.pn
    require_enumerable(p, n, n)
    gi = g.inv()
    units = np.flatnonzero(np.arange(pn) % p)
    a, b = units[:, None], np.arange(pn)[None, :]
    c_plane = ((g.c * gi.a * a + g.c * gi.c * b) % pn).ravel()
    d_plane = ((g.c * gi.b * a + g.c * gi.d * b) % pn).ravel()
    seen = np.zeros(pn * pn, dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // len(c_plane))
    for lo in range(0, len(units), step):
        d = units[lo : lo + step]
        rows, cols = np.nonzero((c_plane + g.d * gi.c * d[:, None]) % pn == 0)
        d = d[rows]
        seen[d * pn + (d_plane[cols] + g.d * gi.d * d) % pn] = True
    pairs = np.flatnonzero(seen)
    return pairs // pn, pairs % pn


def _supported_by_definition(g: MatPn, chi: PChar) -> bool:
    d, d_conj = _Kg_twist_pairs(g)
    vexp = chi.exponent_table()
    return bool(np.all(vexp[d_conj] == vexp[d]))


def _supported_by_closed_form(g: MatPn, chi: PChar) -> bool:
    """K_g as parametrized in cosets.Kg_condition_closed_form (g a standard
    rep): the lower-right entry of g k g^{-1} is d + p^m b for g = y(p^m),
    and the diagonal entries trade places for g = w."""
    p, n = g.p, g.n
    pn = p**n
    m = stratum_of(g)
    vexp = chi.exponent_table()
    units = np.arange(pn)[np.arange(pn) % p != 0]
    if m == 0:
        return bool(np.all(vexp[units] == 0))
    b = np.arange(pn)
    shifted = (units[:, None] + p**m * b[None, :]) % pn
    return bool(np.all(vexp[shifted] == vexp[units][:, None]))


def supported_basis(p: int, n: int, chi: PChar) -> list[str]:
    """Labels of supported double cosets, in canonical order."""
    return all_labels(p, n)[chi.conductor_exponent :]


def basis_exponent(vexp: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Closed-form values of a basis function at elements of its double
    coset, as exponents of zeta in chi's value table vexp, from the entries
    of those elements that its twist reads.

    Writing g = k0 * rep(coset of g) puts the lower-right (for y classes) or
    lower-left (for the w class) entry of g into the chi slot; the caller
    passes the entry its class reads.
    """
    e = vexp[entries]
    if np.any(e < 0):
        raise AssertionError("twist evaluated at a non-unit entry")
    return e


class HeckeElem:
    """Element of the algebra: rational coefficients over supported labels."""

    __slots__ = ("p", "n", "chi", "coeffs")

    def __init__(self, p: int, n: int, chi: PChar, coeffs: dict[str, Fraction]):
        self.p = p
        self.n = n
        self.chi = chi
        allowed = set(supported_basis(p, n, chi))
        clean = {}
        for lab, c in coeffs.items():
            if lab not in allowed:
                raise AlgebraError(f"label {lab} is not supported for this character")
            if c:
                clean[lab] = Fraction(c)
        self.coeffs = clean

    # -- construction ------------------------------------------------------

    @classmethod
    def basis(cls, p: int, n: int, chi: PChar, lab: str) -> "HeckeElem":
        return cls(p, n, chi, {lab: 1})

    @classmethod
    def identity(cls, p: int, n: int, chi: PChar) -> "HeckeElem":
        return cls.basis(p, n, chi, f"y{n}")

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "HeckeElem"):
        if (self.p, self.n) != (other.p, other.n) or self.chi != other.chi:
            raise AlgebraError("mismatched algebra parameters")

    def __add__(self, other: "HeckeElem") -> "HeckeElem":
        self._require_same(other)
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] = out[lab] + c if lab in out else c
        return HeckeElem(self.p, self.n, self.chi, out)

    def __sub__(self, other: "HeckeElem") -> "HeckeElem":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HeckeElem":
        if isinstance(scalar, (int, Fraction)):
            return HeckeElem(
                self.p, self.n, self.chi, {lab: c * scalar for lab, c in self.coeffs.items()}
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, HeckeElem):
            return convolve(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and self.chi == other.chi and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.n, self.chi, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "HeckeElem(0)"
        parts = [f"{c}*{lab}" for lab, c in sorted(self.coeffs.items())]
        return "HeckeElem(" + " + ".join(parts) + ")"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{lab}" for lab, c in sorted(self.coeffs.items()))


def y_element(p: int, n: int, chi: PChar, ell: int) -> HeckeElem:
    """Y_ell = sum of V_i over ell <= i <= n; requires max(r, 1) <= ell <= n
    (the v_p(c) = 0 stratum is the w class, never part of a Y)."""
    r = max(chi.conductor_exponent, 1)
    if not r <= ell <= n:
        raise AlgebraError(f"Y_{ell} undefined: need {r} <= ell <= {n}")
    return HeckeElem(p, n, chi, {lab: 1 for lab in all_labels(p, n)[ell:]})


@cell_cache
def _basis_product_cached(p: int, n: int, lab1: str, lab2: str) -> tuple:
    return tuple(sorted(_basis_product(p, n, lab1, lab2).items()))


def _checked_transport(p: int, n: int, lab: str) -> np.ndarray:
    """The coset map cls of lab's transport table (cosets._left_transport),
    after checking on its factors d0 that every twist chi(d0) is 1 for each
    character that supports lab: d0 is 1 mod p^j on a y(p^j) class, by the
    lemma below, and a unit on the w class, which only the trivial
    character supports.  A failure raises AlgebraError.

    Lemma.  For lab = y(p^j), every d0 in the table is 1 mod p^j.
    Proof.  For j = n the only representative is a = I, so k0 = I.  For
    j < n, a = (s, 0; p^j, 1) with s a unit, and
    a^{-1} = (s^-1, 0; -p^j s^-1, 1) = diag(s^-1, 1) y(u) with u = -p^j s^-1.
    As p | u, y(u) = (1, 0; u, 1) maps each coset representative exactly
    onto another: y(u) (0, -1; 1, d) = (0, -1; 1, d - u) and
    y(u) y(c) = y(c + u).  So a^{-1} rep_c = diag(s^-1, 1) rep_c' and
    d0 = 1.
    """
    cls, d0 = _left_transport(p, n)[lab]
    j = label_stratum(n, lab)
    # d0 is unsigned and its dtype holds p^n: these remainders cannot wrap
    if j == 0 and np.any(d0 % p == 0):
        raise AlgebraError("the w transport has a non-unit d0")
    if j and np.any(d0 % p**j != 1):
        raise AlgebraError(f"the {lab} transport has a d0 off 1 mod {p**j}: twists depend on chi")
    return cls


def _basis_product(p: int, n: int, lab1: str, lab2: str) -> dict[str, int]:
    """Structure constants of V_lab1 * V_lab2: its value at every double-coset
    representative h, by the right-coset sum over the class representatives
    a of lab1.

    Each a has twist 1, and a^{-1} h = k0 rep_c puts the lower-right entry d0
    of k0 into the twist slot of lab2 (for either kind of class), so the
    value at h is the sum of chi(d0) over the transport table's rows whose
    coset c lies in lab2's class.  Every such term is 1 (_checked_transport),
    so the value at h is the count of those rows, the same for every
    character of the cell: which labels a given chi admits is left to
    HeckeElem's label check.
    """
    table = coset_table(p, n)
    cls = _checked_transport(p, n, lab1)
    in_lab2 = table.stratum == label_stratum(n, lab2)
    labels = all_labels(p, n)
    # the standard representative of each class is its own coset's rep
    c_h = [table.position_of(label_rep(p, n, lab)) for lab in labels]
    counts = np.count_nonzero(in_lab2[cls[:, c_h]], axis=0)
    return {lab: int(c) for lab, c in zip(labels, counts) if c}


def convolve(f1: HeckeElem, f2: HeckeElem) -> HeckeElem:
    """Exact convolution via cached basis products; bilinear."""
    f1._require_same(f2)
    acc: dict[str, Fraction] = {}
    for l1, c1 in f1.coeffs.items():
        for l2, c2 in f2.coeffs.items():
            for lab, count in _basis_product_cached(f1.p, f1.n, l1, l2):
                acc[lab] = acc.get(lab, 0) + c1 * c2 * count
    return HeckeElem(f1.p, f1.n, f1.chi, acc)


@cell_cache
def _mirror_geometry(p: int, n: int, lab_h: str, l2: str) -> dict[str, tuple]:
    """The character-free part of the mirrored sum at the target of `lab_h`
    over the left-coset representatives b of l2's class: b's twist entry,
    and the twist entry of x = h b^{-1}, grouped by the label of x in the
    order the labels first occur.  A twist entry is the lower-left entry
    for the w class and the lower-right one otherwise.  Built once per cell
    as one MatArray product; x's label is v_p of its lower-left entry
    capped at n (0 for w), as d is a unit whenever p | c."""
    b = class_left_reps(p, n, l2)
    x = label_rep(p, n, lab_h) @ b.inv()
    e_b = b.d if label_stratum(n, l2) else b.c
    v_x = _vp_array(x.c, p, n)
    _, first = np.unique(v_x, return_index=True)
    out = {}
    for v in v_x[np.sort(first)]:
        rows = v_x == v
        out[stratum_label(v)] = (e_b[rows], (x.d if v else x.c)[rows])
    return out


def convolve_mirrored(f1: HeckeElem, f2: HeckeElem) -> HeckeElem:
    """Same convolution through the mirrored sum over left-coset
    representatives of the support of f2; used as a consistency check.

    The matrix work, which reads no character, is done once per cell in
    `_mirror_geometry`.  Roots of unity do cancel here: terms are
    accumulated as one exponent histogram per pair of basis labels (l2,
    label of h b^{-1}), and each histogram must collapse to a rational
    (ValueError otherwise)."""
    f1._require_same(f2)
    p, n, chi = f1.p, f1.n, f1.chi
    vexp, field = chi.exponent_table(), chi.field
    out: dict[str, Fraction] = {}
    for lab_h in all_labels(p, n):
        total = Fraction(0)
        for l2, c2 in f2.coeffs.items():
            for lab_x, (e_b, e_x) in _mirror_geometry(p, n, lab_h, l2).items():
                if lab_x not in f1.coeffs:
                    continue
                te = (basis_exponent(vexp, e_x) + basis_exponent(vexp, e_b)) % field.order
                hist = np.bincount(te, minlength=field.order)
                total += f1.coeffs[lab_x] * c2 * field.rational_from_counts(hist)
        if total:
            out[lab_h] = total
    return HeckeElem(p, n, chi, out)


# ---------------------------------------------------------------------------
# Structure table
# ---------------------------------------------------------------------------


@dataclass
class StructTable:
    p: int
    n: int
    char_spec: dict
    labels: list[str]
    constants: dict  # (lab_i, lab_j) -> {lab_k: Fraction}

    def is_commutative(self) -> bool:
        for li in self.labels:
            for lj in self.labels:
                if self.constants[(li, lj)] != self.constants[(lj, li)]:
                    return False
        return True


def structure_table(p: int, n: int, chi: PChar) -> StructTable:
    """Structure constants over the supported basis, each product through
    convolve and so through HeckeElem's label check."""
    char_spec = {"modulus": p**n, "conrey": chi.conrey_index()}
    labels = supported_basis(p, n, chi)
    basis = {lab: HeckeElem.basis(p, n, chi, lab) for lab in labels}
    constants = {
        (li, lj): convolve(basis[li], basis[lj]).coeffs for li in labels for lj in labels
    }
    return StructTable(p=p, n=n, char_spec=char_spec, labels=labels, constants=constants)


# ---------------------------------------------------------------------------
# Relation audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Conductor:
    """Stands for every character of conductor exponent r in HeckeElem
    arithmetic: labels and structure constants read chi only through r
    (supported_basis), and anything that reads chi's values fails on it."""

    conductor_exponent: int


@cell_cache
def _relation_verdicts(p: int, n: int, r: int) -> tuple[tuple[Assertion, ...], tuple[Assertion, ...]]:
    """Every algebra identity for conductor exponent r, by exact convolution
    on the count constants: (axioms, identities), with ids relative to a
    character's tag.  The axioms are the dimension, the identity element and
    commutativity; the identities are the closed-form relations.  They read
    nothing of chi beyond r, so they are computed once per (p, n, r)."""
    chi = _Conductor(r)
    basis = supported_basis(p, n, chi)
    axioms, rels = Report(), Report()

    def B(lab):
        return HeckeElem.basis(p, n, chi, lab)

    def Y(ell):
        return y_element(p, n, chi, ell)

    e = HeckeElem.identity(p, n, chi)

    expected_dim = (n - r + 1) if r > 0 else n + 1
    check(axioms, "dimension", expected_dim, len(basis), "formula")
    ok = all(convolve(e, B(l)) == B(l) and convolve(B(l), e) == B(l) for l in basis)
    check_bool(axioms, "identity", ok, "definition")
    sym = all(convolve(B(a), B(b)) == convolve(B(b), B(a)) for a in basis for b in basis)
    check_bool(axioms, "commutative", sym, "formula")

    lo = max(r, 1)
    # V_l * V_l and the quadratic consequence
    for ell in range(lo, n):
        c = p ** (n - ell - 1)
        got = convolve(B(f"y{ell}"), B(f"y{ell}"))
        want = HeckeElem(
            p, n, chi,
            {f"y{i}": c * (p - 1) for i in range(ell + 1, n + 1)} | {f"y{ell}": c * (p - 2)},
        )
        check(rels, f"Vsquare.l{ell}", want.pretty(), got.pretty(), "formula")
        lhs = convolve(B(f"y{ell}") - c * (p - 1) * e, B(f"y{ell}") + Y(ell + 1))
        check_bool(rels, f"Vquadratic.l{ell}", lhs.is_zero(), "formula",
                   expected="0", computed=lhs.pretty())

    # V_l * V_j = p^{n-j-1}(p-1) V_l for l < j < n, both orders
    for ell in range(lo, n):
        for j in range(ell + 1, n):
            want = p ** (n - j - 1) * (p - 1) * B(f"y{ell}")
            got1 = convolve(B(f"y{ell}"), B(f"y{j}"))
            got2 = convolve(B(f"y{j}"), B(f"y{ell}"))
            check_bool(
                rels, f"Vmixed.l{ell}.j{j}", got1 == want and got2 == want, "formula",
                expected=want.pretty(), computed=f"{got1.pretty()} / {got2.pretty()}",
            )

    # Y_j * Y_l = p^{n-j} Y_l for max(r,1) <= l <= j <= n, both orders
    for ell in range(lo, n + 1):
        for j in range(ell, n + 1):
            want = p ** (n - j) * Y(ell)
            ok = convolve(Y(j), Y(ell)) == want and convolve(Y(ell), Y(j)) == want
            check_bool(rels, f"Yproduct.j{j}.l{ell}", ok, "formula", expected=want.pretty())

    # idempotents
    for ell in range(lo, n + 1):
        el = Fraction(1, p ** (n - ell)) * Y(ell)
        check_bool(rels, f"idempotent.l{ell}", convolve(el, el) == el, "formula")

    if r == 0:
        U = B("w")
        want = p ** (n - 1) * (p - 1) * U + p**n * Y(1)
        check(rels, "Usquare", want.pretty(), convolve(U, U).pretty(), "formula")
        for ell in range(1, n + 1):
            want = p ** (n - ell) * U
            ok = convolve(U, Y(ell)) == want and convolve(Y(ell), U) == want
            check_bool(rels, f"UY.l{ell}", ok, "formula", expected=want.pretty())
        cubic = convolve(convolve(U, U - p**n * e), U + p ** (n - 1) * e)
        check_bool(rels, "Ucubic", cubic.is_zero(), "formula", expected="0", computed=cubic.pretty())
        if n == 1:
            quad = convolve(U + e, U - p * e)
            check_bool(rels, "Uquadratic.n1", quad.is_zero(), "formula",
                       expected="0", computed=quad.pretty())

    return tuple(axioms.assertions), tuple(rels.assertions)


def verify_relations(p: int, n: int, chi: PChar) -> Report:
    """Audit every algebra identity by exact convolution, check the
    convolution against the mirrored sum, and on every cell with
    p^n <= groupconv.BRUTE_LIMIT compare each basis product against the
    brute-force whole-group convolution oracle.

    The identities come from the (p, n, r) verdicts; each such assertion's
    runtime is its share of the time this character spent getting them.
    The mirrored sum and the whole-group oracle read chi and run here.
    """
    rep = Report(meta={"p": p, "n": n, "conrey": chi.conrey_index(), "r": chi.conductor_exponent})
    tag = f"p{p}.n{n}.chi{chi.conrey_index()}"
    with timed() as t:
        axioms, identities = _relation_verdicts(p, n, chi.conductor_exponent)
    share = t.elapsed / (len(axioms) + len(identities))

    def record(assertions):
        rep.extend(replace(a, id=f"{tag}.{a.id}", runtime=share) for a in assertions)

    record(axioms)
    basis = supported_basis(p, n, chi)
    with timed() as t:
        ok = True
        detail = ""
        for a in basis:
            for b in basis:
                fa, fb = HeckeElem.basis(p, n, chi, a), HeckeElem.basis(p, n, chi, b)
                try:
                    mirrored = convolve_mirrored(fa, fb).coeffs
                except ValueError as exc:  # a non-rational collapse or a leak
                    ok = False
                    detail = f"mirror at {a}*{b}: {exc}"
                    continue
                if mirrored != dict(_basis_product_cached(p, n, a, b)):
                    ok = False
                    detail = f"mirror mismatch at {a}*{b}"
    check_bool(rep, f"{tag}.mirrored-convolution", ok, "oracle", t.elapsed, detail=detail)
    record(identities)

    if p**n <= BRUTE_LIMIT:
        cross_check_structure(rep, p, n, chi, tag)

    return rep
