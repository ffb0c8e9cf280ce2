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

The coset sum reads the transport table that cosets._left_transport writes
in closed form.  _checked_transport checks the lemma on it, and on every
cell with p^n <= groupconv.BRUTE_LIMIT rebuilds it by definition, through
CosetTable.decompose_rows on every product, and requires the two to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, _vp_array, unit_group
from .cosets import (
    _BLOCK_ELEMENTS,
    K0_ENUMERATION_LIMIT,
    MatPn,
    _left_transport,
    all_labels,
    class_left_reps,
    class_right_reps,
    coset_table,
    label_rep,
    label_stratum,
    stratum_of,
)
from .groupconv import BRUTE_LIMIT, cross_check_structure
from .report import Assertion, Report, character_tag, check, check_bool, timed


class AlgebraError(ValueError):
    pass


def is_supported(g: MatPn, chi: PChar) -> bool:
    """Does the chi-twisted indicator extend to the double coset of g?

    The criterion: chi(g k g^{-1}) = chi(k) for every k in
    K_g = g^{-1} K0 g  intersect  K0.  Checked by definition, on every pair
    of lower-right entries that K_g twists (_Kg_twist_ratios), on every cell
    whose p^{2n} pair table fits K0_ENUMERATION_LIMIT: p^n <= 1448, the
    whole large campaign among them; through the closed-form
    parametrization of K_g above that, (7, 4) and (13, 3) among them.
    """
    p, n = g.p, g.n
    if stratum_of(g) == n:
        return True  # g in K0: g k g^{-1} and k share their lower-right entry
    if _pair_table_fits(p, n):
        return _supported_by_definition(g, chi)
    return _supported_by_closed_form(g, chi)


def _pair_table_fits(p: int, n: int) -> bool:
    """The size guard of the K_g walk: its p^n x p^n pair table."""
    return p ** (2 * n) <= K0_ENUMERATION_LIMIT


@cell_cache
def _Kg_twist_ratios(g: MatPn) -> np.ndarray:
    """The distinct ratios d_{g k g^-1} / d_k over k in K_g of the units
    the twist reads on both sides, at most p^n of them.

    Only the lower row of g k g^-1 is computed, the two entries the
    criterion reads.  With g^-1 = (a', b'; c', d') and k = (a, b; 0, d) in
    K0(p^n) that row is
        (g_c a a' + g_c b c' + g_d d c',  g_c a b' + g_c b d' + g_d d d'),
    a plane in (a, b) plus a multiple of d in each entry, and k lies in K_g
    exactly when the lower-left entry vanishes.  So the walk is grouped by
    the lower-left residue: a p^n x p^n table, filled from the (a, b) planes
    in blocks of about _BLOCK_ELEMENTS / 2 elements, marks in row v the
    lower-right values w of the plane where its lower-left value is v.  Each
    unit d reads row -g_d c' d, and its conjugate entries w + g_d d' d must
    be units (AssertionError).  That is |units| p^n + p^{2n} steps.  Refused
    with ValueError, before anything is built, when the table exceeds
    K0_ENUMERATION_LIMIT entries.  cosets.Kg_blocks is the reference."""
    p, n, pn = g.p, g.n, g.pn
    if not _pair_table_fits(p, n):
        raise ValueError(
            f"the K_g pair table mod {p}^{n} has {pn * pn} entries; "
            f"the limit is {K0_ENUMERATION_LIMIT}"
        )
    gi = g.inv()
    units, inverse = unit_group(p, n).units, unit_group(p, n).inverse
    b = np.arange(pn)
    step = max(1, _BLOCK_ELEMENTS // pn // 2)  # the second pass holds 5 arrays a block
    table = np.zeros((pn, pn), dtype=bool)
    for lo in range(0, len(units), step):
        a = units[lo : lo + step, None]
        lower_left = (g.c * gi.a * a + g.c * gi.c * b) % pn
        table[lower_left, (g.c * gi.b * a + g.c * gi.d * b) % pn] = True
    seen = np.zeros(pn, dtype=bool)
    for lo in range(0, len(units), step):
        d = units[lo : lo + step]
        rows, w = np.nonzero(table[(-g.d * gi.c * d) % pn])
        d = d[rows]
        conj = (w + g.d * gi.d * d) % pn
        if np.any(conj % p == 0):
            raise AssertionError("twist evaluated at a non-unit entry")
        seen[conj * inverse[d] % pn] = True
    return np.flatnonzero(seen)


def _supported_by_definition(g: MatPn, chi: PChar) -> bool:
    return not chi.exponent_table()[_Kg_twist_ratios(g)].any()


def _supported_by_closed_form(g: MatPn, chi: PChar) -> bool:
    """K_g in closed form (g a standard rep): for g = y(p^m) with m < n,
    k = (a, b; c, d) in K0 lies in K_g iff a - d - p^m b = 0 mod p^{n-m},
    and then the lower-right entry of g k g^{-1} is d + p^m b; for g = w,
    K_g is b = 0 and the diagonal entries trade places.  The test suite
    checks the parametrization against the enumeration of K_g."""
    p, n = g.p, g.n
    pn = p**n
    m = stratum_of(g)
    vexp = chi.exponent_table()
    units = unit_group(p, n).units
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
    passes the entry its class reads, or a product of such entries.
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
        allowed = supported_basis(p, n, chi)
        clean = {}
        for lab, c in coeffs.items():
            if lab not in allowed:
                raise AlgebraError(f"label {lab} is not supported for this character")
            if c:
                clean[lab] = c if type(c) is Fraction else Fraction(c)
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
def _checked_transport(p: int, n: int, lab: str) -> np.ndarray:
    """The coset map cls of lab's transport table (cosets._left_transport),
    after checking on its factors d0 that every twist chi(d0) is 1 for each
    character that supports lab: d0 is 1 mod p^j on a y(p^j) class, by the
    lemma below, and a unit on the w class, which only the trivial
    character supports.  Then, on every cell with p^n <= BRUTE_LIMIT, the
    closed-form table must equal the definition: CosetTable.decompose_rows
    on every product a^{-1} rep_c, both cls and d0.  A failure raises
    AlgebraError naming lab, and is not cached; a passing table is checked
    once per (p, n, lab).

    Lemma.  For lab = y(p^j), every d0 in the table is 1 mod p^j.
    Proof.  For j = n the only representative is a = I, so k0 = I.  For
    j < n, a = (s, 0; p^j, 1) with s a unit, and
    a^{-1} = (s^-1, 0; -p^j s^-1, 1) = diag(s^-1, 1) y(u) with u = -p^j s^-1.
    As p | u, y(u) = (1, 0; u, 1) maps each coset representative exactly
    onto another: y(u) (0, -1; 1, d) = (0, -1; 1, d - u) and
    y(u) y(c) = y(c + u).  So a^{-1} rep_c = diag(s^-1, 1) rep_c' and
    d0 = 1.  These translations are the y rows of the closed form.
    """
    cls, d0 = _left_transport(p, n)[lab]
    j = label_stratum(n, lab)
    # d0 is unsigned and its dtype holds p^n: these remainders cannot wrap
    if j == 0 and np.any(d0 % p == 0):
        raise AlgebraError("the w transport has a non-unit d0")
    if j and np.any(d0 % p**j != 1):
        raise AlgebraError(f"the {lab} transport has a d0 off 1 mod {p**j}: twists depend on chi")
    if p**n <= BRUTE_LIMIT:
        table, ainv = coset_table(p, n), class_right_reps(p, n, lab).inv()
        # the lower row of every a^{-1} rep_c, all that decompose_rows reads
        rep, c, d = table.rep_array, ainv.c[:, None], ainv.d[:, None]
        want = table.decompose_rows(c * rep.a + d * rep.c, c * rep.b + d * rep.d)
        if not all(map(np.array_equal, (cls, d0), want)):
            raise AlgebraError(f"the {lab} transport differs from its decomposition")
    return cls


@cell_cache
def _basis_product_cached(p: int, n: int, lab1: str, lab2: str) -> tuple[tuple[str, int], ...]:
    """Structure constants of V_lab1 * V_lab2 as (label, count) pairs in
    label order: its value at every double-coset representative h, by the
    right-coset sum over the class representatives a of lab1.

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
    return tuple(sorted((lab, int(c)) for lab, c in zip(labels, counts) if c))


def convolve(f1: HeckeElem, f2: HeckeElem) -> HeckeElem:
    """Exact convolution via cached basis products; bilinear.  Integral
    coefficients multiply the integer counts as ints."""
    f1._require_same(f2)
    acc: dict[str, Fraction | int] = {}
    for l1, c1 in f1.coeffs.items():
        for l2, c2 in f2.coeffs.items():
            if c1.denominator == c2.denominator == 1:
                c = c1.numerator * c2.numerator
            else:
                c = c1 * c2
            for lab, count in _basis_product_cached(f1.p, f1.n, l1, l2):
                acc[lab] = acc.get(lab, 0) + c * count
    return HeckeElem(f1.p, f1.n, f1.chi, acc)


@cell_cache
def _mirror_geometry(p: int, n: int, l2: str) -> dict[str, tuple]:
    """The character-free part of the mirrored sum over the left-coset
    representatives b of l2's class: per label of x = h b^{-1}, the counts
    of the products of x's and b's twist entries, as (target index, unit,
    count) arrays.  A twist entry is the lower-left entry for the w class
    and the lower-right one otherwise.  One MatArray product per target;
    x's label is v_p of its lower-left entry capped at n (0 for w), as d is
    a unit whenever p | c."""
    pn, labels = p**n, all_labels(p, n)
    b = class_left_reps(p, n, l2)
    e_b, b_inv = (b.d if label_stratum(n, l2) else b.c), b.inv()
    codes = []
    for target, lab_h in enumerate(labels):
        x = label_rep(p, n, lab_h) @ b_inv
        v_x = _vp_array(x.c, p, n)
        codes.append((v_x * len(labels) + target) * pn + np.where(v_x, x.d, x.c) * e_b % pn)
    counts = np.bincount(np.concatenate(codes), minlength=len(labels) ** 2 * pn)
    counts = counts.reshape(len(labels), len(labels), pn)  # (label of x, target, unit)
    out = {}
    for v, lab_x in enumerate(labels):
        target, unit = np.nonzero(counts[v])
        if len(target):
            out[lab_x] = (target, unit, counts[v, target, unit])
    return out


def convolve_mirrored(f1: HeckeElem, f2: HeckeElem) -> HeckeElem:
    """Same convolution through the mirrored sum over left-coset
    representatives of the support of f2; used as a consistency check.

    The matrix work, which reads no character, is done once per cell in
    `_mirror_geometry`.  Roots of unity do cancel here: terms are
    accumulated as one exponent histogram per target and pair of basis
    labels (l2, label of h b^{-1}), and each histogram must collapse to a
    rational (ValueError otherwise)."""
    f1._require_same(f2)
    p, n, chi = f1.p, f1.n, f1.chi
    labels, m = all_labels(p, n), chi.field.order
    terms = [(f1.coeffs[lab_x] * c2, geo) for l2, c2 in f2.coeffs.items()
             for lab_x, geo in _mirror_geometry(p, n, l2).items() if lab_x in f1.coeffs]
    if not terms:
        return HeckeElem(p, n, chi, {})
    # one row per (target, term), target-major
    row = np.concatenate([target * len(terms) + i for i, (_, (target, _, _)) in enumerate(terms)])
    unit = np.concatenate([unit for _, (_, unit, _) in terms])
    count = np.concatenate([count for _, (_, _, count) in terms])
    hist = np.zeros(len(labels) * len(terms) * m, dtype=np.int64)
    np.add.at(hist, row * m + basis_exponent(chi.exponent_table(), unit), count)
    sums = chi.field.integers_from_counts(hist.reshape(-1, m)).reshape(len(labels), len(terms))
    out = {}
    for lab_h, at in zip(labels, sums.tolist()):
        total = sum(c * s for (c, _), s in zip(terms, at) if s)
        if total:
            out[lab_h] = total
    return HeckeElem(p, n, chi, out)


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

    The identities come from the (p, n, r) verdicts, replayed with their
    share of the time this character spent getting them.  The mirrored sum
    and the whole-group oracle read chi and run here, both against the
    coset route's products on chi's basis, built once.
    """
    rep = Report(meta={"p": p, "n": n, "conrey": chi.conrey_index(), "r": chi.conductor_exponent})
    tag = character_tag(chi)
    with timed() as t:
        axioms, identities = _relation_verdicts(p, n, chi.conductor_exponent)
    share = t.elapsed / (len(axioms) + len(identities))
    rep.replay(tag, axioms, share * len(axioms))
    basis = supported_basis(p, n, chi)
    with timed() as t:
        coset = {(a, b): dict(_basis_product_cached(p, n, a, b)) for a in basis for b in basis}
        ok = True
        detail = ""
        elems = {lab: HeckeElem.basis(p, n, chi, lab) for lab in basis}
        for (a, b), want in coset.items():
            try:
                mirrored = convolve_mirrored(elems[a], elems[b]).coeffs
            except ValueError as exc:  # a non-rational collapse or a leak
                ok = False
                detail = f"mirror at {a}*{b}: {exc}"
                continue
            if mirrored != want:
                ok = False
                detail = f"mirror mismatch at {a}*{b}"
    check_bool(rep, f"{tag}.mirrored-convolution", ok, "oracle", t.elapsed, detail=detail)
    rep.replay(tag, identities, share * len(identities))

    if p**n <= BRUTE_LIMIT:
        cross_check_structure(rep, chi, tag, coset)

    return rep
