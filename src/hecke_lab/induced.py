"""The induced representation I(n) = Ind_{K0}^{G} chi and its spectral data.

I(n) is realized on coordinate vectors indexed by the canonical coset
representatives of K0(p^n)\\GL2(Z/p^n) (dimension p^{n-1}(p+1)).  The
convolution action of one algebra basis element is a sum of one operator per
class representative: each reads every coordinate from one other coset and
multiplies it by the twist chi(d0) of the transport factor between them.

That twist is always 1 on the algebra's operators.  Every d0 is 1 mod p^j on
a y(p^j) class, and a unit on the w class, which is supported only by the
trivial chi; `_basis_operator` reads each transport table, written in closed
form by cosets._left_transport, through hecke._checked_transport, which holds
the lemma, checks both facts on the table and, on every cell with
p^n <= groupconv.BRUTE_LIMIT, checks the whole table against the
decomposition of every product (CosetTable.decompose_rows, which
`_right_transport` uses on every cell).  So an operator is a
permsum.PermSum over the transport table's coordinate map, in that table's
own compact dtype.  It acts by left convolution, so it commutes with right
translation, which moves any coset to any other: identities are proved, and
traces read, off one column (permsum._ColumnRoute, which checks both
premises).  Only the prime-field rank confirmation on small cells forms
(dim, dim) matrices, per call.  Every verdict is exact.

The basis operators and the Y_k are built once per cell (p, n).  The
eigenvalue tables and the component dimensions read chi only through its
conductor exponent r, so their verdicts (table images, projector
identities, prime-field ranks, traces, and the routes' agreement with the
closed forms) are certificates worked out once per (p, n, r), with ids
relative to a character's tag, and each character replays them
(Report.replay).  Only the fixed-vector chain is worked per character:
right translation reads chi, but only at units it fixes, and chi is
multiplicative there, so the chain's graph, each coordinate's unit
potential and each component's cycle units are built once per (p, n,
level, witness word), and each character reads chi at those units with one
gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, unit_group
from .cosets import MatPn, coset_table, xmat, ymat
from .cyclotomic import _solve_fraction_system
from .groupconv import BRUTE_LIMIT
from .hecke import AlgebraError, _checked_transport, supported_basis
from .permsum import PermSum, _act, _ColumnRoute, _rank_mod_q
from .report import Assertion, Report, character_tag, check, check_bool, timed
from .spectra import table_eigenvalue, u_eigenvalue


# ---------------------------------------------------------------------------
# Right transport: how one group element moves the canonical cosets
# ---------------------------------------------------------------------------


@cell_cache
def _right_transport(p: int, n: int, k: MatPn) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for right translation: rep_c k = k0 rep_{c'}; returns (cls, d0)
    with cls[c] = c' and d0[c] the lower-right entry of k0.  Cached because
    the congruence-subgroup words recur across every character of a cell."""
    table = coset_table(p, n)
    rep = table.rep_array
    return table.decompose_rows(rep.c * k.a + rep.d * k.c, rep.c * k.b + rep.d * k.d)


# ---------------------------------------------------------------------------
# The algebra's operators: character-free, one per cell
# ---------------------------------------------------------------------------


@cell_cache
def _basis_operator(p: int, n: int, lab: str) -> PermSum:
    """Convolution action of one algebra basis function (one term per class
    representative), with every twist 1: the action for every character
    that supports `lab`.  The twist of a term is chi(d0) for the transport
    factor's lower-right entry d0, which hecke._checked_transport proves and
    checks to be 1."""
    return PermSum(_checked_transport(p, n, lab))


@cell_cache
def _y_operator(p: int, n: int, k: int) -> PermSum:
    """Y_k = sum of the basis operators of levels k..n, as one sum."""
    return PermSum(np.vstack([_basis_operator(p, n, f"y{j}").cls for j in range(k, n + 1)]))


class InducedRep:
    """I(n) for one (p, n, chi): coordinates on canonical coset reps."""

    def __init__(self, p: int, n: int, chi: PChar):
        self.p = p
        self.n = n
        self.chi = chi
        self.r = chi.conductor_exponent
        self.field = chi.field
        self.dim = coset_table(p, n).dim

    def piL_basis(self, lab: str) -> PermSum:
        """Convolution action of one supported basis function: the cell's
        character-free operator."""
        if lab not in supported_basis(self.p, self.n, self.chi):
            raise ValueError(f"label {lab} is not supported for this character")
        return _basis_operator(self.p, self.n, lab)


def _y_vector(p: int, n: int, ell: int) -> np.ndarray:
    """Y_ell viewed inside I(n): indicator of the strata ell and above (the
    canonical lower-left entry of a coordinate has valuation 0 on the w
    stratum and j on the y(p^j) stratum)."""
    return (coset_table(p, n).stratum >= ell).astype(np.int64)


def _eigenvector(p: int, n: int, r: int, i: int) -> np.ndarray:
    """Row-i table vector: the bottom row is Y_lo itself and row i above it
    is Y_{i-1} - p Y_i (absolute index i, lo = max(r,1) <= i <= n)."""
    if i == max(r, 1):
        return _y_vector(p, n, i)
    return _y_vector(p, n, i - 1) - p * _y_vector(p, n, i)


# ---------------------------------------------------------------------------
# Fixed vectors under the smaller congruence subgroups
# ---------------------------------------------------------------------------


def _k0m_generators(p: int, n: int, m: int) -> list[MatPn]:
    """x(1), y(p^m) and diag(1, u) over the unit generators u.

    These generate K0(p^m) together with the scalars u*I.  A scalar acts on
    I(n) by chi(u) = chi(d), so its equation holds on every vector and
    diag(u, 1) = (u*I) diag(1, u^-1) adds nothing once m >= r.
    """
    gens = [xmat(p, n, 1), ymat(p, n, p**m if m <= n else 0)]
    return gens + [MatPn(p, n, 1, 0, 0, g) for g in unit_group(p, n).generators]


@dataclass
class FixedSubspace:
    """chi-eigenvectors of I(n) under right translation by K0(p^m)."""

    p: int
    n: int
    dim: int
    basis_exponents: list[np.ndarray]  # per vector: exponent of zeta, -1 for zero


def fixed_subspace(rep: InducedRep, m_level: int) -> FixedSubspace:
    """Joint chi-eigenspace for right translation by K0(p^m_level): the
    vectors v with pi_R(k) v = chi(d_k) v for every k in K0(p^m_level).

    For m_level >= r, d(k1 k2) = d1 d2 mod p^m_level makes k -> chi(d_k) a
    character of K0(p^m_level), so imposing the equation on the generators
    of `_k0m_generators` imposes it on the whole group.  For
    m_level < r one witness word y(p^m) x(t) with chi(1 + p^m t) != 1 breaks
    multiplicativity against its two factors, which forces every vector to 0.

    Each word is a phase permutation, so its equation links coordinate c to
    cls[c] by a root of unity: the solutions are one vector per connected
    component of the word graph whose cycles all carry phase 0.  Every
    phase is chi at a unit, so the graph, the unit potential of each
    coordinate and the cycle units are built once per (p, n, m_level, t) in
    `_fixed_geometry`; this character only reads chi at those units
    (`_live_basis`).
    """
    p, n = rep.p, rep.n
    if not 0 <= m_level <= n:
        raise ValueError("level exponent out of range")
    vexp = rep.chi.exponent_table()
    t = None
    if m_level < rep.r:
        pn = p**n
        t = next((t for t in range(pn) if vexp[(1 + p**m_level * t) % pn] > 0), None)
        if t is None:
            raise AlgebraError(
                f"no witness word at p={p}, n={n}, conrey {rep.chi.conrey_index()}, m={m_level}: "
                f"chi is trivial on 1 + p^{m_level} Z, against conductor exponent {rep.r}"
            )
    basis = _live_basis(_fixed_geometry(p, n, m_level, t), vexp)
    return FixedSubspace(p, n, len(basis), basis)


@dataclass(frozen=True)
class _WordGeometry:
    """The character-free part of a fixed-vector system.

    Edge i of word k links c to cls[c] with v[cls[c]] = chi(w_i) v[c] for
    the unit w_i = k.d d0[c]^-1, as chi is multiplicative on units.
    Components are numbered by their lowest coordinate.  Walking a spanning
    forest from each component's lowest coordinate, potential[c] is the
    product mod p^n of the edge units along c's path, inverted on edges
    walked backwards, so the phase forced on c is chi(potential[c]).  Every
    other edge closes a cycle of unit potential[c] w_i potential[cls[c]]^-1,
    which chi must send to 1: (cycle_label, cycle_unit) are the distinct
    cycle units other than 1, with their components.
    """

    labels: np.ndarray
    potential: np.ndarray
    cycle_label: np.ndarray
    cycle_unit: np.ndarray


def _word_geometry(words: list[tuple[np.ndarray, np.ndarray, int]], p: int, n: int) -> _WordGeometry:
    """Geometry of the words given as (cls, d0, word entry), cls a map of the
    coordinates and d0[c] the entry read at c, every entry a unit mod p^n.

    The forest is breadth-first, grown one level at a time over the edges
    taken both ways (with the inverse unit backwards)."""
    pn, inverse = p**n, unit_group(p, n).inverse
    dim = len(words[0][0])
    src = np.tile(np.arange(dim), len(words))
    dst = np.concatenate([cls for cls, _, _ in words])
    unit = np.concatenate([kd * inverse[d0] % pn for _, d0, kd in words])

    tail, head = np.concatenate([src, dst]), np.concatenate([dst, src])
    step = np.concatenate([unit, inverse[unit]])
    labels = np.full(dim, -1)
    potential = np.ones(dim, dtype=np.int64)
    ncomp = 0
    while (labels < 0).any():
        front = np.flatnonzero(labels < 0)[:1]  # the component's lowest coordinate
        labels[front] = ncomp
        while True:
            on = np.zeros(dim, dtype=bool)
            on[front] = True
            hit = np.flatnonzero(on[tail] & (labels[head] < 0))
            if not len(hit):
                break
            # each coordinate reached joins the forest along its first edge
            front, first = np.unique(head[hit], return_index=True)
            labels[front] = ncomp
            potential[front] = potential[tail[hit[first]]] * step[hit[first]] % pn
        ncomp += 1
    cycle = potential[src] * unit % pn * inverse[potential[dst]] % pn
    # return_index keeps np.unique on its sorting path, which never imports numpy.ma
    codes = np.unique(labels[src] * pn + cycle, return_index=True)[0]
    codes = codes[codes % pn != 1]
    return _WordGeometry(labels, potential, codes // pn, codes % pn)


@cell_cache
def _fixed_geometry(p: int, n: int, m_level: int, t: Optional[int]) -> _WordGeometry:
    """Geometry of the K0(p^m_level) generators, plus the witness word
    y(p^m) x(t) when t is given.  Every entry it reads is checked to be a
    unit here, once: the potentials and cycle units are their products."""
    words = _k0m_generators(p, n, m_level)
    if t is not None:
        words.append(ymat(p, n, p**m_level) @ xmat(p, n, t))
    if any(k.d % p == 0 for k in words):
        raise AssertionError("word with a non-unit lower-right entry")
    transports = [_right_transport(p, n, k) for k in words]
    if any(np.any(d0 % p == 0) for _, d0 in transports):
        raise AssertionError("twist evaluated at a non-unit entry")
    return _word_geometry([(cls, d0, k.d) for (cls, d0), k in zip(transports, words)], p, n)


def _live_basis(geo: _WordGeometry, vexp: np.ndarray) -> list[np.ndarray]:
    """Solutions for one exponent table vexp, one per live component, as
    exponent vectors (-1 off the component): the phases are vexp at the
    potentials, and a component is dead, carrying only the zero vector,
    when vexp is nonzero at one of its cycle units."""
    ph = vexp[geo.potential]
    dead = np.zeros(geo.labels.max() + 1, dtype=bool)
    dead[geo.cycle_label[vexp[geo.cycle_unit] != 0]] = True
    return [np.where(geo.labels == comp, ph, -1) for comp in np.flatnonzero(~dead)]


# ---------------------------------------------------------------------------
# Spectral data: eigenvalue tables, traces, component dimensions
# ---------------------------------------------------------------------------


@cell_cache
def _table_certificate(p: int, n: int, r: int) -> tuple[tuple[Assertion, ...], dict]:
    """The eigenvalue tables of one (p, n, r): the verdicts, with ids
    relative to a character's tag, on whether V_j and Y_j map each row-i
    vector to its tabulated multiple, and the closed forms themselves, as
    {"V": {(i, j): scalar}, "Y": ...}.  Character-free, so computed once."""
    levels = range(max(r, 1), n + 1)
    tables = {kind: {(i, j): table_eigenvalue(kind, p, n, i, j) for i in levels for j in levels}
              for kind in ("V", "Y")}
    rec = Report()
    for i in levels:
        v = _eigenvector(p, n, r, i)
        for j in levels:
            okV, okY = (
                bool(np.array_equal(_act(op, v), tables[kind][(i, j)] * v))
                for kind, op in (("V", _basis_operator(p, n, f"y{j}")), ("Y", _y_operator(p, n, j)))
            )
            check_bool(rec, f"table.i{i}.j{j}", okV and okY, "formula",
                       detail="" if okV and okY else f"V ok={okV} Y ok={okY}")
    return tuple(rec.assertions), tables


def eigenvalue_tables(rep: InducedRep, report: Report) -> dict:
    """The closed forms lambda(v_i, V_j) and lambda(v_i, Y_j) (table_eigenvalue),
    and whether the computed images match them entrywise, recorded in report
    from the (p, n, r) certificate."""
    with timed() as t:
        verdicts, tables = _table_certificate(rep.p, rep.n, rep.r)
    report.replay(character_tag(rep.chi), verdicts, t.elapsed)
    return {"V": dict(tables["V"]), "Y": dict(tables["Y"]),
            "entrywise_ok": all(a.status == "pass" for a in verdicts)}


@cell_cache
def _column_route(p: int, n: int) -> _ColumnRoute:
    """The cell's route over right translation by x(1) and y(1), the first
    words of _k0m_generators(p, n, 0).  They generate SL2(Z/p^n), which
    moves any coset to any other, and left convolution commutes with right
    translation.  The route checks both on the maps and the operators."""
    return _ColumnRoute([_right_transport(p, n, k)[0] for k in _k0m_generators(p, n, 0)[:2]])


def _certify_projector_family(p: int, n: int, r: int, rec: Report) -> dict:
    """Exact proof that the nested Y-idempotents behave, plus the two extra
    w-side projectors when the twist is trivial.

    Records the verdicts in rec, as `projcert.*`, and returns the certified
    projectors, as combinations, keyed by component name.
    """
    lo, route = max(r, 1), _column_route(p, n)
    yops = {k: _y_operator(p, n, k) for k in range(lo, n + 1)}

    # Y_k Y_k = p^{n-k} Y_k and Y_k Y_{k-1} = Y_{k-1} Y_k = p^{n-k} Y_{k-1}
    for k in range(lo, n + 1):
        Y, s = yops[k], p ** (n - k)
        identities = [[(1, (Y, Y)), (-s, (Y,))]]
        if k > lo:
            Z = yops[k - 1]
            identities += [[(1, (Y, Z)), (-s, (Z,))], [(1, (Z, Y)), (-s, (Z,))]]
        check_bool(rec, f"projcert.k{k}", all(route.vanishes(combo) for combo in identities), "formula")

    # E_k = Y_k / p^{n-k}; the components between consecutive levels are E_k - E_{k-1}
    E = {k: [(Fraction(1, p ** (n - k)), (yops[k],))] for k in yops}
    out = {f"i{k}": E[k] + [(-q, f) for q, f in E[k - 1]] for k in range(lo + 1, n + 1)}
    if r >= 1:
        return {f"i{r}": E[r], **out}

    # trivial twist: the bottom block splits once more under the w-operator
    U, Y1 = _basis_operator(p, n, "w"), yops[1]
    okU = route.vanishes([(1, (U, U)), (-(p ** (n - 1)) * (p - 1), (U,)), (-(p**n), (Y1,))])
    okUY = all(route.vanishes([(1, f), (-(p ** (n - 1)), (U,))]) for f in [(U, Y1), (Y1, U)])
    check_bool(rec, "projcert.w", okU and okUY, "formula")

    # w+ = (U + p^{n-1} E_1) / (p^n + p^{n-1}),  w- = (p^n E_1 - U) / (p^n + p^{n-1})
    s = Fraction(1, p**n + p ** (n - 1))
    return {"w+": [(s, (U,)), (s, (Y1,))], "w-": [(p * s, (Y1,)), (-s, (U,))], **out}


@dataclass(frozen=True)
class _SpectralCertificate:
    """The character-free spectral data of one (p, n, r): the component
    dimensions by each route, and the verdicts on them, with ids relative to
    a character's tag."""

    verdicts: tuple  # the projector identities, ranks, traces and routes' agreement
    by_rank: dict  # component name -> trace (= rank) of its projector
    by_system: dict  # component name -> dimension solved from traces alone
    by_formula: dict  # component name -> closed-form dimension
    agree: bool  # the three routes agree and the ranks sum to the dimension


@cell_cache
def _spectral_certificate(p: int, n: int, r: int) -> _SpectralCertificate:
    """Component dimensions by three routes: ranks of certified spectral
    projectors (the rank of a certified projector is its trace), the exact
    linear system driven by operator traces, and the closed forms.  On small
    cells each projector's rank is confirmed again in a prime field."""
    lo, route = max(r, 1), _column_route(p, n)
    rec = Report()
    projs = _certify_projector_family(p, n, r, rec)
    by_rank: dict[str, int] = {}
    for name, combo in projs.items():
        tr = route.trace(combo)
        if tr.denominator != 1:
            raise AssertionError(f"projector trace not integral: {tr}")
        by_rank[name] = int(tr)
    if p**n <= BRUTE_LIMIT:
        ranks = {name: _rank_mod_q(combo) for name, combo in projs.items()}
        check_bool(rec, "rank-specialization", ranks == by_rank, "oracle")

    comp_names = list(projs.keys())
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def scalar_on(comp: str, kind: str, j: int) -> int:
        if comp.startswith("i"):
            return table_eigenvalue(kind, p, n, int(comp[1:]), j)
        # w blocks: the y-side acts through the bottom slot
        return table_eigenvalue(kind, p, n, 1, j)

    for j in range(lo, n):
        rows.append([Fraction(scalar_on(cn, "V", j)) for cn in comp_names])
        tr = route.trace([(1, (_basis_operator(p, n, f"y{j}"),))])
        rhs.append(tr)
        check(rec, f"trace.y{j}", "0", str(tr), "formula")
    rows.append([Fraction(1)] * len(comp_names))
    dim = coset_table(p, n).dim
    rhs.append(Fraction(dim))
    if r == 0:
        U = _basis_operator(p, n, "w")
        uvals = [Fraction(u_eigenvalue(cn, p, n)) for cn in comp_names]
        rows.append(uvals)
        rhs.append(route.trace([(1, (U,))]))
        rows.append([u * u for u in uvals])
        rhs.append(route.trace([(1, (U, U))]))

    k = len(comp_names)
    sol = _solve_fraction_system([row[:] for row in rows[:k]], rhs[:k])
    if not all(sum(c * s for c, s in zip(row, sol)) == b for row, b in zip(rows, rhs)):
        raise AssertionError("trace system inconsistent with its extra rows")
    if any(s.denominator != 1 for s in sol):
        raise AssertionError("non-integral component dimension from trace system")
    by_system = {cn: int(s) for cn, s in zip(comp_names, sol)}

    # the closed forms
    by_formula: dict[str, int] = {}
    if r >= 1:
        by_formula[f"i{r}"] = p ** (r - 1) * (p + 1)
    else:
        by_formula["w+"] = 1
        by_formula["w-"] = p
    for kk in range(lo + 1, n + 1):
        by_formula[f"i{kk}"] = p ** (kk - 2) * (p * p - 1)

    agree = by_rank == by_system == by_formula
    ok = agree and sum(by_rank.values()) == dim
    check_bool(rec, "component-dims", ok, "formula",
               detail="" if agree else f"rank={by_rank} system={by_system} formula={by_formula}")
    return _SpectralCertificate(tuple(rec.assertions), by_rank, by_system, by_formula, ok)


def component_dimensions(rep: InducedRep, report: Report) -> dict:
    """Dimensions of the irreducible components, by three routes that must
    agree: ranks of certified spectral projectors, the trace system and the
    closed forms, recorded in report from the (p, n, r) certificate.  On
    small cells the certificate also confirms each projector's rank in a
    prime field."""
    with timed() as t:
        cert = _spectral_certificate(rep.p, rep.n, rep.r)
    report.replay(character_tag(rep.chi), cert.verdicts, t.elapsed)
    return {
        "by_rank": dict(cert.by_rank),
        "by_system": dict(cert.by_system),
        "by_formula": dict(cert.by_formula),
        "agree": cert.agree,
    }


@dataclass
class SpectralReport:
    """Everything criterion-level about one (p, n, chi) induced space."""

    p: int
    n: int
    r: int
    dim: int
    component_dims: dict
    fixed_dims: dict
    report: Report

    def ok(self) -> bool:
        return self.report.ok


def verify_induced(p: int, n: int, chi: PChar) -> SpectralReport:
    """Run the full induced-side audit for one character."""
    rep = InducedRep(p, n, chi)
    report = Report(meta={"p": p, "n": n, "conrey": chi.conrey_index(), "r": rep.r})
    tag = character_tag(chi)

    check(report, f"{tag}.dim", p ** (n - 1) * (p + 1), rep.dim, "formula", 0.0)

    eigenvalue_tables(rep, report)
    comp = component_dimensions(rep, report)

    fixed_dims: dict[int, int] = {}
    for m_level in range(0, n + 1):
        with timed() as t:
            fixed_dims[m_level] = fixed_subspace(rep, m_level).dim
        expected = m_level - rep.r + 1 if m_level >= rep.r else 0
        check(
            report,
            f"{tag}.fixed.m{m_level}",
            expected,
            fixed_dims[m_level],
            "formula",
            t.elapsed,
        )
    # increments: one new dimension per level from r up, none below
    incr_ok = all(
        (fixed_dims[m] - (fixed_dims[m - 1] if m > 0 else 0)) == (1 if m >= rep.r else 0)
        for m in range(0, n + 1)
    )
    check_bool(report, f"{tag}.fixed-chain", incr_ok, "formula", 0.0)

    return SpectralReport(
        p=p,
        n=n,
        r=rep.r,
        dim=rep.dim,
        component_dims=comp,
        fixed_dims=fixed_dims,
        report=report,
    )
