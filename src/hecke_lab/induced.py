"""The induced representation I(n) = Ind_{K0}^{G} chi and its spectral data.

I(n) is realized on coordinate vectors indexed by the canonical coset
representatives of K0(p^n)\\GL2(Z/p^n) (dimension p^{n-1}(p+1)).  The
convolution action of one algebra basis element is a sum of one operator per
class representative: each reads every coordinate from one other coset and
multiplies it by the twist chi(d0) of the transport factor between them.

That twist is always 1 on the algebra's operators.  Every d0 is 1 mod p^j on
a y(p^j) class, and a unit on the w class, which is supported only by the
trivial chi; `_basis_operator` reads each transport table through
hecke._checked_transport, which holds the lemma and checks both facts on the
table.  So an operator is held as one (dim, dim) count matrix, in the
smallest unsigned dtype that holds its number of terms (no entry exceeds
it), over the transport table's coordinate map, kept in that table's own
compact dtype.  Products, traces and vanishing checks widen each factor once
per combination and multiply with BLAS: in float64 only under a proven bound
that keeps every integer exact, in int64 otherwise.  Every verdict is
exact.  The basis operators, the Y_k, the projector certificates, the
prime-field ranks, the traces and the eigenvalue-table images are built once
per cell (p, n) or per (p, n, r), and each character records them under its
own assertion ids.

Right translation does read chi, but only at entries it fixes: the
fixed-vector chain's graph and path counts are built once per
(p, n, level, witness word), and each character reads chi at their entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .cellcache import cell_cache
from .characters import PChar, unit_generators
from .cosets import MatPn, coset_table, xmat, ymat
from .cyclotomic import _exact_dtype, _solve_fraction_system
from .groupconv import BRUTE_LIMIT
from .hecke import AlgebraError, _checked_transport, supported_basis
from .report import Report, check, check_bool, timed


# ---------------------------------------------------------------------------
# Operators as count matrices
# ---------------------------------------------------------------------------


class PermSum:
    """Sum of A operators, each a map of the dim coordinates.

    cls[a, c] is the source coordinate feeding row c under operator a, i.e.
    (T_a v)[c] = v[cls[a, c]], in whatever integer dtype it is given (a
    transport table is kept as it is, without a copy).  This is the
    construction format; products, traces and vanishing are computed on
    `counts`.
    """

    __slots__ = ("cls", "_counts")

    def __init__(self, cls: np.ndarray):
        self.cls = np.atleast_2d(np.asarray(cls))
        self._counts = None

    @property
    def terms(self) -> int:
        return self.cls.shape[0]

    @property
    def dim(self) -> int:
        return self.cls.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """counts[c, c'] = the number of terms a with cls[a, c] = c': the
        operator's matrix, built once, on first use, a block of rows at a
        time.  Each row sums to the number of terms, so no entry exceeds it,
        and the matrix is held in the smallest unsigned dtype that holds
        `terms`; _row_blocks widens it for BLAS."""
        if self._counts is None:
            dim = self.dim
            counts = np.empty((dim, dim), dtype=np.min_scalar_type(self.terms))
            step = _block_rows(dim, dim + self.terms)
            for lo in range(0, dim, step):
                src = self.cls[:, lo : lo + step]
                rows = src.shape[1]
                flat = (np.arange(rows) * dim + src).ravel()
                counts[lo : lo + rows] = np.bincount(flat, minlength=rows * dim).reshape(rows, dim)
            self._counts = counts
        return self._counts


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

    def y_operator(self, k: int) -> PermSum:
        """Y_k for max(r, 1) <= k <= n: the cell's character-free operator."""
        if not max(self.r, 1) <= k <= self.n:
            raise ValueError(f"Y_{k} undefined for this character")
        return _y_operator(self.p, self.n, k)

    def piR(self, k: MatPn) -> tuple[np.ndarray, np.ndarray]:
        """Right translation by one group element, twisted by chi: (cls, e)
        with (pi_R(k) v)[c] = zeta^e[c] v[cls[c]], zeta of order field.order."""
        cls, d0 = _right_transport(self.p, self.n, k)
        e = self.chi.exponent_table()[d0]
        if np.any(e < 0):
            raise AssertionError("twist evaluated at a non-unit entry")
        return cls, e


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


def _act(op: PermSum, v: np.ndarray) -> np.ndarray:
    """Apply an operator to an integer vector, one term per map of the
    coordinates; the image is an integer vector."""
    # each image coordinate sums one entry of v per term
    dt = _exact_dtype(op.terms * float(np.abs(v).max(initial=0)))
    return np.asarray(v, dtype=dt)[op.cls].sum(axis=0).astype(np.int64)


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
    return gens + [MatPn(p, n, 1, 0, 0, g) for g in unit_generators(p, n)]


@dataclass
class FixedSubspace:
    """chi-eigenvectors of I(n) under right translation by K0(p^m)."""

    p: int
    n: int
    m_level: int
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
    component of the word graph whose cycles all carry phase 0.  The graph
    and its path counts are built once per (p, n, m_level, t) in
    `_fixed_geometry`; this character only reads chi at their entries
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
    basis = _live_basis(_fixed_geometry(p, n, m_level, t), vexp, rep.field.order)
    return FixedSubspace(p, n, m_level, len(basis), basis)


@dataclass(frozen=True)
class _WordGeometry:
    """The character-free part of a fixed-vector system.

    Edge i links c = src[i] to dst[i] = cls[c] of one word k, with
    v[dst] = zeta^delta v[src] for delta = chi(k.d) - chi(d0[c]) as
    exponents: the two entries it reads are entries[word_at[i]] and
    entries[coset_at[i]].  Components are numbered by their lowest
    coordinate.  Walking a spanning forest from each component's lowest
    coordinate, the phase forced on coordinate c is the sum of
    path_count[i] * chi(entries[path_entry[i]]) over the i with
    path_row[i] = c, mod m: the entries read along c's path, counted with
    sign.  These (row, entry, count) triples are the nonzero entries of the
    path count matrix.
    """

    entries: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    word_at: np.ndarray
    coset_at: np.ndarray
    labels: np.ndarray
    path_row: np.ndarray
    path_entry: np.ndarray
    path_count: np.ndarray


def _word_geometry(words: list[tuple[np.ndarray, np.ndarray, int]]) -> _WordGeometry:
    """Geometry of the words given as (cls, d0, word entry), cls a map of the
    coordinates and d0[c] the entry read at c.

    The forest is breadth-first, grown one level at a time over the edges
    taken both ways (sign -1 backwards).  A path changes each count by at
    most 1 per edge, so `path_count` takes the smallest integer dtype that
    holds the longest path, and `path_row` and `path_entry` the smallest
    that index the coordinates and the entries."""
    dim = len(words[0][0])
    src = np.tile(np.arange(dim), len(words))
    dst = np.concatenate([cls for cls, _, _ in words])
    read = np.concatenate([np.full(dim, kd) for _, _, kd in words] + [d0 for _, d0, _ in words])
    entries, at = np.unique(read, return_inverse=True)
    word_at, coset_at = at[: len(src)], at[len(src) :]

    tail, head = np.concatenate([src, dst]), np.concatenate([dst, src])
    edge, sign = np.tile(np.arange(len(src)), 2), np.repeat([1, -1], len(src))
    labels = np.full(dim, -1)
    paths = np.zeros((dim, len(entries)), dtype=np.int64)
    ncomp, longest = 0, 0
    while (labels < 0).any():
        front = np.flatnonzero(labels < 0)[:1]  # the component's lowest coordinate
        labels[front] = ncomp
        for depth in itertools.count():
            on = np.zeros(dim, dtype=bool)
            on[front] = True
            hit = np.flatnonzero(on[tail] & (labels[head] < 0))
            if not len(hit):
                break
            # each coordinate reached joins the forest along its first edge
            front, first = np.unique(head[hit], return_index=True)
            a, i, s = tail[hit[first]], edge[hit[first]], sign[hit[first]]
            labels[front] = ncomp
            paths[front] = paths[a]
            paths[front, word_at[i]] += s
            paths[front, coset_at[i]] -= s
        longest = max(longest, depth)
        ncomp += 1
    rows, cols = np.nonzero(paths)
    return _WordGeometry(
        entries, src, dst, word_at, coset_at, labels,
        rows.astype(np.min_scalar_type(dim)), cols.astype(np.min_scalar_type(len(entries))),
        paths[rows, cols].astype(np.min_scalar_type(-max(longest, 1))),
    )


@cell_cache
def _fixed_geometry(p: int, n: int, m_level: int, t: Optional[int]) -> _WordGeometry:
    """Geometry of the K0(p^m_level) generators, plus the witness word
    y(p^m) x(t) when t is given.  Every entry it reads is checked to be a
    unit here, once."""
    words = _k0m_generators(p, n, m_level)
    if t is not None:
        words.append(ymat(p, n, p**m_level) @ xmat(p, n, t))
    if any(k.d % p == 0 for k in words):
        raise AssertionError("word with a non-unit lower-right entry")
    geo = _word_geometry([(*_right_transport(p, n, k), k.d) for k in words])
    if np.any(geo.entries % p == 0):
        raise AssertionError("twist evaluated at a non-unit entry")
    return geo


def _live_basis(geo: _WordGeometry, vexp: np.ndarray, mord: int) -> list[np.ndarray]:
    """Solutions for one exponent table vexp (chi = zeta_mord^vexp), one per
    live component, as exponent vectors (-1 off the component).

    The walk phases solve every forest edge; a component is dead when any of
    its edges disagrees with them, and then it carries only the zero vector.
    """
    vals = vexp[geo.entries]
    ph = np.zeros(len(geo.labels), dtype=np.int64)
    np.add.at(ph, geo.path_row, geo.path_count * vals[geo.path_entry])
    ph %= mord
    delta = vals[geo.word_at] - vals[geo.coset_at]
    dead = np.zeros(geo.labels.max() + 1, dtype=bool)
    dead[geo.labels[geo.src[(ph[geo.src] + delta - ph[geo.dst]) % mord != 0]]] = True
    return [np.where(geo.labels == comp, ph, -1) for comp in np.flatnonzero(~dead)]


# ---------------------------------------------------------------------------
# Spectral data: eigenvalue tables, traces, component dimensions
# ---------------------------------------------------------------------------


def table_eigenvalue(kind: str, p: int, n: int, i: int, j: int) -> int:
    """Tabulated scalar of one algebra element on one component.

    kind "V": the single-stratum basis function at level j; kind "Y": the
    accumulated sum Y_j.  Component index i is absolute, max(r,1) <= i <= n.
    """
    if kind == "Y":
        return p ** (n - j) if j >= i else 0
    if kind != "V":
        raise ValueError("kind must be 'V' or 'Y'")
    if j == n:
        return 1
    if j >= i:
        return p ** (n - j - 1) * (p - 1)
    if j == i - 1:
        return -(p ** (n - j - 1))
    return 0


@cell_cache
def _table_images(p: int, n: int, r: int) -> dict[tuple[int, int], tuple[bool, bool]]:
    """For each table entry (i, j): do V_j and Y_j map the row-i vector to
    its tabulated multiple?  Character-free, so computed once per (p, n, r)."""
    lo = max(r, 1)
    out = {}
    for i in range(lo, n + 1):
        v = _eigenvector(p, n, r, i)
        for j in range(lo, n + 1):
            out[(i, j)] = tuple(
                bool(np.array_equal(_act(op, v), table_eigenvalue(kind, p, n, i, j) * v))
                for kind, op in (("V", _basis_operator(p, n, f"y{j}")), ("Y", _y_operator(p, n, j)))
            )
    return out


def eigenvalue_tables(rep: InducedRep, report: Optional[Report] = None) -> dict:
    """Computed scalars lambda(v_i, V_j) and lambda(v_i, Y_j), checked
    entrywise against the tabulated closed form.

    The images come from the (p, n, r) certificate; each assertion's runtime
    is its share of the time this character spent getting it."""
    p, n = rep.p, rep.n
    tag = f"p{p}.n{n}.chi{rep.chi.conrey_index()}"
    with timed() as t:
        images = _table_images(p, n, rep.r)
    vtab: dict[tuple[int, int], int] = {}
    ytab: dict[tuple[int, int], int] = {}
    ok_all = True
    for (i, j), (okV, okY) in images.items():
        vtab[(i, j)] = table_eigenvalue("V", p, n, i, j)
        ytab[(i, j)] = table_eigenvalue("Y", p, n, i, j)
        ok_all = ok_all and okV and okY
        if report is not None:
            check_bool(
                report, f"{tag}.table.i{i}.j{j}", okV and okY, "formula",
                t.elapsed / len(images), detail="" if okV and okY else f"V ok={okV} Y ok={okY}",
            )
    return {"V": vtab, "Y": ytab, "entrywise_ok": ok_all}


# A combination [(q, (A, B, ...))] stands for the operator sum of q * A B ...
# over its terms, each factor a PermSum.  Products are formed on the factors'
# count matrices, one block of rows at a time (_row_blocks).

_BLOCK_ENTRIES = 2**14  # the fewest entries a row block holds, unless it is one row
_RANK_PRIME = 2**31 - 1  # a prime: products of two residues stay below 2^62


def _block_rows(dim: int, width: int) -> int:
    """Rows per block, for rows of `width` entries: a block holds about an
    eighth of a (dim, dim) matrix, and at least _BLOCK_ENTRIES entries, or a
    single row.

    A product already holds its later factors widened to (dim, dim), so
    blocks an eighth of that size keep its transient arrays small beside
    them: the allocator reuses their memory from block to block instead of
    returning it to the system and faulting it back in.  The floor keeps the
    blocks of small operators whole."""
    return max(1, max(_BLOCK_ENTRIES, dim * dim // 8) // width)


def _row_blocks(combo: list) -> Iterator[tuple[np.ndarray, list]]:
    """Yield (rows, [(q, counts)]) over blocks of rows (_block_rows), counts
    those of each term restricted to the rows: a product in float64 or
    int64, a single factor as stored, unsigned, for the caller to widen
    before any arithmetic.

    Counts are nonnegative and every row of a factor's counts sums to its
    number of terms, so no entry or partial sum of a product exceeds the
    product of its factors' terms; _exact_dtype picks each step's dtype from
    the terms of the factors up to it.  Each later factor is widened to its
    dtype once per combination, the first factor one block at a time."""
    dim = combo[0][1][0].dim
    if any(f.dim != dim for _, factors in combo for f in factors):
        raise ValueError("mismatched operators")
    terms = []
    for q, (head, *tail) in combo:
        bound, rights = head.terms, []
        for f in tail:
            bound *= f.terms
            rights.append(f.counts.astype(_exact_dtype(bound)))
        terms.append((q, head, rights))
    step = _block_rows(dim, dim * len(combo))
    for lo in range(0, dim, step):
        block = []
        for q, head, rights in terms:
            prod = head.counts[lo : lo + step]
            for right in rights:
                prod = prod.astype(right.dtype, copy=False) @ right
            block.append((q, prod))
        yield np.arange(lo, min(lo + step, dim)), block


def _vanishes(combo: list) -> bool:
    """Exact certificate that a combination is the zero operator: each block
    adds up its weighted products, and every entry must be zero."""
    den = math.lcm(*(q.denominator for q, _ in combo))
    for _, block in _row_blocks(combo):
        terms = [(int(q * den), prod) for q, prod in block]
        # products of counts are nonnegative
        dt = _exact_dtype(sum(abs(w) * float(x.max(initial=0)) for w, x in terms))
        acc = np.zeros(terms[0][1].shape, dtype=dt)
        for w, prod in terms:
            acc += w * prod.astype(dt, copy=False)
        if acc.any():
            return False
    return True


def _trace(combo: list) -> Fraction:
    """Exact trace of a combination, from the diagonals of its products."""
    den = math.lcm(*(q.denominator for q, _ in combo))
    total = 0
    for rows, block in _row_blocks(combo):
        for q, prod in block:
            diag = prod[np.arange(len(rows)), rows]
            s = diag.sum(dtype=_exact_dtype(len(rows) * float(diag.max(initial=0))))
            total += int(q * den) * int(s)
    return Fraction(total, den)


def _certify_projector_family(p: int, n: int, r: int) -> tuple[list, dict]:
    """Exact proof that the nested Y-idempotents behave, plus the two extra
    w-side projectors when the twist is trivial.

    Returns the verdicts, as (assertion suffix, ok), and the certified
    projectors, as combinations, keyed by component name.
    """
    lo = max(r, 1)
    yops = {k: _y_operator(p, n, k) for k in range(lo, n + 1)}
    verdicts = []

    # Y_k Y_k = p^{n-k} Y_k and Y_k Y_{k-1} = Y_{k-1} Y_k = p^{n-k} Y_{k-1}
    for k in range(lo, n + 1):
        Y, s = yops[k], p ** (n - k)
        identities = [[(1, (Y, Y)), (-s, (Y,))]]
        if k > lo:
            Z = yops[k - 1]
            identities += [[(1, (Y, Z)), (-s, (Z,))], [(1, (Z, Y)), (-s, (Z,))]]
        verdicts.append((f"k{k}", all(_vanishes(combo) for combo in identities)))

    # E_k = Y_k / p^{n-k}; the components between consecutive levels are E_k - E_{k-1}
    E = {k: [(Fraction(1, p ** (n - k)), (yops[k],))] for k in yops}
    out = {f"i{k}": E[k] + [(-q, f) for q, f in E[k - 1]] for k in range(lo + 1, n + 1)}
    if r >= 1:
        return verdicts, {f"i{r}": E[r], **out}

    # trivial twist: the bottom block splits once more under the w-operator
    U, Y1 = _basis_operator(p, n, "w"), yops[1]
    okU = _vanishes([(1, (U, U)), (-(p ** (n - 1)) * (p - 1), (U,)), (-(p**n), (Y1,))])
    okUY = all(_vanishes([(1, f), (-(p ** (n - 1)), (U,))]) for f in [(U, Y1), (Y1, U)])
    verdicts.append(("w", okU and okUY))

    # w+ = (U + p^{n-1} E_1) / (p^n + p^{n-1}),  w- = (p^n E_1 - U) / (p^n + p^{n-1})
    s = Fraction(1, p**n + p ** (n - 1))
    return verdicts, {"w+": [(s, (U,)), (s, (Y1,))], "w-": [(p * s, (Y1,)), (-s, (U,))], **out}


@dataclass(frozen=True)
class _SpectralCertificate:
    """The character-free spectral data of one (p, n, r)."""

    projcert: list  # (assertion suffix, verdict) of the projector identities
    by_rank: dict  # component name -> trace (= rank) of its projector
    traces: list  # (j, trace of V_j) for the rows of the trace system
    by_system: dict  # component name -> dimension solved from traces alone
    ranks_mod_q: Optional[dict]  # component name -> prime-field rank; None above BRUTE_LIMIT


@cell_cache
def _spectral_certificate(p: int, n: int, r: int) -> _SpectralCertificate:
    """Component dimensions by two routes: ranks of certified spectral
    projectors (the rank of a certified projector is its trace), and the
    exact linear system driven by operator traces.  On small cells each
    projector's rank is confirmed again in a prime field."""
    lo = max(r, 1)
    projcert, projs = _certify_projector_family(p, n, r)
    by_rank: dict[str, int] = {}
    for name, combo in projs.items():
        tr = _trace(combo)
        if tr.denominator != 1:
            raise AssertionError(f"projector trace not integral: {tr}")
        by_rank[name] = int(tr)

    comp_names = list(projs.keys())
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    traces = []

    def scalar_on(comp: str, kind: str, j: int) -> int:
        if comp.startswith("i"):
            return table_eigenvalue(kind, p, n, int(comp[1:]), j)
        # w blocks: the y-side acts through the bottom slot
        return table_eigenvalue(kind, p, n, 1, j)

    def trace_of(*factors: PermSum) -> Fraction:
        return _trace([(1, factors)])

    for j in range(lo, n):
        rows.append([Fraction(scalar_on(cn, "V", j)) for cn in comp_names])
        tr = trace_of(_basis_operator(p, n, f"y{j}"))
        rhs.append(tr)
        traces.append((j, tr))
    rows.append([Fraction(1)] * len(comp_names))
    rhs.append(Fraction(coset_table(p, n).dim))
    if r == 0:
        U = _basis_operator(p, n, "w")
        uvals = {"w+": Fraction(p**n), "w-": Fraction(-(p ** (n - 1)))}
        rows.append([uvals.get(cn, Fraction(0)) for cn in comp_names])
        rhs.append(trace_of(U))
        rows.append([uvals.get(cn, Fraction(0)) ** 2 for cn in comp_names])
        rhs.append(trace_of(U, U))

    k = len(comp_names)
    sol = _solve_fraction_system([row[:] for row in rows[:k]], rhs[:k])
    if not all(sum(c * s for c, s in zip(row, sol)) == b for row, b in zip(rows, rhs)):
        raise AssertionError("trace system inconsistent with its extra rows")
    if any(s.denominator != 1 for s in sol):
        raise AssertionError("non-integral component dimension from trace system")
    by_system = {cn: int(s) for cn, s in zip(comp_names, sol)}
    ranks = None
    if p**n <= BRUTE_LIMIT:
        ranks = {name: _rank_mod_q(combo) for name, combo in projs.items()}
    return _SpectralCertificate(projcert, by_rank, traces, by_system, ranks)


def _rank_mod_q(combo: list) -> int:
    """Rank of a combination reduced into the prime field F_q, q =
    _RANK_PRIME (a coefficient whose denominator q divides has no image:
    `pow` refuses it).  A lower bound on the true rank, used as an
    independent confirmation at small cells."""
    q = _RANK_PRIME
    dim = combo[0][1][0].dim
    M = np.zeros((dim, dim), dtype=np.int64)
    for rows, block in _row_blocks(combo):
        for c, prod in block:
            w = c.numerator * pow(c.denominator, -1, q) % q
            M[rows] = (M[rows] + w * (prod.astype(np.int64) % q)) % q
    # Gauss-Jordan elimination mod q; `row` counts the pivots found
    row = 0
    for col in range(dim):
        nonzero = np.flatnonzero(M[row:, col])
        if not len(nonzero):
            continue
        piv = row + nonzero[0]
        M[[row, piv]] = M[[piv, row]]
        M[row] = M[row] * pow(int(M[row, col]), -1, q) % q
        mask = np.arange(dim) != row
        M[mask] = (M[mask] - np.outer(M[mask, col], M[row])) % q
        row += 1
    return row


def component_dimensions(rep: InducedRep, report: Optional[Report] = None) -> dict:
    """Dimensions of the irreducible components, by three routes that must
    agree: ranks of certified spectral projectors and the trace system (both
    from the (p, n, r) certificate), and the closed forms.  On small cells
    the certificate also confirms each projector's rank in a prime field.

    Each projector-identity and rank assertion's runtime is its share of the
    time this character spent getting the certificate."""
    p, n, r = rep.p, rep.n, rep.r
    own_report = report is None
    if own_report:
        report = Report(meta={"p": p, "n": n, "conrey": rep.chi.conrey_index()})
    tag = f"p{p}.n{n}.chi{rep.chi.conrey_index()}"

    with timed() as t:
        cert = _spectral_certificate(p, n, r)
    share = t.elapsed / (len(cert.projcert) + (cert.ranks_mod_q is not None))
    for suffix, ok in cert.projcert:
        check_bool(report, f"{tag}.projcert.{suffix}", ok, "formula", share)
    by_rank = dict(cert.by_rank)
    if cert.ranks_mod_q is not None:
        check_bool(report, f"{tag}.rank-specialization", cert.ranks_mod_q == by_rank, "oracle", share)

    for j, tr in cert.traces:
        check(report, f"{tag}.trace.y{j}", "0", str(tr), "formula", 0.0)
    by_system = dict(cert.by_system)

    # the closed forms
    by_formula: dict[str, int] = {}
    if r >= 1:
        by_formula[f"i{r}"] = p ** (r - 1) * (p + 1)
        for kk in range(r + 1, n + 1):
            by_formula[f"i{kk}"] = p ** (kk - 2) * (p * p - 1)
    else:
        by_formula["w+"] = 1
        by_formula["w-"] = p
        for kk in range(2, n + 1):
            by_formula[f"i{kk}"] = p ** (kk - 2) * (p * p - 1)

    agree = by_rank == by_system == by_formula
    total_ok = sum(by_rank.values()) == rep.dim
    check_bool(
        report,
        f"{tag}.component-dims",
        agree and total_ok,
        "formula",
        0.0,
        detail="" if agree else f"rank={by_rank} system={by_system} formula={by_formula}",
    )
    return {
        "by_rank": by_rank,
        "by_system": by_system,
        "by_formula": by_formula,
        "agree": agree and total_ok,
        "report": report if own_report else None,
    }


@dataclass
class SpectralReport:
    """Everything criterion-level about one (p, n, chi) induced space."""

    p: int
    n: int
    conrey: int
    r: int
    dim: int
    tables: dict
    component_dims: dict
    fixed_dims: dict
    report: Report

    def ok(self) -> bool:
        return self.report.ok


def verify_induced(p: int, n: int, chi: PChar) -> SpectralReport:
    """Run the full induced-side audit for one character."""
    rep = InducedRep(p, n, chi)
    report = Report(meta={"p": p, "n": n, "conrey": chi.conrey_index(), "r": rep.r})
    tag = f"p{p}.n{n}.chi{chi.conrey_index()}"

    check(report, f"{tag}.dim", p ** (n - 1) * (p + 1), rep.dim, "formula", 0.0)

    tables = eigenvalue_tables(rep, report)
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
        conrey=chi.conrey_index(),
        r=rep.r,
        dim=rep.dim,
        tables=tables,
        component_dims=comp,
        fixed_dims=fixed_dims,
        report=report,
    )
