"""The induced representation I(n) = Ind_{K0}^{G} chi and its spectral data.

I(n) is realized on coordinate vectors indexed by the canonical coset
representatives of K0(p^n)\\GL2(Z/p^n) (dimension p^{n-1}(p+1)).  Every
operator that appears here - right translation by one group element, or the
convolution action of one algebra basis element - is a sum of "phase
permutations": matrices with at most one nonzero entry per row, each a root
of unity.  Sums, products and traces of such operators are therefore exact
integer bookkeeping on (permutation, exponent) arrays, which is what makes
the p^n = 125 cell affordable; nothing is ever evaluated in floating point
except on explicit request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .characters import PChar, unit_generators
from .cosets import MatPn, _left_transport, coset_table, xmat, ymat
from .cyclotomic import CyclotomicField, _solve_fraction_system
from .groupconv import BRUTE_LIMIT
from .report import Report, check, check_bool, timed


# ---------------------------------------------------------------------------
# Phase-permutation machinery
# ---------------------------------------------------------------------------


class PhasePermSum:
    """Sum of A operators, each a twisted permutation of the dim coordinates.

    cls[a, c] is the source coordinate feeding row c under operator a, and
    e[a, c] the root-of-unity exponent (mod m) attached to that entry, i.e.
    (T_a v)[c] = zeta^e[a,c] * v[cls[a,c]].
    """

    __slots__ = ("cls", "e", "m")

    def __init__(self, cls: np.ndarray, e: np.ndarray, m: int):
        self.cls = np.atleast_2d(np.asarray(cls, dtype=np.int64))
        self.e = np.atleast_2d(np.asarray(e, dtype=np.int64)) % m
        self.m = m
        if self.cls.shape != self.e.shape:
            raise ValueError("cls/e shape mismatch")

    @property
    def terms(self) -> int:
        return self.cls.shape[0]

    @property
    def dim(self) -> int:
        return self.cls.shape[1]

    def compose(self, other: "PhasePermSum") -> "PhasePermSum":
        """Operator product (sum_a T_a)(sum_b S_b), expanded term by term.

        self may hold only a block of rows of the left operator (cls of shape
        (A, rows)); the product then holds the same rows."""
        if self.m != other.m or self.dim > other.dim:
            raise ValueError("mismatched operators")
        ci = self.cls  # (A, rows)
        cls_out = other.cls[:, ci]  # (B, A, rows)
        e_out = self.e[None, :, :] + other.e[:, ci]  # reduced mod m by the constructor
        return PhasePermSum(
            cls_out.reshape(-1, self.dim), e_out.reshape(-1, self.dim), self.m
        )

    def concat(self, other: "PhasePermSum") -> "PhasePermSum":
        return PhasePermSum(
            np.concatenate([self.cls, other.cls]),
            np.concatenate([self.e, other.e]),
            self.m,
        )

    def act_int_vector(self, v: np.ndarray) -> np.ndarray:
        """Image of an integer vector, as a (dim, m) exponent-count array."""
        a, dim = self.cls.shape
        gathered = np.asarray(v, dtype=np.int64)[self.cls]
        hist = np.zeros((dim, self.m), dtype=np.int64)
        rows = np.broadcast_to(np.arange(dim, dtype=np.int64), (a, dim))
        np.add.at(hist, (rows.ravel(), self.e.ravel()), gathered.ravel())
        return hist


# ---------------------------------------------------------------------------
# Right transport: how one group element moves the canonical cosets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _right_transport(p: int, n: int, k: MatPn) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for right translation: rep_c k = k0 rep_{c'}; returns (cls, d0)
    with cls[c] = c' and d0[c] the lower-right entry of k0.  Cached because
    the congruence-subgroup words recur across every character of a cell."""
    table = coset_table(p, n)
    cls, k0 = table.decompose_array(table.rep_array @ k)
    return cls, k0.d


# ---------------------------------------------------------------------------
# The induced representation
# ---------------------------------------------------------------------------


class InducedRep:
    """I(n) for one (p, n, chi): coordinates on canonical coset reps."""

    def __init__(self, p: int, n: int, chi: PChar):
        self.p = p
        self.n = n
        self.chi = chi
        self.r = chi.conductor_exponent
        self.field = chi.field
        self.table = coset_table(p, n)
        self.dim = self.table.dim
        # valuation of the canonical lower-left entry per coordinate
        # (0 on the w stratum, j on the y(p^j) stratum)
        self.jval = np.array(
            [0 if lab == "w" else int(lab[1:]) for lab in self.table.labels], dtype=np.int64
        )
        self._piL_cache: dict[str, PhasePermSum] = {}
        self._y_cache: dict[int, PhasePermSum] = {}

    # -- operators ---------------------------------------------------------

    def piL_basis(self, lab: str) -> PhasePermSum:
        """Convolution action of one algebra basis function, as a phase-perm
        sum (one term per class representative)."""
        hit = self._piL_cache.get(lab)
        if hit is not None:
            return hit
        cls, d0 = _left_transport(self.p, self.n)[lab]
        vexp = self.chi.exponent_table()
        e = vexp[d0]
        if np.any(e < 0):
            raise AssertionError("twist evaluated at a non-unit entry")
        pps = PhasePermSum(cls, e, self.field.order)
        self._piL_cache[lab] = pps
        return pps

    def y_operator(self, k: int) -> PhasePermSum:
        """Y_k = sum of the basis operators of levels k..n, as one phase-perm
        sum, built once per k."""
        hit = self._y_cache.get(k)
        if hit is None:
            hit = self.piL_basis(f"y{k}")
            if k < self.n:
                hit = hit.concat(self.y_operator(k + 1))
            self._y_cache[k] = hit
        return hit

    def piR(self, k: MatPn) -> PhasePermSum:
        """Right translation by one group element (a single phase perm)."""
        cls, d0 = _right_transport(self.p, self.n, k)
        vexp = self.chi.exponent_table()
        e = vexp[d0]
        if np.any(e < 0):
            raise AssertionError("twist evaluated at a non-unit entry")
        return PhasePermSum(cls[None, :], e[None, :], self.field.order)

    # -- vectors -----------------------------------------------------------

    def y_vector(self, ell: int) -> np.ndarray:
        """Y_ell viewed inside I(n): indicator of the v_p >= ell strata."""
        if not 1 <= ell <= self.n:
            raise ValueError("ell out of range")
        return (self.jval >= ell).astype(np.int64)

    def eigenvector(self, i: int) -> np.ndarray:
        """Row-i table vector: the bottom row is Y_lo itself and row i above
        it is Y_{i-1} - p Y_i (absolute index i, lo = max(r,1) <= i <= n)."""
        lo = max(self.r, 1)
        if not lo <= i <= self.n:
            raise ValueError("eigenvector index out of range")
        if i == lo:
            return self.y_vector(i)
        return self.y_vector(i - 1) - self.p * self.y_vector(i)

    # -- exact helpers -----------------------------------------------------

    def act(self, pps: PhasePermSum, v: np.ndarray) -> np.ndarray:
        """Apply an operator to an integer vector; (dim, degree) coordinates."""
        return self.field.reduce_exponent_matrix(pps.act_int_vector(v))

    def embed_int_vector(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.field.degree), dtype=np.int64)
        out[:, 0] = v
        return out


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
    component of the word graph whose cycles all carry phase 0.
    """
    p, n = rep.p, rep.n
    if not 0 <= m_level <= n:
        raise ValueError("level exponent out of range")
    pn, mord, dim = p**n, rep.field.order, rep.dim
    vexp = rep.chi.exponent_table()
    words = _k0m_generators(p, n, m_level)
    if m_level < rep.r:
        t = next(t for t in range(pn) if vexp[(1 + p**m_level * t) % pn] > 0)
        words.append(ymat(p, n, p**m_level) @ xmat(p, n, t))
    if any(k.d % p == 0 for k in words):
        raise AssertionError("word with a non-unit lower-right entry")

    # edge c -> cls[c] with v[cls[c]] = zeta^delta v[c], since
    # (pi_R(k) v)[c] = zeta^e[c] v[cls[c]] must equal zeta^x_k v[c]
    src, dst, delta = [], [], []
    for k in words:
        pps = rep.piR(k)
        src.append(np.arange(dim))
        dst.append(pps.cls[0])
        delta.append((vexp[k.d] - pps.e[0]) % mord)
    src, dst, delta = np.concatenate(src), np.concatenate(dst), np.concatenate(delta)
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(dim, dim)).tocsr()
    ncomp, labels = connected_components(graph, directed=False)

    # phases along a BFS spanning tree of each component, rooted at its
    # first coordinate; step[a, b] is the phase carried from a to b
    step = np.zeros((dim, dim), dtype=np.int64)
    step[dst, src] = -delta % mord
    step[src, dst] = delta
    ph = np.zeros(dim, dtype=np.int64)
    for root in np.unique(labels, return_index=True)[1]:
        order, pred = breadth_first_order(graph, root, directed=False, return_predecessors=True)
        for c in order[1:]:
            ph[c] = (ph[pred[c]] + step[pred[c], c]) % mord

    # a component is dead when any of its edges disagrees with the tree phases
    dead = np.zeros(ncomp, dtype=bool)
    dead[labels[src[(ph[src] + delta - ph[dst]) % mord != 0]]] = True
    live = np.flatnonzero(~dead)
    basis = [np.where(labels == comp, ph, -1) for comp in live]
    return FixedSubspace(p, n, m_level, len(basis), basis)


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


def eigenvalue_tables(rep: InducedRep, report: Optional[Report] = None) -> dict:
    """Computed scalars lambda(v_i, V_j) and lambda(v_i, Y_j), checked
    entrywise against the tabulated closed form."""
    p, n = rep.p, rep.n
    lo = max(rep.r, 1)
    tag = f"p{p}.n{n}.chi{rep.chi.conrey_index()}"
    vtab: dict[tuple[int, int], int] = {}
    ytab: dict[tuple[int, int], int] = {}
    ok_all = True
    for i in range(lo, n + 1):
        v = rep.eigenvector(i)
        for j in range(lo, n + 1):
            with timed() as t:
                img = rep.act(rep.piL_basis(f"y{j}"), v)
                lam = table_eigenvalue("V", p, n, i, j)
                expect = rep.embed_int_vector(lam * v)
                okV = bool(np.array_equal(img, expect))
                vtab[(i, j)] = lam

                imgY = rep.act(rep.y_operator(j), v)
                lamY = table_eigenvalue("Y", p, n, i, j)
                okY = bool(np.array_equal(imgY, rep.embed_int_vector(lamY * v)))
                ytab[(i, j)] = lamY
            ok_all = ok_all and okV and okY
            if report is not None:
                check_bool(
                    report, f"{tag}.table.i{i}.j{j}", okV and okY, "formula", t.elapsed,
                    detail="" if okV and okY else f"V ok={okV} Y ok={okY}",
                )
    return {"V": vtab, "Y": ytab, "entrywise_ok": ok_all}


# A combination [(q, (A, B, ...))] stands for the operator sum of q * A B ...
# over its terms, each factor a PhasePermSum.  Products are never expanded in
# full: _row_blocks expands them one block of rows at a time.

_BLOCK_ENTRIES = 2**18  # expanded (term, row) entries held per row block


def _row_blocks(combo: list) -> Iterator[tuple[np.ndarray, list]]:
    """Yield (rows, [(q, product restricted to rows)]) over blocks of rows,
    each product expanded term by term.  A block holds at most
    _BLOCK_ENTRIES expanded entries, or a single row."""
    dim = combo[0][1][0].dim
    per_row = sum(math.prod(f.terms for f in factors) for _, factors in combo)
    step = max(1, _BLOCK_ENTRIES // per_row)
    for lo in range(0, dim, step):
        rows = slice(lo, min(lo + step, dim))
        block = []
        for q, (head, *tail) in combo:
            prod = PhasePermSum(head.cls[:, rows], head.e[:, rows], head.m)
            for f in tail:
                prod = prod.compose(f)
            block.append((q, prod))
        yield np.arange(rows.start, rows.stop), block


def _vanishes(field: CyclotomicField, combo: list) -> bool:
    """Exact certificate that a combination is the zero operator.

    Each block collapses to one signed count per distinct (row, col,
    exponent); the (row, col) entries left with a nonzero count are reduced to
    Q(zeta_m) coordinates, and every coordinate must be zero.
    """
    m, dim = field.order, combo[0][1][0].dim
    den = math.lcm(*(q.denominator for q, _ in combo))
    for rows, block in _row_blocks(combo):
        codes, counts = [], []
        for q, x in block:
            c, k = np.unique(((rows * dim + x.cls) * m + x.e).ravel(), return_counts=True)
            codes.append(c)
            counts.append(int(q * den) * k)
        codes, at = np.unique(np.concatenate(codes), return_inverse=True)
        signed = np.zeros(len(codes), dtype=np.int64)
        np.add.at(signed, at, np.concatenate(counts))
        codes, signed = codes[signed != 0], signed[signed != 0]
        entries, at = np.unique(codes // m, return_inverse=True)
        hist = np.zeros((len(entries), m), dtype=np.int64)
        hist[at, codes % m] = signed
        if field.reduce_exponent_matrix(hist).any():
            return False
    return True


def _trace(field: CyclotomicField, combo: list) -> Fraction:
    """Exact trace of a combination; it must be rational."""
    m = field.order
    den = math.lcm(*(q.denominator for q, _ in combo))
    hist = np.zeros(m, dtype=np.int64)
    for rows, block in _row_blocks(combo):
        for q, x in block:
            hist += int(q * den) * np.bincount(x.e[x.cls == rows], minlength=m)
    coords = field.reduce_exponent_matrix(hist)
    if coords[1:].any():
        raise AssertionError("operator trace landed outside Q")
    return Fraction(int(coords[0]), den)


def _certify_projector_family(rep: InducedRep, report: Report, tag: str) -> dict[str, list]:
    """Exact proof that the nested Y-idempotents behave, plus the two extra
    w-side projectors when the twist is trivial.

    Returns the certified projectors, as combinations, keyed by component name.
    """
    p, n, r = rep.p, rep.n, rep.r
    lo = max(r, 1)
    F = rep.field

    yops = {k: rep.y_operator(k) for k in range(lo, n + 1)}

    # Y_k Y_k = p^{n-k} Y_k and Y_k Y_{k-1} = Y_{k-1} Y_k = p^{n-k} Y_{k-1}
    for k in range(lo, n + 1):
        Y, s = yops[k], p ** (n - k)
        identities = [[(1, (Y, Y)), (-s, (Y,))]]
        if k > lo:
            Z = yops[k - 1]
            identities += [[(1, (Y, Z)), (-s, (Z,))], [(1, (Z, Y)), (-s, (Z,))]]
        with timed() as t:
            ok = all(_vanishes(F, combo) for combo in identities)
        check_bool(report, f"{tag}.projcert.k{k}", ok, "formula", t.elapsed)

    # E_k = Y_k / p^{n-k}; the components between consecutive levels are E_k - E_{k-1}
    E = {k: [(Fraction(1, p ** (n - k)), (yops[k],))] for k in yops}
    out = {f"i{k}": E[k] + [(-q, f) for q, f in E[k - 1]] for k in range(lo + 1, n + 1)}
    if r >= 1:
        return {f"i{r}": E[r], **out}

    # trivial twist: the bottom block splits once more under the w-operator
    U, Y1 = rep.piL_basis("w"), yops[1]
    with timed() as t:
        okU = _vanishes(F, [(1, (U, U)), (-(p ** (n - 1)) * (p - 1), (U,)), (-(p**n), (Y1,))])
        okUY = all(_vanishes(F, [(1, f), (-(p ** (n - 1)), (U,))]) for f in [(U, Y1), (Y1, U)])
    check_bool(report, f"{tag}.projcert.w", okU and okUY, "formula", t.elapsed)

    # w+ = (U + p^{n-1} E_1) / (p^n + p^{n-1}),  w- = (p^n E_1 - U) / (p^n + p^{n-1})
    s = Fraction(1, p**n + p ** (n - 1))
    return {"w+": [(s, (U,)), (s, (Y1,))], "w-": [(p * s, (Y1,)), (-s, (U,))], **out}


def _rank_mod_q(combo: list, mord: int) -> int:
    """Rank of a combination specialized at a root of unity in a prime field
    F_q with q = 1 (mod m) dividing no coefficient's denominator.  The F_q
    matrix is built straight from the phase perms, zeta -> z_q.  A lower
    bound on the true rank, used as an independent confirmation at small
    cells."""
    q = mord + 1
    while any(q % t == 0 for t in range(2, math.isqrt(q) + 1)) or any(
        c.denominator % q == 0 for c, _ in combo
    ):
        q += mord
    # an element of exact order m in F_q^x
    zq = None
    if mord == 1:
        zq = 1
    else:
        for h in range(2, q):
            g = pow(h, (q - 1) // mord, q)
            x = g
            order = 1
            while x != 1:
                order += 1
                x = x * g % q
            if order == mord:
                zq = g
                break
    if zq is None:
        raise AssertionError("no element of the right order found")
    zpow = np.array([pow(zq, e, q) for e in range(mord)], dtype=np.int64)
    dim = combo[0][1][0].dim
    M = np.zeros((dim, dim), dtype=np.int64)
    for rows, block in _row_blocks(combo):
        for c, x in block:
            w = c.numerator * pow(c.denominator, -1, q) % q
            np.add.at(M, (np.broadcast_to(rows, x.cls.shape), x.cls), zpow[x.e] * w % q)
    M %= q
    rank = 0
    row = 0
    for col in range(dim):
        piv = None
        for rr in range(row, dim):
            if M[rr, col] % q:
                piv = rr
                break
        if piv is None:
            continue
        M[[row, piv]] = M[[piv, row]]
        inv = pow(int(M[row, col]), -1, q)
        M[row] = M[row] * inv % q
        mask = np.arange(dim) != row
        M[mask] = (M[mask] - np.outer(M[mask, col], M[row])) % q
        rank += 1
        row += 1
        if row == dim:
            break
    return rank


def component_dimensions(rep: InducedRep, report: Optional[Report] = None) -> dict:
    """Dimensions of the irreducible components, by two routes that must
    agree: ranks of certified spectral projectors, and the exact linear
    system driven by operator traces."""
    p, n, r = rep.p, rep.n, rep.r
    lo = max(r, 1)
    own_report = report is None
    if own_report:
        report = Report(meta={"p": p, "n": n, "conrey": rep.chi.conrey_index()})
    tag = f"p{p}.n{n}.chi{rep.chi.conrey_index()}"

    # route one: projector ranks (exact; rank of a certified projector is its
    # trace)
    projs = _certify_projector_family(rep, report, tag)
    by_rank: dict[str, int] = {}
    for name, combo in projs.items():
        tr = _trace(rep.field, combo)
        if tr.denominator != 1:
            raise AssertionError(f"projector trace not integral: {tr}")
        by_rank[name] = int(tr)

    if p**n <= BRUTE_LIMIT:
        with timed() as t:
            ok = all(_rank_mod_q(projs[name], rep.field.order) == by_rank[name] for name in projs)
        check_bool(report, f"{tag}.rank-specialization", ok, "oracle", t.elapsed)

    # route two: solve for the dims from traces alone
    comp_names = list(projs.keys())
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def scalar_on(comp: str, kind: str, j: int) -> int:
        if comp.startswith("i"):
            return table_eigenvalue(kind, p, n, int(comp[1:]), j)
        # w blocks: the y-side acts through the bottom slot
        return table_eigenvalue(kind, p, n, 1, j)

    def trace_of(*factors: PhasePermSum) -> Fraction:
        return _trace(rep.field, [(1, factors)])

    for j in range(lo, n):
        rows.append([Fraction(scalar_on(cn, "V", j)) for cn in comp_names])
        tr = trace_of(rep.piL_basis(f"y{j}"))
        rhs.append(tr)
        if report is not None:
            check(report, f"{tag}.trace.y{j}", "0", str(tr), "formula", 0.0)
    rows.append([Fraction(1)] * len(comp_names))
    rhs.append(Fraction(rep.dim))
    if r == 0:
        U = rep.piL_basis("w")
        uvals = {"w+": Fraction(p**n), "w-": Fraction(-(p ** (n - 1)))}
        rows.append([uvals.get(cn, Fraction(0)) for cn in comp_names])
        rhs.append(trace_of(U))
        rows.append([uvals.get(cn, Fraction(0)) ** 2 for cn in comp_names])
        rhs.append(trace_of(U, U))

    k = len(comp_names)
    sol = _solve_fraction_system([row[:] for row in rows[:k]], rhs[:k])
    consistent = all(
        sum(c * s for c, s in zip(row, sol)) == b for row, b in zip(rows, rhs)
    )
    by_system = {cn: sol[idx] for idx, cn in enumerate(comp_names)}
    if not consistent:
        raise AssertionError("trace system inconsistent with its extra rows")
    if any(s.denominator != 1 for s in by_system.values()):
        raise AssertionError("non-integral component dimension from trace system")
    by_system = {cn: int(s) for cn, s in by_system.items()}

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
