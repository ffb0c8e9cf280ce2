"""Operators held as sums of maps of the coordinates, and their exact
certificates.

A PermSum is a sum of operators that each read every coordinate from one
other coordinate.  It acts on integer vectors by gathers (_act).
Combinations of their products are certified exactly in two ways:
_ColumnRoute reads vanishing and traces off one column, for factors that
commute with a transitive set of coordinate permutations, which it checks;
_rank_mod_q forms the (dim, dim) count matrices and their products, a block
of rows at a time, and reduces them into a prime field.  Every integer is
held in a dtype that _exact_dtype proves exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .cyclotomic import _exact_dtype
from .hecke import AlgebraError


class PermSum:
    """Sum of A operators, each a map of the dim coordinates.

    cls[a, c] is the source coordinate feeding row c under operator a, i.e.
    (T_a v)[c] = v[cls[a, c]], in whatever integer dtype it is given (a
    transport table is kept as it is, without a copy).  The certificates
    apply it to vectors (_act); only the prime-field rank confirmation reads
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


def _act(op: PermSum, v: np.ndarray) -> np.ndarray:
    """Apply an operator to an integer vector, one term per map of the
    coordinates; the image is an integer vector."""
    # each image coordinate sums one entry of v per term
    dt = _exact_dtype(op.terms * float(np.abs(v).max(initial=0)))
    return np.asarray(v, dtype=dt)[op.cls].sum(axis=0).astype(np.int64)


# A combination [(q, (A, B, ...))] stands for the operator sum of q * A B ...
# over its terms, each factor a PermSum.  The certificates read it off one
# column (_ColumnRoute); the prime-field rank confirmation forms its products
# on the factors' count matrices, one block of rows at a time (_row_blocks).

_BLOCK_ENTRIES = 2**14  # the fewest entries a row block holds, unless it is one row
_RANK_PRIME = 2**31 - 1  # a prime: products of two residues stay below 2^62


class _ColumnRoute:
    """Exact vanishing and traces of combinations whose factors commute with
    a transitive set of coordinate permutations, read off column 0.

    Proof.  Let T commute with P for each map perm in `perms`, (P v)[c] =
    v[perm[c]], and let the orbit of coordinate 0 under the maps be every
    coordinate.  Each element g of the finite group they generate is a word
    in them, so T P_g = P_g T, and for c = g^-1(0), P_g e_0 = e_c, so T e_c =
    P_g T e_0: column c is column 0 permuted, and T[c, c] = (T e_0)[g(c)] =
    T[0, 0].  So T = 0 iff T e_0 = 0, and tr T = dim * T[0, 0].  Sums and
    products keep the commutation, so it is checked once per factor: T P =
    P T iff row perm[c] of T reads, as a multiset, the images under perm of
    row c's sources.  On a failed premise `vanishes` is False and `trace`
    raises: it never passes.
    """

    def __init__(self, perms: list[np.ndarray]):
        self.dim = dim = len(perms[0])
        bijective = bool((np.sort(perms, axis=1) == np.arange(dim)).all())
        self.perms = np.asarray(perms).astype(np.min_scalar_type(dim))
        seen = front = np.arange(dim) == 0
        while bijective and front.any():
            step = np.zeros(dim, dtype=bool)
            step[self.perms[:, front]] = True
            front, seen = step & ~seen, step | seen
        self.transitive = bijective and bool(seen.all())
        self._checked: dict[int, tuple] = {}  # id(op) -> (op, verdict)
        self._images: dict[tuple, tuple] = {(): ((), (np.arange(dim) == 0).astype(np.int64))}

    def commutes(self, op: PermSum) -> bool:
        """Whether op commutes with every map, on sorted columns of sources
        in their own dtype, checked once per operator."""
        if id(op) not in self._checked:
            rows = np.sort(op.cls, axis=0)
            self._checked[id(op)] = op, op.dim == self.dim and all(
                np.array_equal(np.sort(perm[op.cls], axis=0), rows[:, perm]) for perm in self.perms)
        return self._checked[id(op)][1]

    def holds(self, combo: list) -> bool:
        return self.transitive and all(self.commutes(f) for _, factors in combo for f in factors)

    def _image(self, factors: tuple) -> np.ndarray:
        """A product applied to e_0, its last factor first (_act), in exact
        integers; kept, with its factors, for the products that end in it."""
        key = tuple(map(id, factors))
        if key not in self._images:
            self._images[key] = factors, _act(factors[0], self._image(factors[1:]))
        return self._images[key][1]

    def _column(self, combo: list) -> tuple[np.ndarray, int]:
        """(den T e_0, den), den the lcm of the weights' denominators."""
        den = math.lcm(*(q.denominator for q, _ in combo))
        terms = [(int(q * den), self._image(tuple(factors))) for q, factors in combo]
        # images of e_0 under products of counts are nonnegative
        dt = _exact_dtype(sum(abs(w) * float(v.max(initial=0)) for w, v in terms))
        return sum(w * v.astype(dt) for w, v in terms), den

    def vanishes(self, combo: list) -> bool:
        """Exact certificate that a combination is the zero operator."""
        return self.holds(combo) and not self._column(combo)[0].any()

    def trace(self, combo: list) -> Fraction:
        """Exact trace of a combination; AlgebraError when the premise fails."""
        if not self.holds(combo):
            raise AlgebraError("no trace: an operator fails to commute with a transitive right translation")
        col, den = self._column(combo)
        return Fraction(self.dim * int(col[0]), den)


def _block_rows(dim: int, width: int) -> int:
    """Rows per block, for rows of `width` entries: a block holds about an
    eighth of a (dim, dim) matrix, and at least _BLOCK_ENTRIES entries, or a
    single row.

    The count matrices and the products of the rank confirmation are built
    a block at a time, so their transient arrays stay small beside the
    (dim, dim) results.  The floor keeps the blocks of small operators
    whole."""
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
