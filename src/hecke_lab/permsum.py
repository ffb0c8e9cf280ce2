"""Operators held as sums of maps of the coordinates, and their exact
certificates.

A PermSum is a sum of operators that each read every coordinate from one
other coordinate: it is only those maps, and it acts on integer vectors by
gathers (_act).  Combinations of their products are certified exactly in
two ways: _ColumnRoute reads vanishing and traces off one column, for
factors that commute with a transitive set of coordinate permutations,
which it checks; _rank_mod_q, a confirmation on small cells, builds each
factor's (dim, dim) matrix from its definition per call, multiplies in
int64 and reduces into a prime field.  Every integer is int64; gathers and
column images pass one guard, _require_int64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .hecke import AlgebraError


def _require_int64(bound: int) -> None:
    """OverflowError unless `bound`, on every value and partial sum of an
    integer computation, is below 2^62, where int64 is exact."""
    if bound >= 2**62:
        raise OverflowError(f"integer bound {bound:.3g} does not fit int64")


class PermSum:
    """Sum of A operators, each a map of the dim coordinates.

    cls[a, c] is the source coordinate feeding row c under operator a, i.e.
    (T_a v)[c] = v[cls[a, c]], in whatever integer dtype it is given (a
    transport table is kept as it is, without a copy).  The certificates
    apply it to vectors (_act), or build its matrix from the maps
    (_rank_mod_q).
    """

    __slots__ = ("cls",)

    def __init__(self, cls: np.ndarray):
        self.cls = np.atleast_2d(np.asarray(cls))

    @property
    def terms(self) -> int:
        return self.cls.shape[0]

    @property
    def dim(self) -> int:
        return self.cls.shape[1]


def _act(op: PermSum, v: np.ndarray) -> np.ndarray:
    """Apply an operator to an integer vector, one term per map of the
    coordinates; the image is an integer vector."""
    # each image coordinate sums one entry of v per term
    v = np.asarray(v, dtype=np.int64)
    _require_int64(op.terms * int(np.abs(v).max(initial=0)))
    return v[op.cls].sum(axis=0)


# A combination [(q, (A, B, ...))] stands for the operator sum of q * A B ...
# over its terms, each factor a PermSum.  The certificates read it off one
# column (_ColumnRoute); the prime-field rank confirmation forms its products
# from the factors' matrices (_rank_mod_q).


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
        # images of e_0 under products of the operators are nonnegative
        _require_int64(sum(abs(w) * int(v.max(initial=0)) for w, v in terms))
        return sum(w * v for w, v in terms), den

    def vanishes(self, combo: list) -> bool:
        """Exact certificate that a combination is the zero operator."""
        return self.holds(combo) and not self._column(combo)[0].any()

    def trace(self, combo: list) -> Fraction:
        """Exact trace of a combination; AlgebraError when the premise fails."""
        if not self.holds(combo):
            raise AlgebraError("no trace: an operator fails to commute with a transitive right translation")
        col, den = self._column(combo)
        return Fraction(self.dim * int(col[0]), den)


_RANK_PRIME = 2**31 - 1  # a prime: products of two residues stay below 2^62


def _rank_mod_q(combo: list) -> int:
    """Rank of a combination reduced into the prime field F_q, q =
    _RANK_PRIME (a coefficient whose denominator q divides has no image:
    `pow` refuses it).  A lower bound on the true rank, used as an
    independent confirmation at small cells.

    Each factor's matrix is built from its definition, not through _act:
    entry (c, c') counts the terms a with cls[a, c] = c'.  Entries are
    nonnegative and every row sums to the number of terms, so no entry or
    partial sum of a product exceeds the product of its factors' terms; a
    product whose terms multiply to 2^62 or more is refused (OverflowError)
    before any matrix is formed, and the rest are exact in int64."""
    q = _RANK_PRIME
    dim = combo[0][1][0].dim
    if any(f.dim != dim for _, factors in combo for f in factors):
        raise ValueError("mismatched operators")
    if any(math.prod(f.terms for f in factors) >= 2**62 for _, factors in combo):
        raise OverflowError("a product of count matrices may not be exact in int64")
    starts = np.arange(dim, dtype=np.int64) * dim  # the flat index of each row

    def matrix(f: PermSum) -> np.ndarray:
        return np.bincount((starts + f.cls).ravel(), minlength=dim * dim).reshape(dim, dim)

    M = np.zeros((dim, dim), dtype=np.int64)
    for c, factors in combo:
        w = c.numerator * pow(c.denominator, -1, q) % q
        M = (M + w * (reduce(np.matmul, map(matrix, factors)) % q)) % q
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
