"""Finite model of GL2(Z_p) mod p^n: matrices, the upper-triangular-mod-p^n
subgroup K0(p^n), and its single/double coset geometry.

Right cosets K0 g are classified by the bottom row of g up to unit scaling,
i.e. by points of P^1(Z/p^n) in the canonical form (1 : d) (unit lower-left)
or (c : 1) with c in pZ/p^n.  Double cosets are classified by the p-adic
valuation of the canonical c capped at n, its stratum: stratum 0 -> the w
class, j in [1, n-1] -> the y(p^j) class, n -> the identity class
y(p^n) = K0.  Only this module turns strata into the labels "w", "y{j}" and
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .cellcache import cell_cache
from .characters import _vp, _vp_array

# The one size budget, on the elements a cell walks.  Enumerating K0(p^m)
# mod p^n: at m = n it admits exactly the cells with p^n <= 128 (K0(125) has
# 1.25M elements, K0(343) 29.6M).  The transport tables hold dim^2 entries
# each, computed a block of lower rows at a time: it admits every cell up to
# (5, 4) (562,500) and refuses (7, 4) (7.5M).
K0_ENUMERATION_LIMIT = 2**21

# Elements per block of a walk: the transient arrays of one block stay near
# 2 MB, so a walk adds little to a process's peak.  The K0 enumeration, the
# transport build and the support law's K_g walk (hecke._Kg_twist_pairs)
# share it.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class MatPn:
    """2x2 matrix over Z/p^n with unit determinant."""

    p: int
    n: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        pn = self.p**self.n
        object.__setattr__(self, "a", self.a % pn)
        object.__setattr__(self, "b", self.b % pn)
        object.__setattr__(self, "c", self.c % pn)
        object.__setattr__(self, "d", self.d % pn)
        if math.gcd(self.det(), self.p) != 1:
            raise ValueError(f"determinant {self.det()} is not a unit mod {self.p}^{self.n}")

    @property
    def pn(self) -> int:
        return self.p**self.n

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.pn

    def __matmul__(self, other: "MatPn") -> "MatPn":
        if not isinstance(other, MatPn):
            return NotImplemented
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mixed moduli")
        return MatPn(
            self.p,
            self.n,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "MatPn":
        di = pow(self.det(), -1, self.pn)
        return MatPn(self.p, self.n, di * self.d, -di * self.b, -di * self.c, di * self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.p}^{self.n}"


@lru_cache(maxsize=None)
def _unit_inverses(p: int, n: int) -> np.ndarray:
    """u -> u^{-1} mod p^n on the units, 0 on the non-units."""
    pn = p**n
    return np.array([pow(u, -1, pn) if u % p else 0 for u in range(pn)], dtype=np.int64)


class MatArray:
    """Many 2x2 matrices over Z/p^n as one struct of int64 entry arrays.

    The vectorized counterpart of MatPn: a, b, c, d are reduced mod p^n and
    share one shape.  The constructor does not ask for unit determinants
    (filter with det() first); inv() raises if any matrix is singular.  A
    MatPn on either side of @ is broadcast against every matrix.  Indexing
    by a mask, a slice or an index array gives a MatArray, by an integer the
    MatPn at that place.
    """

    __slots__ = ("p", "n", "a", "b", "c", "d")

    def __init__(self, p: int, n: int, a, b, c, d):
        pn = p**n
        self.p = p
        self.n = n
        self.a, self.b, self.c, self.d = np.broadcast_arrays(
            *(np.asarray(x, dtype=np.int64) % pn for x in (a, b, c, d))
        )

    @classmethod
    def stack(cls, p: int, n: int, mats) -> "MatArray":
        """The MatPn of a sequence, in order."""
        ent = np.array([g.entries() for g in mats], dtype=np.int64).reshape(-1, 4)
        return cls(p, n, *ent.T)

    @classmethod
    def concat(cls, p: int, n: int, parts: list["MatArray"]) -> "MatArray":
        return cls(p, n, *(np.concatenate(x) for x in zip(*(g.entries() for g in parts))))

    @property
    def pn(self) -> int:
        return self.p**self.n

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return MatPn(self.p, self.n, *(int(x[key]) for x in self.entries()))
        return MatArray(self.p, self.n, *(x[key] for x in self.entries()))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> np.ndarray:
        return (self.a * self.d - self.b * self.c) % self.pn

    def __matmul__(self, other) -> "MatArray":
        if not isinstance(other, (MatArray, MatPn)):
            return NotImplemented
        return _product(self, other)

    def __rmatmul__(self, other) -> "MatArray":
        if not isinstance(other, MatPn):
            return NotImplemented
        return _product(other, self)

    def inv(self) -> "MatArray":
        det = self.det()
        if np.any(det % self.p == 0):
            raise ValueError(f"a determinant is not a unit mod {self.p}^{self.n}")
        di = _unit_inverses(self.p, self.n)[det]
        return MatArray(self.p, self.n, di * self.d, -di * self.b, -di * self.c, di * self.a)

    def __repr__(self):
        return f"MatArray({len(self)} matrices mod {self.p}^{self.n})"


def _product(x, y) -> MatArray:
    """Entrywise matrix product of two MatArray, or of a MatArray and a MatPn."""
    if (x.p, x.n) != (y.p, y.n):
        raise ValueError("mixed moduli")
    return MatArray(
        x.p,
        x.n,
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def identity(p: int, n: int) -> MatPn:
    return MatPn(p, n, 1, 0, 0, 1)


def w1(p: int, n: int) -> MatPn:
    return MatPn(p, n, 0, -1, 1, 0)


def xmat(p: int, n: int, t: int) -> MatPn:
    return MatPn(p, n, 1, t, 0, 1)


def ymat(p: int, n: int, s: int) -> MatPn:
    return MatPn(p, n, 1, 0, s, 1)


def dmat(p: int, n: int, s: int) -> MatPn:
    return MatPn(p, n, s, 0, 0, 1)


def in_K0(g: MatPn) -> bool:
    """Membership in K0(p^n): lower-left entry divisible by p^n (elementwise
    for a MatArray)."""
    return g.c % g.pn == 0


class CosetTable:
    """Coset bookkeeping for one (p, n), as numpy arrays.

    Position k holds one canonical representative (rep_array[k]) and its
    double-coset stratum (stratum[k]).  The (1 : d) classes come first, at
    position d, with representative w(1) x(d) = (0, -1; 1, d) and stratum 0;
    then the (c : 1) classes for c in pZ/p^n, ordered by (v_p(c), c), with
    representative y(c) and stratum v_p(c) (n for c = 0).  decompose_rows
    decomposes many elements at once from their lower rows; position_of and
    decompose do one MatPn at a time, as the scalar reference.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.pn = pn = p**n
        c = np.arange(0, pn, p)
        v = _vp_array(c, p, n)
        order = np.lexsort((c, v))
        c, v = c[order], v[order]
        self.dim = pn + len(c)
        self.rep_array = MatArray.concat(p, n, [
            MatArray(p, n, 0, -1, 1, np.arange(pn)),  # w(1) x(d)
            MatArray(p, n, 1, 0, c, 1),  # y(c)
        ])
        self.stratum = np.concatenate([np.zeros(pn, dtype=np.int64), v])
        self._rep_inv_array = self.rep_array.inv()
        # position of (c : 1) by c; (1 : d) sits at position d
        self._c1_position = np.full(pn, -1, dtype=np.int64)
        self._c1_position[c] = np.arange(pn, self.dim)

    def position_of(self, g: MatPn) -> int:
        """Position of the right coset K0 g, from g's bottom row scaled to
        (1 : d) or (c : 1) with `pow`."""
        if g.c % self.p != 0:
            return pow(g.c, -1, self.pn) * g.d % self.pn
        # a unit determinant with p | c forces d to be a unit
        return int(self._c1_position[pow(g.d, -1, self.pn) * g.c % self.pn])

    def decompose(self, g: MatPn) -> tuple[int, MatPn]:
        """g = k0 * rep_array[position]: (position, k0)."""
        pos = self.position_of(g)
        k0 = g @ self.rep_array[pos].inv()
        if not in_K0(k0):
            raise ValueError(f"{g!r} = k0 * rep left K0(p^n): k0 = {k0!r}")
        return pos, k0

    def decompose_rows(self, c, d) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized decompose, read from the lower rows (c, d) alone:
        positions, and the lower-right entry d0 of k0 with g = k0 *
        rep_array[position].

        The lower row of k0 * rep is k0's lower-right entry times rep's lower
        row, so (c, d) fixes the coset, and the lower row of k0 is (c, d)
        times rep^-1.  A row that is not primitive mod p (g without a unit
        determinant) and a k0 whose lower-left entry is not 0 (k0 outside
        K0(p^n)) raise ValueError."""
        p, pn = self.p, self.pn
        c, d = np.asarray(c, dtype=np.int64) % pn, np.asarray(d, dtype=np.int64) % pn
        unit_c = c % p != 0
        if np.any(~unit_c & (d % p == 0)):
            raise ValueError(f"a lower row is not primitive mod {p}: no unit determinant")
        inv = _unit_inverses(p, self.n)
        # a unit determinant with p | c forces d to be a unit
        pos = np.where(unit_c, inv[c] * d % pn, self._c1_position[inv[d] * c % pn])
        ri = self._rep_inv_array
        if np.any((c * ri.a[pos] + d * ri.c[pos]) % pn):
            raise ValueError("a factor k0 = g * rep^-1 left K0(p^n)")
        return pos, (c * ri.b[pos] + d * ri.d[pos]) % pn


@cell_cache
def coset_table(p: int, n: int) -> CosetTable:
    return CosetTable(p, n)


def label_stratum(n: int, lab: str) -> int:
    """The stratum a label names: 0 for "w", j for "y{j}" with 1 <= j <= n."""
    if lab == "w":
        return 0
    if lab.startswith("y"):
        j = int(lab[1:])
        if not 1 <= j <= n:
            raise ValueError(f"label {lab} out of range")
        return j
    raise ValueError(f"unknown label {lab}")


def stratum_label(j: int) -> str:
    """The label of stratum j."""
    return f"y{j}" if j else "w"


def stratum_of(g: MatPn) -> int:
    """The double-coset stratum of g, read off its lower-left entry c: 0 when
    p does not divide c, else min(v_p(c), n)."""
    return _vp(g.c or g.pn, g.p)


def double_coset_label(g: MatPn) -> str:
    """Label in {"w"} | {"y1", ..., "yn"}; "yn" is the K0(p^n) class itself."""
    return stratum_label(stratum_of(g))


def label_rep(p: int, n: int, lab: str) -> MatPn:
    """The standard double-coset representative for a label: w(1), or
    y(p^j) (the identity for j = n)."""
    j = label_stratum(n, lab)
    return ymat(p, n, p**j) if j else w1(p, n)


def all_labels(p: int, n: int) -> list[str]:
    return [stratum_label(j) for j in range(n + 1)]


def unit_lifts(p: int, modulus_exp: int) -> list[int]:
    """Smallest positive lifts of (Z/p^modulus_exp)^x.
    For modulus_exp = 0 the group is trivial: [1]."""
    if modulus_exp == 0:
        return [1]
    pm = p**modulus_exp
    return [s for s in range(1, pm + 1) if s % p != 0]


def class_right_reps(p: int, n: int, lab: str) -> MatArray:
    """Representatives a_i with the double coset of `lab` equal to the disjoint
    union of the right cosets a_i K0(p^n), in closed form.

    y(p^j) class: d(s) y(p^j) = (s, 0; p^j, 1) over unit classes s mod
    p^{n-j}; w class: x(t) w = (t, -1; 1, 0) over t mod p^n; identity
    class: [I].  Each has twist 1: its lower-right entry (lower-left for w)
    is 1.
    """
    j = label_stratum(n, lab)
    if j == n:
        return MatArray(p, n, [1], [0], [0], [1])
    if j == 0:
        return MatArray(p, n, np.arange(p**n), -1, 1, 0)
    return MatArray(p, n, unit_lifts(p, n - j), 0, p**j, 1)


def class_left_reps(p: int, n: int, lab: str) -> MatArray:
    """Mirrored decomposition into left cosets K0(p^n) b_i, in closed form.

    y(p^j) class: y(p^j) d(s) = (s, 0; p^j s, 1) over unit classes s mod
    p^{n-j}; w class: w x(t) = (0, -1; 1, t) over t mod p^n; identity
    class: [I].
    """
    j = label_stratum(n, lab)
    if j == n:
        return MatArray(p, n, [1], [0], [0], [1])
    if j == 0:
        return MatArray(p, n, 0, -1, 1, np.arange(p**n))
    s = np.array(unit_lifts(p, n - j), dtype=np.int64)
    return MatArray(p, n, s, 0, p**j * s, 1)


@cell_cache
def _left_transport(p: int, n: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """How the class representatives move the cosets: for each label, with a
    running over class_right_reps(p, n, label), a^{-1} rep_c = k0 rep_{cls[a, c]}
    and d0[a, c] is the lower-right entry of k0.

    Character-independent, shared by every chi at this cell: the coset sum of
    the algebra and its left action on the induced model both read it.  Only
    the lower row of a^{-1} rep_c is computed, the two entries
    CosetTable.decompose_rows reads, over blocks of about _BLOCK_ELEMENTS
    products.  Both tables take the smallest unsigned dtype that holds dim,
    and so p^n.  The class sizes add up to dim, so each table holds dim^2
    entries; a cell over the size budget is refused before any is built.
    """
    dim = p**n + p ** (n - 1)
    if dim * dim > K0_ENUMERATION_LIMIT:
        raise ValueError(
            f"transport tables mod {p}^{n} hold {dim * dim} entries each; "
            f"the limit is {K0_ENUMERATION_LIMIT}"
        )
    table = coset_table(p, n)
    rep = table.rep_array
    step = max(1, _BLOCK_ELEMENTS // dim)
    out = {}
    for lab in all_labels(p, n):
        ainv = class_right_reps(p, n, lab).inv()
        cls = np.empty((len(ainv), dim), dtype=np.min_scalar_type(dim))
        d0 = np.empty_like(cls)
        for lo in range(0, len(ainv), step):
            c, d = ainv.c[lo : lo + step, None], ainv.d[lo : lo + step, None]
            cls[lo : lo + step], d0[lo : lo + step] = table.decompose_rows(
                c * rep.a + d * rep.c, c * rep.b + d * rep.d
            )
        out[lab] = (cls, d0)
    return out


# ---------------------------------------------------------------------------
# K0 enumeration and the K_g subgroup
# ---------------------------------------------------------------------------


def k0_order(p: int, n: int, m: Optional[int] = None) -> int:
    """|K0(p^m)| inside GL2(Z/p^n): a and d units, b free, c in p^m Z/p^n."""
    m = n if m is None else m
    phi = p**n - p ** (n - 1)
    return phi * phi * p**n * p ** (n - m)


def require_enumerable(p: int, n: int, m: int) -> None:
    """The size guard of every walk over K0(p^m) mod p^n: ValueError above
    K0_ENUMERATION_LIMIT elements, raised before anything is built."""
    if not 1 <= m <= n:
        raise ValueError(f"K0 enumeration needs 1 <= m <= {n} (m = 0 is the full group)")
    count = k0_order(p, n, m)
    if count > K0_ENUMERATION_LIMIT:
        raise ValueError(
            f"K0(p^{m}) mod {p}^{n} has {count} elements; the limit is {K0_ENUMERATION_LIMIT}"
        )


def _K0_blocks(p: int, n: int, m: int) -> Iterator[MatArray]:
    """K0(p^m) mod p^n in blocks of a-values, ordered by (a, d, b, c).

    With the lower-left entry divisible by p (m >= 1), the determinant is a
    unit exactly when both diagonal entries are units, so no filtering is
    needed.  The size guard raises here, before any block is built.
    """
    require_enumerable(p, n, m)
    pn = p**n
    units = np.flatnonzero(np.arange(pn) % p)
    b, c = np.arange(pn), np.arange(0, pn, p**m)
    step = max(1, _BLOCK_ELEMENTS // (len(units) * pn * len(c)))

    def block(lo: int) -> MatArray:
        a, d, bb, cc = np.meshgrid(units[lo : lo + step], units, b, c, indexing="ij")
        return MatArray(p, n, a.ravel(), bb.ravel(), cc.ravel(), d.ravel())

    return map(block, range(0, len(units), step))


def enumerate_K0(p: int, n: int, m: Optional[int] = None) -> MatArray:
    """All elements of K0(p^m) inside GL2(Z/p^n), for 1 <= m <= n; refused
    with ValueError above K0_ENUMERATION_LIMIT elements."""
    return MatArray.concat(p, n, list(_K0_blocks(p, n, n if m is None else m)))


def Kg_blocks(g: MatPn) -> Iterator[tuple[MatArray, MatArray]]:
    """Pairs (k, g k g^{-1}) over k in K_g = g^{-1} K0(p^n) g  intersect
    K0(p^n), one block of K0(p^n) at a time; same guard as enumerate_K0.
    The full-matrix conjugation: the reference for hecke._Kg_twist_pairs,
    which computes only the conjugate's lower row."""
    gi = g.inv()
    for k in _K0_blocks(g.p, g.n, g.n):
        conj = g @ k @ gi
        keep = in_K0(conj)
        yield k[keep], conj[keep]


def enumerate_Kg(g: MatPn) -> MatArray:
    """K_g = g^{-1} K0(p^n) g  intersect  K0(p^n), by conjugating K0(p^n)."""
    return MatArray.concat(g.p, g.n, [k for k, _ in Kg_blocks(g)])


def Kg_condition_closed_form(g: MatPn, k):
    """Membership test for K_g without enumeration (g a standard rep); k a
    MatPn, or a MatArray for an elementwise mask.

    For g = y(p^m) with m < n, conjugating k = (a, b; c, d) gives lower-left
    c + p^m (a - d - p^m b), so k is in K_g iff a - d - p^m b = 0 mod p^{n-m}.
    For g = w(1) the condition is b = 0 mod p^n; the identity gives all of K0.
    """
    p, n = g.p, g.n
    m = stratum_of(g)
    if m == n:
        return in_K0(k)
    if m == 0:
        return in_K0(k) & (k.b % k.pn == 0)
    return in_K0(k) & ((k.a - k.d - p**m * k.b) % p ** (n - m) == 0)
