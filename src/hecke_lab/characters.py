"""Characters of (Z/p^n)^x and Dirichlet characters mod N.

Characters are stored by exponents on a fixed generating set of the unit
group, and a value chi(u) = zeta_m^e is read as its exponent e (or as a
complex number on the numerical side).  The ambient cyclotomic order m for a
modulus is the exponent of its unit group, so every character of that
modulus shares one field.  Conrey's labeling of characters
(as used by public modular-forms datasets) is supported at the interfaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .cyclotomic import _factorize, euler_phi, get_field


@dataclass(frozen=True, eq=False)
class UnitGroup:
    """(Z/p^n)^x as arrays over the residues mod p^n, all read-only.

    `units`: the units in increasing order (their smallest positive lifts).
    `inverse[u]`: u^-1 mod p^n, 0 at non-units.  `generators`, `orders`: the
    canonical generators g_i and their orders.  `dlog[u]`: the exponents e
    with u = prod g_i^e_i, 0 <= e_i < orders[i], -1 at non-units.
    `exponent`: the exponent of the group.
    """

    units: np.ndarray
    inverse: np.ndarray
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: np.ndarray
    exponent: int


@lru_cache(maxsize=None)
def unit_group(p: int, n: int) -> UnitGroup:
    """The unit group mod p^n on its canonical generators.

    For odd p: one generator, the least primitive root mod p that stays
    primitive mod p^2 (hence mod every power).  For p = 2: none for n = 1,
    3 of order 2 for n = 2, and -1 of order 2 with 5 of order 2^(n-2) for
    n >= 3.
    """
    if _factorize(p) != [(p, 1)]:
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    pn = p**n
    if p != 2:
        gens, orders = (_least_stable_primitive_root(p) % pn,), (euler_phi(pn),)
    elif n >= 3:
        gens, orders = (pn - 1, 5), (2, pn // 4)
    else:
        gens, orders = ((3,), (2,)) if n == 2 else ((), ())
    units = np.flatnonzero(np.arange(pn) % p)
    inverse = np.zeros(pn, dtype=np.int64)
    inverse[units] = [pow(int(u), -1, pn) for u in units]
    dlog = np.full((pn, len(gens)), -1, dtype=np.int64)
    for exps in itertools.product(*map(range, orders)):
        dlog[math.prod(pow(g, e, pn) for g, e in zip(gens, exps)) % pn] = exps
    for table in (units, inverse, dlog):
        table.flags.writeable = False
    return UnitGroup(units, inverse, gens, orders, dlog, math.lcm(*orders))


@lru_cache(maxsize=None)
def _least_stable_primitive_root(p: int) -> int:
    """The least g in [2, p^2) of order p - 1 mod p and p(p - 1) mod p^2.

    g has order p - 1 mod p exactly when g^((p-1)/q) != 1 mod p for every
    prime q | p - 1.  Its order mod p^2 is then p - 1 or p(p - 1), and the
    latter exactly when g^(p-1) != 1 mod p^2."""
    cofactors = [(p - 1) // q for q, _ in _factorize(p - 1)]
    for g in range(2, p**2):
        if g % p == 0:
            continue
        if all(pow(g, e, p) != 1 for e in cofactors) and pow(g, p - 1, p * p) != 1:
            return g
    raise ArithmeticError("no primitive root found")  # unreachable for prime p


class PChar:
    """Character of (Z/p^n)^x, to be extended to upper-triangular-mod-p^n
    matrices through the lower-right entry.

    `exps[i]` is a_i with chi(g_i) = e(a_i / ord(g_i)) on the canonical
    generators.  Values are exponents in the shared field Q(zeta_m) with m the
    exponent of the unit group.
    """

    def __init__(self, p: int, n: int, exps):
        self.p = p
        self.n = n
        self.modulus = p**n
        group = unit_group(p, n)
        if len(exps) != len(group.orders):
            raise ValueError("exponent vector does not match generator count")
        self.exps = exps = tuple(int(e) % d for e, d in zip(exps, group.orders))
        self.order = 1
        for a, d in zip(exps, group.orders):
            self.order = math.lcm(self.order, d // math.gcd(a, d))
        m = group.exponent
        self.field = get_field(m)
        # chi(u) = zeta_m^(sum_i a_i dlog_i(u) m / ord(g_i)) on the units
        weights = np.array([a * (m // d) for a, d in zip(exps, group.orders)], dtype=np.int64)
        self._vexp = np.full(self.modulus, -1, dtype=np.int64)
        self._vexp[group.units] = group.dlog[group.units] @ weights % m
        self._vexp.flags.writeable = False
        self.conductor_exponent = self._min_conductor_exponent()

    def _min_conductor_exponent(self) -> int:
        # smallest r with chi trivial on every unit congruent to 1 mod p^r,
        # read off the whole exponent table
        units = self._vexp >= 0
        u = np.arange(self.modulus)
        for r in range(self.n + 1):
            if not self._vexp[units & ((u - 1) % self.p**r == 0)].any():
                return r
        raise AssertionError("unreachable: r = n always works")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, p: int, n: int) -> "PChar":
        return cls(p, n, (0,) * len(unit_group(p, n).orders))

    @classmethod
    def from_conrey(cls, p: int, n: int, index: int) -> "PChar":
        pn = p**n
        index %= pn
        if math.gcd(index, pn) != 1:
            raise ValueError("Conrey index must be a unit")
        return cls(p, n, unit_group(p, n).dlog[index].tolist())

    @classmethod
    def all_characters(cls, p: int, n: int) -> Iterator["PChar"]:
        """Every character mod p^n, the first generator's exponent running
        fastest."""
        orders = unit_group(p, n).orders
        for exps in itertools.product(*map(range, reversed(orders))):
            yield cls(p, n, exps[::-1])

    # -- evaluation --------------------------------------------------------

    def exponent(self, u: int) -> int:
        """chi(u) = zeta_m^exponent(u); error on non-units."""
        e = int(self._vexp[u % self.modulus])
        if e < 0:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        return e

    def conrey_index(self) -> int:
        pn = self.modulus
        gens = unit_group(self.p, self.n).generators
        return math.prod(pow(g, a, pn) for g, a in zip(gens, self.exps)) % pn

    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.exps)

    def exponent_table(self) -> np.ndarray:
        return self._vexp

    def __repr__(self):
        return f"PChar(p={self.p}, n={self.n}, exps={self.exps}, r={self.conductor_exponent})"

    def __eq__(self, other):
        return (
            isinstance(other, PChar)
            and (self.p, self.n, self.exps) == (other.p, other.n, other.exps)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.exps))


# ---------------------------------------------------------------------------
# Dirichlet characters mod N
# ---------------------------------------------------------------------------


def _vp_array(x, p: int, cap: int):
    """Elementwise p-adic valuation capped at cap >= 1, so 0 maps to cap:
    an int for an int x, an int64 array for an integer array x."""
    return sum((x % p**k == 0 for k in range(1, cap + 1)), 0)


class DirChar:
    """Dirichlet character mod N as a CRT product of prime-power components.

    Values are exponents in Q(zeta_m) with m the lcm of the component field
    orders; chi(u) = 0 for non-units (classical convention), which `exponent`
    reads as None.
    """

    def __init__(self, modulus: int, components: dict[int, PChar]):
        self.modulus = modulus
        fact = dict(_factorize(modulus))
        if set(components) != set(fact):
            raise ValueError("components must be indexed by the primes dividing N")
        for p, chi_p in components.items():
            if chi_p.p != p or chi_p.n != fact[p]:
                raise ValueError("component modulus mismatch")
        self.components: dict[int, PChar] = dict(sorted(components.items()))
        m = 1
        for chi_p in self.components.values():
            m = math.lcm(m, chi_p.field.order)
        if modulus == 1:
            m = 1
        self.field = get_field(m)
        self.order = 1
        for chi_p in self.components.values():
            self.order = math.lcm(self.order, chi_p.order)
        self.conductor = 1
        for p, chi_p in self.components.items():
            self.conductor *= p**chi_p.conductor_exponent

    @classmethod
    def trivial(cls, modulus: int) -> "DirChar":
        comps = {p: PChar.trivial(p, a) for p, a in _factorize(modulus)}
        return cls(modulus, comps)

    @classmethod
    def from_conrey(cls, modulus: int, index: int) -> "DirChar":
        if modulus == 1:
            return cls(1, {})
        if math.gcd(index, modulus) != 1:
            raise ValueError("Conrey index must be coprime to the modulus")
        comps = {p: PChar.from_conrey(p, a, index % p**a) for p, a in _factorize(modulus)}
        return cls(modulus, comps)

    @classmethod
    def from_spec(cls, spec: dict) -> "DirChar":
        """Character from the interchange form {"modulus": N, "conrey": j}."""
        if "conrey" not in spec:
            raise ValueError("character spec needs 'conrey'")
        return cls.from_conrey(int(spec["modulus"]), int(spec["conrey"]))

    def to_spec(self) -> dict:
        return {"modulus": self.modulus, "conrey": self.conrey_index()}

    def conrey_index(self) -> int:
        if self.modulus == 1:
            return 1
        rem, mod = 0, 1
        for p, chi_p in self.components.items():
            pa = p**chi_p.n
            j = chi_p.conrey_index()
            # CRT combine rem mod mod with j mod pa
            t = (j - rem) * pow(mod, -1, pa) % pa
            rem, mod = rem + mod * t, mod * pa
        return rem % self.modulus

    def exponent(self, u: int, primes=None) -> Optional[int]:
        """chi(u) = zeta_m^e, or None for non-units.  With `primes`, the
        product of the components at those primes only (the p-part of chi
        for primes=(p,)), still as an exponent of zeta_m."""
        m = self.field.order
        e = 0
        for p, chi_p in self.components.items():
            if primes is not None and p not in primes:
                continue
            if u % p == 0:
                return None
            e = (e + chi_p.exponent(u % chi_p.modulus) * (m // chi_p.field.order)) % m
        return e

    def value_complex(self, u: int, primes=None) -> complex:
        e = self.exponent(u, primes)
        if e is None:
            return 0j
        return complex(np.exp(2j * np.pi * e / self.field.order))

    def parity(self) -> int:
        """chi(-1) as +1 or -1: its exponent is 0 or m/2."""
        return -1 if self.exponent(-1) else 1

    def is_trivial(self) -> bool:
        return all(c.is_trivial() for c in self.components.values())

    def at_modulus(self, M: int) -> "DirChar":
        """The character mod M attached to the same primitive character.
        Requires conductor | M and compatible prime support."""
        if M % self.conductor != 0:
            raise ValueError("target modulus must be divisible by the conductor")
        comps = {}
        for p, a in _factorize(M):
            if p in self.components:
                src = self.components[p]
                if a == src.n:
                    comps[p] = src
                else:
                    comps[p] = _pchar_change_level(src, a)
            else:
                comps[p] = PChar.trivial(p, a)
        return DirChar(M, comps)

    def flip_at(self, p: int) -> "DirChar":
        """Replace the p-component by its conjugate: conj(chi^(p^a)) * chi^(M)."""
        comps = dict(self.components)
        src = comps[p]
        orders = unit_group(p, src.n).orders
        comps[p] = PChar(p, src.n, tuple((-a) % d for a, d in zip(src.exps, orders)))
        return DirChar(self.modulus, comps)

    def __repr__(self):
        return f"DirChar(mod {self.modulus}, conrey {self.conrey_index()}, cond {self.conductor})"

    def __eq__(self, other):
        return (
            isinstance(other, DirChar)
            and self.modulus == other.modulus
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.modulus, tuple(sorted((p, c.exps) for p, c in self.components.items()))))


def _pchar_change_level(chi: PChar, new_n: int) -> PChar:
    """Same primitive character, viewed mod p^new_n (new_n >= conductor exponent).

    A generator g of order d at the new level has chi(g) = e(e_g/m) with m
    the old field order, so its new exponent a solves a/d = e_g/m: a = e_g d/m.
    """
    p = chi.p
    if new_n < chi.conductor_exponent:
        raise ValueError("target level below conductor")
    m = chi.field.order
    exps = []
    group = unit_group(p, new_n)
    for g, d in zip(group.generators, group.orders):
        a, rem = divmod(chi.exponent(g) * d, m)
        if rem:
            raise AssertionError("generator value not representable at new level")
        exps.append(a)
    return PChar(p, new_n, tuple(exps))
