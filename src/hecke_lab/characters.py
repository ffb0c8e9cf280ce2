"""Characters of (Z/p^n)^x and Dirichlet characters mod N.

Characters are stored by exponents on a fixed generating set of the unit
group, and a value chi(u) = zeta_m^e is read as its exponent e (or as a
complex number on the numerical side).  The ambient cyclotomic order m for a
modulus is the exponent of its unit group, so every character of that
modulus shares one field.  Conrey's labeling of characters
(as used by public modular-forms datasets) is supported at the interfaces.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .cyclotomic import _factorize, euler_phi, get_field


@lru_cache(maxsize=None)
def unit_generators(p: int, n: int) -> tuple[int, ...]:
    """Generators of (Z/p^n)^x.

    For odd p: one generator, the least primitive root mod p that stays
    primitive mod p^2 (hence mod every power).  For p = 2: empty for n = 1,
    (-1,) for n = 2, and (-1 mod 2^n, 5) for n >= 3.
    """
    if _factorize(p) != [(p, 1)]:
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    pn = p**n
    if p == 2:
        if n == 1:
            return ()
        if n == 2:
            return (3,)
        return (pn - 1, 5)
    g = _least_stable_primitive_root(p)
    return (g % pn,)


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


@lru_cache(maxsize=None)
def unit_group_structure(p: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(generators, their orders) for (Z/p^n)^x."""
    gens = unit_generators(p, n)
    pn = p**n
    if p == 2:
        if n == 1:
            return (), ()
        if n == 2:
            return gens, (2,)
        return gens, (2, pn // 4)
    return gens, (euler_phi(pn),)


@lru_cache(maxsize=None)
def _dlog_tables(p: int, n: int) -> tuple[np.ndarray, ...]:
    """Per-generator discrete-log tables indexed by residue mod p^n (-1 at non-units)."""
    pn = p**n
    gens, orders = unit_group_structure(p, n)
    tables = tuple(np.full(pn, -1, dtype=np.int64) for _ in gens)
    if not gens:
        return tables
    if p == 2 and n >= 3:
        neg, five = gens
        t_eps, t_x = tables
        for eps in range(2):
            base = pow(neg, eps, pn)
            val = base
            for x in range(orders[1]):
                t_eps[val] = eps
                t_x[val] = x
                val = val * five % pn
        return tables
    g = gens[0]
    t = tables[0]
    val = 1
    for k in range(orders[0]):
        t[val] = k
        val = val * g % pn
    return tables


def group_exponent(p: int, n: int) -> int:
    _, orders = unit_group_structure(p, n)
    return math.lcm(*orders) if orders else 1


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
        gens, orders = unit_group_structure(p, n)
        exps = tuple(int(e) % d for e, d in zip(exps, orders))
        if len(exps) != len(gens):
            raise ValueError("exponent vector does not match generator count")
        self.exps = exps
        self.order = 1
        for a, d in zip(exps, orders):
            self.order = math.lcm(self.order, d // math.gcd(a, d))
        m = group_exponent(p, n)
        self.field = get_field(m)
        self._vexp = self._build_value_table(m)
        self.conductor_exponent = self._min_conductor_exponent()

    def _build_value_table(self, m: int) -> np.ndarray:
        pn = self.modulus
        gens, orders = unit_group_structure(self.p, self.n)
        vexp = np.full(pn, -1, dtype=np.int64)
        if not gens:
            units = np.arange(pn) % 2 == 1 if self.p == 2 else np.ones(pn, bool)
            vexp[units] = 0
            return vexp
        tables = _dlog_tables(self.p, self.n)
        units = tables[0] >= 0
        acc = np.zeros(pn, dtype=np.int64)
        for a, d, tab in zip(self.exps, orders, tables):
            acc[units] += (a * tab[units]) * (m // d)
        vexp[units] = acc[units] % m
        return vexp

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
        gens, _ = unit_group_structure(p, n)
        return cls(p, n, (0,) * len(gens))

    @classmethod
    def from_conrey(cls, p: int, n: int, index: int) -> "PChar":
        pn = p**n
        index %= pn
        if math.gcd(index, pn) != 1:
            raise ValueError("Conrey index must be a unit")
        tables = _dlog_tables(p, n)
        exps = tuple(int(t[index]) for t in tables)
        return cls(p, n, exps)

    @classmethod
    def all_characters(cls, p: int, n: int) -> Iterator["PChar"]:
        gens, orders = unit_group_structure(p, n)
        if not gens:
            yield cls(p, n, ())
            return
        idx = [0] * len(orders)
        while True:
            yield cls(p, n, tuple(idx))
            i = 0
            while i < len(orders):
                idx[i] += 1
                if idx[i] < orders[i]:
                    break
                idx[i] = 0
                i += 1
            else:
                return

    # -- evaluation --------------------------------------------------------

    def exponent(self, u: int) -> int:
        """chi(u) = zeta_m^exponent(u); error on non-units."""
        e = int(self._vexp[u % self.modulus])
        if e < 0:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        return e

    def conrey_index(self) -> int:
        pn = self.modulus
        gens, orders = unit_group_structure(self.p, self.n)
        if not gens:
            return 1 % pn if pn > 1 else 1
        j = 1
        for g, a in zip(gens, self.exps):
            j = j * pow(g, a, pn) % pn
        return j

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


def _vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _vp_array(x, p: int, cap: int) -> np.ndarray:
    """Elementwise p-adic valuation capped at cap, so 0 maps to cap."""
    x = np.asarray(x, dtype=np.int64)
    v = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, cap + 1):
        v += x % p**k == 0
    return v


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
        """Character from the interchange form {"modulus": N, "conrey": j} or
        {"modulus": N, "exponents": {"p": [a, ...], ...}}."""
        N = int(spec["modulus"])
        if "conrey" in spec:
            return cls.from_conrey(N, int(spec["conrey"]))
        if "exponents" in spec:
            fact = _factorize(N)
            comps = {}
            for p, a in fact:
                exps = spec["exponents"].get(str(p), None)
                if exps is None:
                    comps[p] = PChar.trivial(p, a)
                else:
                    comps[p] = PChar(p, a, tuple(int(e) for e in exps))
            return cls(N, comps)
        raise ValueError("character spec needs 'conrey' or 'exponents'")

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

    def bar(self) -> "DirChar":
        """Complex-conjugate character: every component flipped."""
        out = self
        for p in self.components:
            out = out.flip_at(p)
        return out

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
        _, orders = unit_group_structure(p, src.n)
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
    for g, d in zip(*unit_group_structure(p, new_n)):
        a, rem = divmod(chi.exponent(g) * d, m)
        if rem:
            raise AssertionError("generator value not representable at new level")
        exps.append(a)
    return PChar(p, new_n, tuple(exps))


def crt_decompose(chi: DirChar) -> list[DirChar]:
    """CRT components of chi, each lifted to a Dirichlet character of its own
    prime-power modulus.  Their pointwise product (lifted back mod N) is chi."""
    return [DirChar(p**c.n, {p: c}) for p, c in chi.components.items()]
