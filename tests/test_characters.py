import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from hecke_lab.characters import (
    DirChar,
    PChar,
    _least_stable_primitive_root,
    unit_group,
)
from hecke_lab.cyclotomic import _factorize

# quadratic character values on the units, frozen by hand from the
# Kronecker symbols of the corresponding fundamental discriminants
KRONECKER_TABLES = {
    # chi_{-7} lifted to modulus 21 (Conrey 13)
    (21, 13): {1: 1, 2: 1, 4: 1, 5: -1, 8: 1, 10: -1, 11: 1,
               13: -1, 16: 1, 17: -1, 19: -1, 20: -1},
    # chi_{-4} at its own modulus (Conrey 3)
    (4, 3): {1: 1, 3: -1},
    # chi_{-8} at modulus 8 (Conrey 3)
    (8, 3): {1: 1, 3: 1, 5: -1, 7: -1},
    # chi_5 lifted to modulus 15 (Conrey 4)
    (15, 4): {1: 1, 2: -1, 4: 1, 7: -1, 8: -1, 11: 1, 13: -1, 14: 1},
}


def _order_by_multiplication(g: int, mod: int) -> int:
    t, k = g % mod, 1
    while t != 1:
        t, k = t * g % mod, k + 1
    return k


def test_unit_generators_generate():
    """The unit-group record against the definitions, entry by entry, on
    every p^n <= 4096 for p up to 13."""
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 13):
            if p**n <= 4096:
                _check_unit_group(p, n)


def _check_unit_group(p: int, n: int) -> None:
    m = p**n
    group = unit_group(p, n)
    units = [u for u in range(1, m) if u % p != 0]
    assert group.units.tolist() == units, (p, n)
    assert all(u * int(group.inverse[u]) % m == 1 for u in units), (p, n)
    assert not group.inverse[np.arange(0, m, p)].any(), (p, n)
    # dlog is a bijection onto the product of the ranges of the orders, and
    # multiplying the generators out by it gives back the unit
    assert group.dlog.shape == (m, len(group.generators)), (p, n)
    assert (group.dlog[np.arange(0, m, p)] == -1).all(), (p, n)
    logs = [tuple(row) for row in group.dlog[units].tolist()]
    assert sorted(logs) == list(itertools.product(*map(range, group.orders))), (p, n)
    for u, e in zip(units, logs):
        assert math.prod(pow(g, a, m) for g, a in zip(group.generators, e)) % m == u, (p, n)
    assert group.orders == tuple(_order_by_multiplication(g, m) for g in group.generators)
    assert group.exponent == PChar.trivial(p, n).field.order, (p, n)
    for table in (group.units, group.inverse, group.dlog):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_exponent_table_is_read_only():
    """A write into the table would change chi(u) behind exps and
    is_trivial(): it is refused, and the character is left as it was."""
    chi = PChar.from_conrey(5, 1, 2)
    table = chi.exponent_table()
    with pytest.raises(ValueError, match="read-only"):
        table[2] = 0
    assert chi.exponent(2) == table[2] != 0 and not chi.is_trivial()


def test_stable_primitive_root_matches_order_search():
    """The power test finds, for every prime below 400, the least g whose
    order is p - 1 mod p and p(p - 1) mod p^2, found by multiplying out."""
    for p in (q for q in range(2, 400) if _factorize(q) == [(q, 1)]):
        want = next(
            g for g in range(2, p * p) if g % p
            and _order_by_multiplication(g, p) == p - 1
            and _order_by_multiplication(g, p * p) == p * (p - 1)
        )
        assert _least_stable_primitive_root(p) == want, p


def test_stable_primitive_root_skips_roots_that_fall_mod_p_squared():
    # 40487 is the least prime whose least primitive root, 5, is not one mod
    # p^2; there the orders are checked on the prime divisors of p(p - 1)
    p = 40487
    g = _least_stable_primitive_root(p)

    def order_is(x, mod, order):
        return pow(x, order, mod) == 1 and all(
            pow(x, order // q, mod) != 1 for q, _ in _factorize(order))

    assert order_is(5, p, p - 1) and not order_is(5, p * p, p * (p - 1))
    assert g == 10 and order_is(g, p * p, p * (p - 1))


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 12, 25])
def test_unit_generators_reject_non_primes(p):
    with pytest.raises(ValueError, match="not prime"):
        unit_group(p, 1)


def test_character_count():
    assert len(list(PChar.all_characters(3, 2))) == 6
    assert len(list(PChar.all_characters(2, 3))) == 4
    assert len(list(PChar.all_characters(5, 1))) == 4


@pytest.mark.parametrize("modulus,conrey", sorted(KRONECKER_TABLES))
def test_quadratic_character_values(modulus, conrey):
    chi = DirChar.from_conrey(modulus, conrey)
    for u, want in KRONECKER_TABLES[(modulus, conrey)].items():
        got = chi.value_complex(u)
        assert abs(got - want) < 1e-12, (u, got, want)


def test_nonunit_vanishes():
    chi = DirChar.from_conrey(21, 13)
    assert chi.exponent(7) is None
    assert chi.exponent(3) is None
    assert chi.value_complex(14) == 0


def test_conductors():
    assert DirChar.from_conrey(21, 13).conductor == 7
    assert DirChar.from_conrey(16, 7).conductor == 8
    assert DirChar.from_conrey(16, 15).conductor == 4
    assert DirChar.trivial(12).conductor == 1
    # exponent form for local characters: the mod-9 Conrey-2 character is primitive
    assert PChar.from_conrey(3, 2, 2).conductor_exponent == 2
    assert PChar.from_conrey(3, 2, 1).conductor_exponent == 0


def test_conrey_round_trip():
    for modulus, conrey in [(21, 13), (16, 7), (16, 15), (15, 4), (8, 3), (36, 1)]:
        assert DirChar.from_conrey(modulus, conrey).conrey_index() == conrey


def test_parity():
    assert DirChar.from_conrey(21, 13).parity() == -1  # odd, pairs with weight 3
    assert DirChar.from_conrey(15, 4).parity() == 1
    assert DirChar.trivial(30).parity() == 1
    for N in range(1, 40):
        for j in range(1, max(N, 2)):
            if math.gcd(j, N) == 1:
                chi = DirChar.from_conrey(N, j)
                assert chi.parity() == round(chi.value_complex(-1).real), (N, j)


def test_at_modulus_restriction():
    chi21 = DirChar.from_conrey(21, 13)
    chi14 = chi21.at_modulus(14)
    assert chi14.modulus == 14
    assert chi14.conrey_index() == 13
    assert chi14.conductor == 7


@pytest.mark.parametrize("modulus,lower", [(16, 8), (27, 9), (25, 5)])
def test_at_modulus_changes_level(modulus, lower):
    # every character whose conductor divides the lower level, taken down and
    # back up, keeps its values on the units
    units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
    for conrey in units:
        chi = DirChar.from_conrey(modulus, conrey)
        if lower % chi.conductor:
            continue
        down = chi.at_modulus(lower)
        assert down.conductor == chi.conductor
        assert down.at_modulus(modulus) == chi, conrey
        for u in units:
            assert abs(down.value_complex(u % lower) - chi.value_complex(u)) < 1e-12, (conrey, u)


def _bar(chi: DirChar) -> DirChar:
    """The complex-conjugate character: every component flipped."""
    for p in chi.components:
        chi = chi.flip_at(p)
    return chi


def test_bar_involution():
    chi = DirChar.from_conrey(21, 13)
    assert _bar(chi) == chi  # real character
    psi = DirChar.from_conrey(9, 2)  # order 6, not real
    assert _bar(psi) != psi
    assert _bar(_bar(psi)) == psi
    for u in range(1, 9):
        assert abs(_bar(psi).value_complex(u) - psi.value_complex(u).conjugate()) < 1e-12, u


def _crt_parts(chi: DirChar) -> list[DirChar]:
    """The components of chi, each lifted to its own prime-power modulus."""
    return [DirChar(p**c.n, {p: c}) for p, c in chi.components.items()]


def test_crt_decompose_product():
    chi = DirChar.from_conrey(36, 1)
    parts = _crt_parts(chi)
    assert sorted(part.modulus for part in parts) == [4, 9]
    chi2 = DirChar.from_conrey(15, 4)
    parts = _crt_parts(chi2)
    for u in (1, 2, 4, 7, 8, 11, 13, 14):
        prod = 1.0 + 0j
        for part in parts:
            prod *= part.value_complex(u % part.modulus)
        assert abs(prod - chi2.value_complex(u)) < 1e-12


def test_flip_at():
    chi = DirChar.from_conrey(21, 13)
    assert chi.flip_at(3) == chi  # the 3-part is trivial, flipping is a no-op
    psi = DirChar.from_conrey(9, 2)
    assert psi.flip_at(3) == _bar(psi)


def _conductor_exponent_by_definition(chi: PChar) -> int:
    """Least r with chi(u) = 1 for every unit u = 1 mod p^r, one unit at a time."""
    for r in range(chi.n + 1):
        units = [u for u in range(1, chi.modulus) if u % chi.p and (u - 1) % chi.p**r == 0]
        if all(chi.exponent(u) == 0 for u in units):
            return r
    raise AssertionError("no conductor exponent")


@pytest.mark.parametrize("p,n", [(2, k) for k in range(1, 8)] + [(3, k) for k in range(1, 5)]
                         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 2), (13, 2)])
def test_conductor_exponent_by_definition(p, n):
    for chi in PChar.all_characters(p, n):
        assert chi.conductor_exponent == _conductor_exponent_by_definition(chi), chi


def _crt_lift(r1: int, m1: int, r2: int, m2: int) -> int:
    """Unit u with u = r1 (mod m1) and u = r2 (mod m2), coprime moduli."""
    if m1 == 1:
        return r2 % m2 if m2 > 1 else 1
    if m2 == 1:
        return r1 % m1
    u = r1 + m1 * (((r2 - r1) * pow(m1, -1, m2)) % m2)
    return u % (m1 * m2)


@lru_cache(maxsize=None)
def _pchar(p: int, a: int, j: int) -> PChar:
    return PChar.from_conrey(p, a, j)


def test_prime_parts_match_crt_lifts():
    """The p-part of chi at x is chi at the unit = x mod q, = 1 mod N/q, and
    the away-part is chi at the unit = 1 mod q, = x mod N/q (q = p^n || N).
    Reading them from the components is bit for bit that, for every p | N and
    every character mod N < 400, at the values the operators use: the p-part
    at -1, the away-part at q and at p."""
    count = 0
    for N in range(2, 400):
        fact = _factorize(N)
        for j in range(1, N):
            if math.gcd(j, N) != 1:
                continue
            chi = DirChar(N, {p: _pchar(p, a, j % p**a) for p, a in fact})
            for p, a in fact:
                q, M = p**a, N // p**a
                away = [ell for ell, _ in fact if ell != p]
                pairs = [
                    (chi.value_complex(-1, (p,)), chi.value_complex(_crt_lift(-1 % q, q, 1, M))),
                    (chi.value_complex(q, away), chi.value_complex(_crt_lift(1, q, q % M, M))),
                    (chi.value_complex(p, away), chi.value_complex(_crt_lift(1, q, p % M, M))),
                ]
                for got, want in pairs:
                    assert np.complex128(got).tobytes() == np.complex128(want).tobytes(), (N, j, p)
                count += len(pairs)
    assert count == 267249
