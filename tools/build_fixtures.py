#!/usr/bin/env python3
"""Builds the q-expansion fixture files shipped under hecke_lab/fixtures/.

Every basis element is an eta quotient prod_d eta(d z)^{r_d}, expanded with
exact integer arithmetic and written as those integers (fixture format 3,
read by hecke_lab.spaces.load_space: a list of PREC coefficients, each
below 2^53 in absolute value so that its float is exact).  Admissibility is
checked per Ligozat's criteria (see Ono, "The web of modularity", Thm 1.64):
the two congruences mod 24, the Kronecker-symbol nebentypus, and positive
order at every cusp.  Each space's basis is verified to be independent and
of the dimension predicted by the Cohen-Oesterle oracle before writing.

Run from the repository root:  python3 tools/build_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hecke_lab.characters import DirChar
from hecke_lab.cyclotomic import _factorize
from hecke_lab.dimoracle import dim_cusp, dim_new, _divisors

PREC = 2048
OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "hecke_lab" / "fixtures"


# ---------------------------------------------------------------------------
# exact power series helpers (dense lists of Python ints, index = q-power)

def pentagonal_terms(d: int, bound: int) -> list[tuple[int, int]]:
    """Sparse terms of prod_m (1 - q^(d m)) by the pentagonal number theorem."""
    out = [(0, 1)]
    j = 1
    while True:
        for idx in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if d * idx <= bound:
                out.append((d * idx, 1 if j % 2 == 0 else -1))
        if d * j * (3 * j - 1) // 2 > bound:
            break
        j += 1
    return sorted(out)


def mul_sparse(series: list[int], terms: list[tuple[int, int]]) -> list[int]:
    bound = len(series) - 1
    out = [0] * (bound + 1)
    for idx, sgn in terms:
        if sgn == 1:
            for i in range(bound - idx + 1):
                out[i + idx] += series[i]
        else:
            for i in range(bound - idx + 1):
                out[i + idx] -= series[i]
    return out


def mul_dense(a: list[int], b: list[int]) -> list[int]:
    bound = len(a) - 1
    out = [0] * (bound + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(bound - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def euler_inverse(d: int, bound: int) -> list[int]:
    """1 / prod (1 - q^(d m)): the partition generating function in q^d."""
    terms = [t for t in pentagonal_terms(d, bound) if t[0] > 0]
    out = [0] * (bound + 1)
    out[0] = 1
    for m in range(1, bound + 1):
        acc = 0
        for idx, sgn in terms:
            if idx > m:
                break
            acc += sgn * out[m - idx]
        out[m] = -acc
    return out


def eta_quotient(exps: dict[int, int], bound: int) -> tuple[int, list[int]]:
    """(h, coefficients of q^0..q^bound of the eta-free part); the form is
    q^h * sum_j c_j q^j, i.e. a_n = c_(n-h)."""
    h = Fraction(sum(d * r for d, r in exps.items()), 24)
    if h.denominator != 1 or h <= 0:
        raise ValueError(f"q-order {h} not a positive integer: {exps}")
    series = [0] * (bound + 1)
    series[0] = 1
    for d, r in sorted(exps.items()):
        if r > 0:
            terms = pentagonal_terms(d, bound)
            for _ in range(r):
                series = mul_sparse(series, terms)
        elif r < 0:
            inv = euler_inverse(d, bound)
            for _ in range(-r):
                series = mul_dense(series, inv)
    return int(h), series


def eta_coefficients(exps: dict[int, int], prec: int) -> list[int]:
    """a_1..a_prec of the eta quotient."""
    h, series = eta_quotient(exps, prec)
    out = [0] * prec
    for j, c in enumerate(series):
        n = h + j
        if 1 <= n <= prec:
            out[n - 1] = c
    return out


# ---------------------------------------------------------------------------
# Ligozat admissibility

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n > 0, via Jacobi reciprocity."""
    assert n > 0
    if n == 1:
        return 1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    s = 1
    if e:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            s = -s if e % 2 == 1 else s
    if n == 1:
        return s
    # Jacobi symbol (a|n) for odd n by quadratic reciprocity
    a %= n
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return s * (t if n == 1 else 0)


def squarefree_part(x: int) -> int:
    sign = -1 if x < 0 else 1
    x = abs(x)
    out = 1
    for p, e in _factorize(x):
        if e % 2 == 1:
            out *= p
    return sign * out


def quotient_character_disc(k: int, exps: dict[int, int]) -> int:
    s = Fraction(1)
    for d, r in exps.items():
        s *= Fraction(d) ** r
    return squarefree_part((-1) ** k * s.numerator * s.denominator)


def cusp_orders(N: int, exps: dict[int, int]) -> dict[int, Fraction]:
    out = {}
    for c in _divisors(N):
        acc = sum(
            Fraction(math.gcd(c, d) ** 2 * r, d) for d, r in exps.items()
        )
        out[c] = Fraction(N, 24 * c * math.gcd(c, N // c)) * acc
    return out


def real_value(chi: DirChar, u: int) -> int:
    """chi(u) for a unit u where chi is +1 or -1: its exponent is 0 or m/2."""
    e = chi.exponent(u)
    if 2 * e % chi.field.order:
        raise ValueError(f"character value at {u} is not real")
    return -1 if e else 1


def validate_quotient(N: int, k: int, chi: DirChar, exps: dict[int, int]) -> None:
    for d in exps:
        if N % d != 0:
            raise ValueError(f"divisor {d} does not divide level {N}")
    if sum(exps.values()) != 2 * k:
        raise ValueError("weight mismatch")
    if sum(d * r for d, r in exps.items()) % 24 != 0:
        raise ValueError("Ligozat congruence at infinity fails")
    if sum((N // d) * r for d, r in exps.items()) % 24 != 0:
        raise ValueError("Ligozat congruence at zero fails")
    D = quotient_character_disc(k, exps)
    for u in range(1, N + 1):
        if math.gcd(u, N) == 1:
            if real_value(chi, u) != kronecker(D, u):
                raise ValueError(f"nebentypus mismatch at {u}: {exps}")
    for c, v in cusp_orders(N, exps).items():
        if v <= 0:
            raise ValueError(f"order {v} at cusp 1/{c}: not cuspidal: {exps}")


# ---------------------------------------------------------------------------
# catalog

def lift(mod: int, conrey: int, level: int) -> DirChar:
    return DirChar.from_conrey(mod, conrey).at_modulus(level)


def eta_label(exps: dict[int, int]) -> str:
    return "eta[" + " ".join(f"{d}^{r}" for d, r in sorted(exps.items())) + "]"


def catalog() -> list[dict]:
    E = lambda *pairs: dict(pairs)
    spaces = [
        # squarefree level, trivial character
        dict(N=11, k=2, chi=DirChar.trivial(11), forms=[E((1, 2), (11, 2))]),
        dict(N=14, k=2, chi=DirChar.trivial(14), forms=[E((1, 1), (2, 1), (7, 1), (14, 1))]),
        dict(N=15, k=2, chi=DirChar.trivial(15), forms=[E((1, 1), (3, 1), (5, 1), (15, 1))]),
        dict(N=22, k=2, chi=DirChar.trivial(22), forms=[E((1, 2), (11, 2)), E((2, 2), (22, 2))]),
        dict(N=30, k=2, chi=DirChar.trivial(30), forms=[
            E((1, 1), (3, 1), (5, 1), (15, 1)),
            E((2, 1), (6, 1), (10, 1), (30, 1)),
            E((3, 1), (5, 1), (6, 1), (10, 1)),
        ]),
        # squarefree level, nontrivial imprimitive character (conductor 7)
        dict(N=7, k=3, chi=lift(7, 6, 7), forms=[E((1, 3), (7, 3))]),
        dict(N=14, k=3, chi=lift(7, 6, 14), forms=[E((1, 3), (7, 3)), E((2, 3), (14, 3))]),
        dict(N=21, k=3, chi=lift(7, 6, 21), forms=[
            E((1, 3), (7, 3)),
            E((3, 3), (21, 3)),
            E((3, 1), (7, 6), (21, -1)),
            E((1, -1), (3, 6), (7, 1)),
        ]),
        # prime-power part p^n with n >= 2, imprimitive p-component
        dict(N=36, k=2, chi=DirChar.trivial(36), forms=[E((6, 4))]),
        dict(N=27, k=2, chi=DirChar.trivial(27), forms=[E((3, 2), (9, 2))]),
        dict(N=8, k=4, chi=DirChar.trivial(8), forms=[E((2, 4), (4, 4))]),
        dict(N=8, k=3, chi=lift(8, 3, 8), forms=[E((1, 2), (2, 1), (4, 1), (8, 2))]),
        dict(N=16, k=3, chi=lift(8, 3, 16), forms=[
            E((1, 2), (2, 1), (4, 1), (8, 2)),
            E((2, 2), (4, 1), (8, 1), (16, 2)),
        ]),
        dict(N=16, k=3, chi=lift(4, 3, 16), forms=[E((4, 6))]),
        # empty targets (placement spans and loader edge cases)
        dict(N=1, k=2, chi=DirChar.trivial(1), forms=[]),
        dict(N=6, k=2, chi=DirChar.trivial(6), forms=[]),
        dict(N=9, k=2, chi=DirChar.trivial(9), forms=[]),
        dict(N=10, k=2, chi=DirChar.trivial(10), forms=[]),
        dict(N=12, k=2, chi=DirChar.trivial(12), forms=[]),
        dict(N=18, k=2, chi=DirChar.trivial(18), forms=[]),
        dict(N=4, k=4, chi=DirChar.trivial(4), forms=[]),
        dict(N=4, k=3, chi=lift(4, 3, 4), forms=[]),
        dict(N=8, k=3, chi=lift(4, 3, 8), forms=[]),
    ]
    return spaces


def stem(N: int, k: int, chi: DirChar) -> str:
    return f"N{N}k{k}c{chi.conrey_index()}"


def families() -> list[dict]:
    # kind (a): squarefree level, trivial character
    # kind (b): squarefree level, nontrivial imprimitive character
    # kind (c): level p^n M with n >= 2 and imprimitive p-part
    # "lower" maps a lower level to its fixture stem; the Q-placement checks
    # use level N/p, the S-placement checks use the r = n-1 target p^(n-1)M.
    t = lambda N, k: stem(N, k, DirChar.trivial(N))
    c = lambda mod, j, N, k: stem(N, k, lift(mod, j, N))
    return [
        dict(name="sq11", kind="a", space=t(11, 2), lower={"1": t(1, 2)}, expected_new=1),
        dict(name="sq14", kind="a", space=t(14, 2), lower={}, expected_new=1),
        dict(name="sq15", kind="a", space=t(15, 2), lower={}, expected_new=1),
        dict(name="sq22", kind="a", space=t(22, 2), lower={"11": t(11, 2)}, expected_new=0),
        dict(name="sq30", kind="a", space=t(30, 2),
             lower={"15": t(15, 2), "10": t(10, 2), "6": t(6, 2)}, expected_new=1),
        dict(name="ch14w3", kind="b", space=c(7, 6, 14, 3), lower={"7": c(7, 6, 7, 3)}, expected_new=0),
        dict(name="ch21w3", kind="b", space=c(7, 6, 21, 3), lower={"7": c(7, 6, 7, 3)}, expected_new=2),
        dict(name="n36w2", kind="c", space=t(36, 2), lower={"18": t(18, 2), "12": t(12, 2)}, expected_new=1),
        dict(name="n27w2", kind="c", space=t(27, 2), lower={"9": t(9, 2)}, expected_new=1),
        dict(name="n8w4", kind="c", space=t(8, 4), lower={"4": t(4, 4)}, expected_new=1),
        dict(name="n16w3m8", kind="c", space=c(8, 3, 16, 3), lower={"8": c(8, 3, 8, 3)}, expected_new=0),
        dict(name="n16w3m4", kind="c", space=c(4, 3, 16, 3), lower={"8": c(4, 3, 8, 3)}, expected_new=1),
    ]


# ---------------------------------------------------------------------------
# engine self-tests against hand-checked expansions

def self_test() -> None:
    # partition numbers
    inv = euler_inverse(1, 9)
    assert inv == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30], inv

    # Ramanujan tau from eta(z)^24
    tau = eta_coefficients({1: 24}, 10)
    assert tau[:7] == [1, -24, 252, -1472, 4830, -6048, -16744], tau[:7]

    # level 11 weight 2: q prod (1-q^m)^2 (1-q^11m)^2
    f11 = eta_coefficients({1: 2, 11: 2}, 10)
    assert f11 == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2], f11

    # eta(6z)^4: coefficient of x^m in prod (1-x^j)^4 at m = 1, 2
    f36 = eta_coefficients({6: 4}, 13)
    assert f36[0] == 1 and f36[6] == -4 and f36[12] == 2, f36

    # eta(2z)^4 eta(4z)^4, weight 4 level 8
    f8 = eta_coefficients({2: 4, 4: 4}, 7)
    assert f8 == [1, 0, -4, 0, -2, 0, 24], f8

    # eta(3z)^2 eta(9z)^2, level 27 CM curve
    f27 = eta_coefficients({3: 2, 9: 2}, 7)
    assert f27 == [1, 0, 0, -2, 0, 0, -1], f27

    # Kronecker symbols against the exact character tables
    for mod, conrey, disc in ((7, 6, -7), (8, 3, -2), (4, 3, -1), (5, 4, 5)):
        chi = DirChar.from_conrey(mod, conrey)
        for u in range(1, mod + 1):
            if math.gcd(u, mod) == 1:
                assert real_value(chi, u) == kronecker(disc, u), (mod, u)
    print("engine self-tests passed")


# ---------------------------------------------------------------------------

def build() -> None:
    self_test()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    written = []
    for sp in catalog():
        N, k, chi = sp["N"], sp["k"], sp["chi"]
        want = dim_cusp(N, k, chi)
        if len(sp["forms"]) != want:
            raise AssertionError(f"catalog for ({N},{k}) has {len(sp['forms'])} forms, oracle says {want}")
        basis, labels = [], []
        for exps in sp["forms"]:
            validate_quotient(N, k, chi, exps)
            coeffs = eta_coefficients(exps, PREC)
            if max(abs(c) for c in coeffs) >= 2**53:
                raise AssertionError(f"coefficients past exact float range: {exps}")
            basis.append(coeffs)
            labels.append(eta_label(exps))
        if basis:
            mat = np.array(basis, dtype=np.float64)
            sv = np.linalg.svd(mat, compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            if rank != len(basis):
                raise AssertionError(f"dependent basis for ({N},{k}): singular values {sv}")
        doc = {
            "level": N,
            "weight": k,
            "character": chi.to_spec(),
            "precision": PREC,
            "basis": basis,
            "provenance": "; ".join(labels) if labels else "empty space",
        }
        name = stem(N, k, chi) + ".json"
        (OUT_DIR / name).write_text(json.dumps(doc))
        written.append(name)
        print(f"{name:16s} dim {len(basis)}  new {dim_new(N, k, chi)}  {doc['provenance']}")

    fams = families()
    for fam in fams:
        if fam["space"] + ".json" not in written:
            raise AssertionError(f"family {fam['name']} references missing space {fam['space']}")
        sp = json.loads((OUT_DIR / (fam["space"] + ".json")).read_text())
        chi = DirChar.from_spec(sp["character"])
        if dim_new(sp["level"], sp["weight"], chi) != fam["expected_new"]:
            raise AssertionError(f"family {fam['name']}: frozen newdim disagrees with oracle")
    manifest = {"format_version": 3, "precision": PREC, "families": fams}
    (OUT_DIR / "families.json").write_text(json.dumps(manifest, indent=1))
    print(f"wrote {len(written)} spaces + families.json to {OUT_DIR}")


if __name__ == "__main__":
    build()
