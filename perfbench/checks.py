"""Correctness checks for benchmark outputs, computed apart from hecke_lab.

Every function takes plain records (dicts of ints, lists and numpy arrays)
extracted from the program's results and returns a list of error strings;
an empty list means the record passed.  Nothing here imports hecke_lab, so
a fault in the program cannot also hide in the check that should catch it.
The closed forms are the published guarantees of the method.
"""

from __future__ import annotations

import math

import numpy as np

QUAD_MAX = 1e-6
GAP_MIN = 1e3
W_SQUARE_MAX = 1e-8


def euler_phi(p: int, n: int) -> int:
    return p ** (n - 1) * (p - 1)


def units_mod(p: int, n: int) -> np.ndarray:
    pn = p**n
    return np.arange(pn)[np.arange(pn) % p != 0]


def conductor_exponent(p: int, n: int, vexp) -> int:
    """Least r with chi = 1 on every unit congruent to 1 mod p^r, read off the
    exponent table (chi(u) = zeta_m^vexp[u], -1 off the units)."""
    vexp = np.asarray(vexp)
    units = units_mod(p, n)
    for r in range(n + 1):
        near_one = units[(units - 1) % p**r == 0]
        if np.all(vexp[near_one] == 0):
            return r
    raise ValueError("exponent table is not a character table")


def supported_labels(n: int, r: int) -> list[str]:
    """w iff r = 0; y_j iff j >= max(r, 1)."""
    return (["w"] if r == 0 else []) + [f"y{j}" for j in range(max(r, 1), n + 1)]


def algebra_dim(n: int, r: int) -> int:
    return n + 1 if r == 0 else n - r + 1


def induced_dim(p: int, n: int) -> int:
    return p ** (n - 1) * (p + 1)


def component_dims(p: int, n: int, r: int) -> dict[str, int]:
    """i_r = p^(r-1)(p+1), i_k = p^(k-2)(p^2-1) above it; for r = 0 the bottom
    block splits into w+ (dimension 1) and w- (dimension p)."""
    if r == 0:
        out = {"w+": 1, "w-": p}
        lo = 2
    else:
        out = {f"i{r}": p ** (r - 1) * (p + 1)}
        lo = r + 1
    for k in range(lo, n + 1):
        out[f"i{k}"] = p ** (k - 2) * (p * p - 1)
    return out


def fixed_dims(n: int, r: int) -> dict[int, int]:
    return {m: max(0, m - r + 1) for m in range(n + 1)}


def check_cell_characters(p: int, n: int, tables: list[tuple[np.ndarray, int]]) -> list[str]:
    """A cell's characters: phi(p^n) of them, each a homomorphism on the
    units (exponent -1 exactly off the units), with distinct value tables.
    `tables` holds (exponent table, field order m) per character."""
    errors = []
    if len(tables) != euler_phi(p, n):
        errors.append(f"({p},{n}): {len(tables)} characters, expected {euler_phi(p, n)}")
    pn = p**n
    units = units_mod(p, n)
    is_unit = np.arange(pn) % p != 0
    order = math.lcm(*(m for _, m in tables)) if tables else 1
    seen = set()
    for vexp, m in tables:
        vexp = np.asarray(vexp)
        if not (np.all(vexp[~is_unit] == -1) and np.all(vexp[is_unit] >= 0)):
            errors.append(f"({p},{n}): exponent table undefined on a unit or defined off them")
            continue
        prod = vexp[np.outer(units, units) % pn]
        if not np.array_equal(prod, (vexp[units][:, None] + vexp[units][None, :]) % m):
            errors.append(f"({p},{n}): value table is not multiplicative")
        seen.add(tuple(vexp[units] * (order // m)))
    if len(seen) != len(tables):
        errors.append(f"({p},{n}): {len(tables) - len(seen)} repeated value tables")
    return errors


def check_character(rec: dict) -> list[str]:
    """Exact-side outputs for one (p, n, chi): verify_relations plus
    verify_induced.  Fields: p, n, conrey, vexp, r (each value the program
    reported), ok, algebra_dim, induced_dim, components (projector ranks),
    components_by_system (trace system), fixed {m: dim}."""
    p, n = rec["p"], rec["n"]
    tag = f"p{p}.n{n}.chi{rec['conrey']}"
    r = conductor_exponent(p, n, rec["vexp"])
    want_comp = component_dims(p, n, r)
    errors = []
    if any(x != r for x in rec["r"]):
        errors.append(f"{tag}: conductor exponent {rec['r']}, recomputed {r}")
    if rec["algebra_dim"] != algebra_dim(n, r):
        errors.append(f"{tag}: algebra dimension {rec['algebra_dim']}, expected {algebra_dim(n, r)}")
    if rec["induced_dim"] != induced_dim(p, n):
        errors.append(f"{tag}: induced dimension {rec['induced_dim']}, expected {induced_dim(p, n)}")
    for route in ("components", "components_by_system"):
        if rec[route] != want_comp:
            errors.append(f"{tag}: {route} {rec[route]}, expected {want_comp}")
    if sum(want_comp.values()) != induced_dim(p, n):
        errors.append(f"{tag}: closed-form components do not sum to the dimension")
    if rec["fixed"] != fixed_dims(n, r):
        errors.append(f"{tag}: fixed dimensions {rec['fixed']}, expected {fixed_dims(n, r)}")
    if not rec["ok"]:
        errors.append(f"{tag}: program report not ok")
    return errors


def check_support(rec: dict) -> list[str]:
    """Support law for one character: fields p, n, conrey, vexp, r (the
    values the program reported) and supported (labels is_supported accepted)."""
    p, n = rec["p"], rec["n"]
    tag = f"p{p}.n{n}.chi{rec['conrey']}"
    r = conductor_exponent(p, n, rec["vexp"])
    errors = []
    if any(x != r for x in rec["r"]):
        errors.append(f"{tag}: conductor exponent {rec['r']}, recomputed {r}")
    if sorted(rec["supported"]) != sorted(supported_labels(n, r)):
        errors.append(f"{tag}: supported {sorted(rec['supported'])}, expected {supported_labels(n, r)}")
    return errors


def check_family(rec: dict) -> list[str]:
    """Classical suite for one fixture family.  Fields: name, dim, new_dim,
    expected_new (the program's oracle call), oracle (dim_new called by the
    benchmark), manifest (expected_new in the shipped families.json), gap,
    quads (one per characterizing operator) and w_devs (|W^2 - s I| per W,
    recomputed by the benchmark from the operator matrices)."""
    tag = rec["name"]
    errors = []
    if not rec["new_dim"] == rec["oracle"] == rec["manifest"] == rec["expected_new"]:
        errors.append(
            f"{tag}: new_dim {rec['new_dim']}, oracle {rec['oracle']}, "
            f"manifest {rec['manifest']}, program oracle {rec['expected_new']}"
        )
    if not rec["gap"] >= GAP_MIN:
        errors.append(f"{tag}: spectral gap {rec['gap']:.3g} < {GAP_MIN:g}")
    bad = [q for q in rec["quads"] if not q <= QUAD_MAX]
    if bad:
        errors.append(f"{tag}: quadratic relation off by {max(bad):.3g} > {QUAD_MAX:g}")
    # each qualifying prime contributes one operator pair and, on a nonzero
    # space, one W check
    if rec["dim"] and 2 * len(rec["w_devs"]) != len(rec["quads"]):
        errors.append(f"{tag}: {len(rec['w_devs'])} W checks for {len(rec['quads'])} operators")
    bad = [d for d in rec["w_devs"] if not d <= W_SQUARE_MAX]
    if bad:
        errors.append(f"{tag}: W^2 off its scalar by {max(bad):.3g} > {W_SQUARE_MAX:g}")
    return errors
