"""Verification campaigns: the full assertion sweep in one runner.

A campaign lists algebraic grid cells (p, n, optionally one character) and
fixture directories for the operator suites.  Every cell contributes its
assertions to a single report; failures accumulate and never short-circuit
the run.

The exact side (`hecke`, `induced` and what they load) is imported when its
routes are first read, at the latest on a run's first grid cell:
`verify_relations` and `verify_induced` are bound as module attributes then
(`__getattr__`, PEP 562), and `run_verify` calls them through those
attributes.  So a campaign without grid cells, which is what
`hecke-lab classical` runs, loads only the numerical side.

Each (cell, character) and each classical family runs under a guard: a
premise that fails there (an `AlgebraError` of the exact side, a refused
q-series, an operator without sample points, a failed internal assertion)
becomes one verdict with status "error" and provenance "premise", and the
run goes on.  Any other exception propagates.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cellcache import clear_cell_caches
from .characters import PChar
from .cyclotomic import _factorize
from .newspace import TOLERANCE, OpReport, characterize, placement_checks, qualifying_primes
from .operators import SamplingError, op_U, op_W, w_square_scalar
from .qexp import PrecisionError
from .report import Assertion, Report, character_tag, check, check_bool, timed
from .spaces import CuspSpace, fixture_dir, load_families


def __getattr__(name: str):
    """Bind an exact-side route, loading its module, when it is first read;
    a route set on the module beforehand is kept."""
    if name == "verify_relations":
        from .hecke import verify_relations as route
    elif name == "verify_induced":
        from .induced import verify_induced as route
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, route)


@dataclass
class Campaign:
    grid: list[dict] = field(default_factory=list)
    fixture_dirs: list[str] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def default(cls, seed: int = 0) -> "Campaign":
        grid = [{"p": p, "n": n} for p in (2, 3, 5) for n in (1, 2, 3)]
        return cls(grid=grid, fixture_dirs=[str(fixture_dir())], seed=seed)

    @classmethod
    def from_file(cls, path) -> "Campaign":
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("campaign file must hold a JSON object")
        if "tolerance" in doc:
            raise ValueError(
                "campaign files cannot set tolerances: the pass thresholds are "
                "fixed in newspace.TOLERANCE"
            )
        unknown = sorted(set(doc) - {"about", "grid", "fixture_dirs", "seed"})
        if unknown:
            raise ValueError(f"campaign file has unknown keys {unknown}")
        dirs, seed = doc.get("fixture_dirs", []), doc.get("seed", 0)
        if not (isinstance(dirs, list) and all(isinstance(d, str) for d in dirs)):
            raise ValueError(f"campaign fixture_dirs must be a list of paths, not {dirs!r}")
        if type(seed) is not int:
            raise ValueError(f"campaign seed must be an integer, not {seed!r}")
        return cls(grid=_checked_grid(doc.get("grid", [])), fixture_dirs=dirs, seed=seed)

    def to_dict(self) -> dict:
        return {
            "grid": self.grid,
            "fixture_dirs": self.fixture_dirs,
            "seed": self.seed,
        }


def _checked_grid(grid) -> list[dict]:
    """A campaign file's grid: a list of objects with a prime "p", an
    integer "n" >= 1 and, optionally, an integer "conrey", a unit in
    1..p^n - 1, and no other key (a misspelt conrey would run the whole
    cell), within the transport tables' size budget; ValueError otherwise,
    before any cell runs.  PChar.from_conrey reduces its index mod p^n, so
    a conrey past that range would run another cell's character under its
    own id."""
    if not isinstance(grid, list):
        raise ValueError(f"campaign grid must be a list of cells, not {grid!r}")
    if grid:
        from .cosets import require_transportable
    for cell in grid:
        if not (isinstance(cell, dict) and "p" in cell and "n" in cell):
            raise ValueError(f"grid cell {cell!r} must be an object with keys p and n")
        extra = sorted(cell.keys() - {"p", "n", "conrey"})
        if extra:
            raise ValueError(f"grid cell {cell!r}: unknown key {extra[0]!r}")
        for key in ("p", "n", "conrey"):
            if key in cell and type(cell[key]) is not int:
                raise ValueError(f"grid cell {cell!r}: {key} must be an integer")
        p, n = cell["p"], cell["n"]
        if p >= 2 and n >= 1:
            require_transportable(p, n)  # before p is factorized
        if p < 2 or n < 1 or _factorize(p) != [(p, 1)]:
            raise ValueError(f"grid cell {cell!r}: p must be a prime and n at least 1")
        if "conrey" in cell and not (1 <= cell["conrey"] < p**n and math.gcd(cell["conrey"], p) == 1):
            raise ValueError(f"grid cell {cell!r}: conrey must be a unit in 1..p^n - 1")
    return grid


def _grid_characters(cell: dict) -> list[PChar]:
    p, n = int(cell["p"]), int(cell["n"])
    if "conrey" in cell:
        return [PChar.from_conrey(p, n, int(cell["conrey"]))]
    return list(PChar.all_characters(p, n))


# the failures of a premise that verdicts rest on; a run with grid cells
# adds the exact side's AlgebraError, loaded with its routes
PREMISE_ERRORS = (PrecisionError, SamplingError, AssertionError)


@contextmanager
def _premise(rep: Report, aid: str, errors: tuple[type[Exception], ...] = PREMISE_ERRORS):
    """Record a premise failure inside the block as one "error" verdict
    under aid, after the verdicts the block recorded before it; other
    exceptions propagate."""
    try:
        yield
    except errors as exc:
        rep.add(Assertion(aid, "error", "premises hold", type(exc).__name__, "premise",
                          detail=str(exc)))


def run_verify(campaign: Campaign) -> Report:
    """Execute every campaign cell and return the merged report."""
    rep = Report(seed=campaign.seed, meta={"campaign": campaign.to_dict()})
    routes = sys.modules[__name__]
    current = None
    if campaign.grid:
        from .hecke import AlgebraError

        exact_errors = (AlgebraError, *PREMISE_ERRORS)
    for cell in campaign.grid:
        p, n = int(cell["p"]), int(cell["n"])
        if (p, n) != current:
            # the cell caches are unbounded: hold one cell's work at a time
            clear_cell_caches()
            current = (p, n)
        for chi in _grid_characters(cell):
            with _premise(rep, f"{character_tag(chi)}.premise", exact_errors):
                rep.extend(routes.verify_relations(p, n, chi).assertions)
                rep.extend(routes.verify_induced(p, n, chi).report.assertions)
    for directory in campaign.fixture_dirs:
        _classical_suite(rep, Path(directory))
    return rep


def _classical_suite(rep: Report, base: Path) -> None:
    """space_checks on each family's space, then placement at its lower
    levels, each family under a premise guard."""
    for fam in load_families(base):
        sp = fam["space"]
        tag = f"classical.{fam['name']}"
        with _premise(rep, f"{tag}.premise"):
            space_checks(rep, tag, sp, fam["flipped"])
            quals = qualifying_primes(sp.level, sp.char)
            for level, lower in fam["lower"].items():
                for q in quals:
                    if sp.level // q.p != level:
                        continue
                    with timed() as t:
                        checks = placement_checks(sp, q.p, lower, fam["flipped"])
                    worst = max((c.residual for c in checks), default=0.0)
                    bad = [c.name for c in checks if not c.ok]
                    check_bool(
                        rep, f"{tag}.placement.p{q.p}",
                        not bad, "formula", t.elapsed,
                        expected=f"{len(checks)} placements <= {TOLERANCE['placement']:g}",
                        computed=f"worst {worst:.3g}" + (f", failed {bad}" if bad else ""),
                    )


def space_checks(rep: Report, tag: str, sp: CuspSpace, flipped: CuspSpace | None) -> None:
    """The classical verdicts on one space alone, under ids tag.*: the new
    dimension against the oracle, the spectral gap, operator_checks on each
    characterizing operator, and at each qualifying prime p of a nonzero
    space the two routes of U_p and W^2 against its scalar (W[p].square).
    flipped is the twin the W-conjugates pass through (characterize)."""
    with timed() as t:
        res = characterize(sp, flipped)
    check(rep, f"{tag}.newdim", res.expected_new, res.new_dim, "oracle",
          t.elapsed, detail=f"gap {res.gap:.3g}, dim {res.dim}")
    check_bool(rep, f"{tag}.gap", res.gap >= TOLERANCE["gap_min"], "definition",
               expected=f">= {TOLERANCE['gap_min']:g}", computed=f"{res.gap:.3g}")
    for op_rep in res.ops:
        operator_checks(rep, f"{tag}.{op_rep.label}", op_rep)
    if sp.dim == 0:
        return
    for q in qualifying_primes(sp.level, sp.char):
        p = q.p
        with timed() as t:
            Us = op_U(sp, p, route="sampled")
            Uc = op_U(sp, p, route="coeff")
            dev = float(
                np.linalg.norm(Us.matrix - Uc.matrix)
                / max(1.0, float(np.linalg.norm(Uc.matrix)))
            )
        check_bool(
            rep, f"{tag}.U[{p}].routes", dev <= TOLERANCE["dual_route"], "oracle",
            t.elapsed, expected=f"<= {TOLERANCE['dual_route']:g}", computed=f"{dev:.3g}",
        )
        W = op_W(sp, p)
        s = w_square_scalar(sp, p)
        dev = float(np.linalg.norm(W.matrix @ W.matrix - s * np.eye(sp.dim)))
        check_bool(
            rep, f"{tag}.W[{p}].square", dev <= TOLERANCE["w_square"], "formula",
            expected=f"scalar {s:.3g}", computed=f"deviation {dev:.3g}",
        )


def operator_checks(rep: Report, prefix: str, op_rep: OpReport) -> None:
    """The verdicts on one characterizing operator, under ids prefix.*: its
    quadratic relation, its eigenvalues against the two roots, the old
    root's multiplicity m1, read off the trace, against the oracle's
    integer, and its health (residual and conditioning under the limits of
    operators)."""
    check_bool(
        rep, f"{prefix}.quad", op_rep.quad <= TOLERANCE["quad"], "formula",
        expected=f"<= {TOLERANCE['quad']:g}", computed=f"{op_rep.quad:.3g}",
    )
    check_bool(
        rep, f"{prefix}.eigset", op_rep.eig_dist <= TOLERANCE["eig_dist"], "formula",
        expected=f"within {TOLERANCE['eig_dist']:g} of {op_rep.roots}",
        computed=f"{op_rep.eig_dist:.3g}",
    )
    check_bool(
        rep, f"{prefix}.mult",
        abs(op_rep.old_mult - op_rep.expected_old) <= TOLERANCE["mult"], "oracle",
        expected=f"{op_rep.expected_old} within {TOLERANCE['mult']:g}",
        computed=f"{op_rep.old_mult:.15g}",
    )
    check_bool(
        rep, f"{prefix}.healthy", not op_rep.poisoned, "definition",
        computed=f"residual {op_rep.residual:.3g}, cond {op_rep.conditioning:.3g}",
    )
