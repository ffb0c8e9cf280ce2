"""The four workloads: seeded inputs, the timed call, and the output check.

Each workload builds its inputs from the seed in `setup`, hands only those
inputs to hecke_lab in `run` (the timed call), and turns the program's
results into plain records for `checks` in `check`.  hecke_lab is imported
inside the methods, so `run.py` can import this module without it.

The seed permutes the characters within each grid cell and the order of the
fixture families.  Cells stay in grid order: per-cell tables are cached
(`_right_transport` is an LRU of 4096 words), so interleaving cells would
measure cache eviction rather than the campaign users run.
"""

from __future__ import annotations

import functools
import json
import math
import random
import shutil
from types import SimpleNamespace

import numpy as np

import checks

GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]
LARGE_CELL = (7, 3)


def seeded_characters(seed: int) -> list[tuple[tuple[int, int], list]]:
    """Every character of every grid cell, shuffled within its cell."""
    from hecke_lab.characters import PChar

    rng = random.Random(f"characters:{seed}")
    out = []
    for p, n in GRID:
        chars = list(PChar.all_characters(p, n))
        rng.shuffle(chars)
        out.append(((p, n), chars))
    return out


def seeded_fixtures(seed: int, workdir) -> tuple:
    """A copy of the shipped fixtures whose families.json lists the families
    in seeded order; returns (directory, loaded families, shipped manifest)."""
    from hecke_lab.spaces import fixture_dir, load_families

    src = fixture_dir()
    shipped = json.loads((src / "families.json").read_text())
    dst = workdir / "fixtures"
    dst.mkdir(parents=True, exist_ok=True)
    for path in src.glob("*.json"):
        if path.name != "families.json":
            shutil.copyfile(path, dst / path.name)
    manifest = dict(shipped, families=list(shipped["families"]))
    random.Random(f"families:{seed}").shuffle(manifest["families"])
    (dst / "families.json").write_text(json.dumps(manifest, indent=1))
    families = load_families(dst)
    if [f["name"] for f in families] != [f["name"] for f in manifest["families"]]:
        raise RuntimeError("generated fixture directory does not load in seeded order")
    return dst, families, shipped


def _capture(module, attr: str, record) -> None:
    """Replace module.attr by a pass-through that hands (args, result) to
    `record`; the benchmark reads program results this way without
    changing what the program computes."""
    orig = getattr(module, attr)

    @functools.wraps(orig)
    def hook(*args, **kwargs):
        out = orig(*args, **kwargs)
        record(args, out)
        return out

    setattr(module, attr, hook)


def space_stem(sp) -> str:
    """Fixture file stem of a loaded space, e.g. N21k3c13."""
    return f"N{sp.level}k{sp.weight}c{sp.char.conrey_index()}"


def character_record(p: int, n: int, chi, relations, spectral) -> dict:
    """Record for checks.check_character from a verify_relations report and
    a verify_induced SpectralReport."""
    dims = [int(a.computed) for a in relations.assertions if a.id.endswith(".dimension")]
    return {
        "p": p, "n": n, "conrey": chi.conrey_index(),
        "vexp": chi.exponent_table().copy(),
        "r": [relations.meta["r"], spectral.r],
        "algebra_dim": dims[0] if len(dims) == 1 else None,
        "induced_dim": spectral.dim,
        "components": dict(spectral.component_dims["by_rank"]),
        "components_by_system": dict(spectral.component_dims["by_system"]),
        "fixed": dict(spectral.fixed_dims),
        "ok": relations.ok and spectral.ok(),
    }


def cell_errors(cells) -> list[str]:
    errors = []
    for (p, n), chars in cells:
        tables = [(chi.exponent_table(), chi.field.order) for chi in chars]
        errors += checks.check_cell_characters(p, n, tables)
    return errors


class GridCapture:
    """Results of run_verify's per-character calls, keyed by (p, n, conrey)."""

    def __init__(self, campaign_module):
        self.relations: dict = {}
        self.spectral: dict = {}
        self.calls = 0
        _capture(campaign_module, "verify_relations", self._relations)
        _capture(campaign_module, "verify_induced", self._spectral)

    def _relations(self, args, rep):
        p, n, chi = args[:3]
        self.relations[(p, n, chi.conrey_index())] = (chi, rep)
        self.calls += 1

    def _spectral(self, args, sr):
        p, n, chi = args[:3]
        self.spectral[(p, n, chi.conrey_index())] = sr

    def errors(self, cells) -> list[str]:
        want = [(p, n, chi.conrey_index()) for (p, n), chars in cells for chi in chars]
        errors = []
        if self.calls != len(want) or set(self.relations) != set(want) or set(self.spectral) != set(want):
            errors.append(f"campaign ran {self.calls} characters, {len(set(self.relations))} "
                          f"distinct; expected the {len(want)} generated")
        for key in want:
            if key in self.relations and key in self.spectral:
                chi, rep = self.relations[key]
                rec = character_record(key[0], key[1], chi, rep, self.spectral[key])
                errors += checks.check_character(rec)
        return errors


class ClassicalCapture:
    """Per-family results of the classical suite, keyed by fixture stem."""

    def __init__(self, campaign_module):
        self.spaces: dict[str, dict] = {}
        _capture(campaign_module, "characterize", self._characterize)
        _capture(campaign_module, "op_W", self._op_w)
        _capture(campaign_module, "w_square_scalar", self._w_scalar)

    def _entry(self, sp) -> dict:
        return self.spaces.setdefault(space_stem(sp), {"W": [], "s": []})

    def _characterize(self, args, res):
        entry = self._entry(args[0])
        entry.update(dim=res.dim, new_dim=res.new_dim, expected_new=res.expected_new,
                     gap=res.gap, quads=[op.quad for op in res.ops], runs=entry.get("runs", 0) + 1)

    def _op_w(self, args, op):
        self._entry(args[0])["W"].append(op.matrix)

    def _w_scalar(self, args, s):
        self._entry(args[0])["s"].append(s)

    def records(self, families, shipped) -> list[dict]:
        from hecke_lab.dimoracle import dim_new

        expected = {f["name"]: f["expected_new"] for f in shipped["families"]}
        out = []
        for fam in families:
            sp = fam["space"]
            got = self.spaces.get(space_stem(sp), {"W": [], "s": []})
            w_devs = [
                float(np.linalg.norm(W @ W - s * np.eye(W.shape[0])))
                for W, s in zip(got["W"], got["s"])
            ]
            if len(got["W"]) != len(got["s"]):
                w_devs.append(math.inf)
            out.append({
                "name": fam["name"], "dim": sp.dim, "runs": got.get("runs", 0),
                "new_dim": got.get("new_dim"), "expected_new": got.get("expected_new"),
                "oracle": dim_new(sp.level, sp.weight, sp.char),
                "manifest": expected.get(fam["name"]),
                "gap": got.get("gap", -math.inf), "quads": got.get("quads", []), "w_devs": w_devs,
            })
        return out

    def errors(self, families, shipped) -> list[str]:
        errors = []
        if len(families) != len(shipped["families"]):
            errors.append(f"{len(families)} families loaded, {len(shipped['families'])} shipped")
        for rec in self.records(families, shipped):
            if rec["runs"] != 1:
                errors.append(f"{rec['name']}: characterized {rec['runs']} times, expected once")
            errors += checks.check_family(rec)
        return errors


def _report_errors(report) -> list[str]:
    return [f"program assertion failed: {a.id}" for a in report.failures()]


class VerifyDefault:
    """The default `hecke-lab verify` campaign through campaign.run_verify."""

    name = "verify-default"
    attempted = 157 + 12  # characters of the default grid, fixture families

    def setup(self, seed, workdir):
        from hecke_lab import campaign

        cells = seeded_characters(seed)
        fixtures, families, shipped = seeded_fixtures(seed, workdir)
        grid = [{"p": p, "n": n, "conrey": chi.conrey_index()} for (p, n), chars in cells for chi in chars]
        if len(grid) + len(families) != self.attempted:
            raise RuntimeError(f"generated {len(grid)} characters and {len(families)} families")
        return SimpleNamespace(
            campaign=campaign.Campaign(grid=grid, fixture_dirs=[str(fixtures)], seed=seed),
            cells=cells, families=families, shipped=shipped, run_verify=campaign.run_verify,
            grid_capture=GridCapture(campaign), classical_capture=ClassicalCapture(campaign),
        )

    def run(self, inp):
        return inp.run_verify(inp.campaign)

    def check(self, inp, report) -> list[str]:
        return (cell_errors(inp.cells) + inp.grid_capture.errors(inp.cells)
                + inp.classical_capture.errors(inp.families, inp.shipped) + _report_errors(report))


class SupportLaw:
    """hecke.is_supported on every class representative of every character."""

    name = "support-law"
    attempted = 586

    def setup(self, seed, workdir):
        from hecke_lab import hecke
        from hecke_lab.cosets import all_labels, label_rep

        cells = seeded_characters(seed)
        queries = [(chi, lab, label_rep(p, n, lab))
                   for (p, n), chars in cells for chi in chars for lab in all_labels(p, n)]
        if len(queries) != self.attempted:
            raise RuntimeError(f"generated {len(queries)} support queries")
        return SimpleNamespace(cells=cells, queries=queries, is_supported=hecke.is_supported)

    def run(self, inp):
        is_supported = inp.is_supported
        return [is_supported(g, chi) for chi, _, g in inp.queries]

    def check(self, inp, answers) -> list[str]:
        supported: dict[int, list[str]] = {}
        for (chi, lab, _), yes in zip(inp.queries, answers):
            labels = supported.setdefault(id(chi), [])
            if yes:
                labels.append(lab)
        errors = cell_errors(inp.cells)
        for (p, n), chars in inp.cells:
            for chi in chars:
                errors += checks.check_support({
                    "p": p, "n": n, "conrey": chi.conrey_index(), "vexp": chi.exponent_table(),
                    "r": [chi.conductor_exponent], "supported": supported[id(chi)],
                })
        return errors


class LargeCell:
    """verify_relations plus verify_induced for the trivial character at
    (7, 3): dimension 392 over Q(zeta_294).  One character, so the seed
    changes nothing here."""

    name = "large-cell"
    attempted = 2
    need_mb = 2800  # peak RSS 2650 MB at the commit the benchmark was defined on

    def setup(self, seed, workdir):
        from hecke_lab import hecke, induced
        from hecke_lab.characters import PChar

        p, n = LARGE_CELL
        return SimpleNamespace(chi=PChar.trivial(p, n), hecke=hecke, induced=induced)

    def run(self, inp):
        p, n = LARGE_CELL
        return inp.hecke.verify_relations(p, n, inp.chi), inp.induced.verify_induced(p, n, inp.chi)

    def check(self, inp, out) -> list[str]:
        relations, spectral = out
        rec = character_record(*LARGE_CELL, inp.chi, relations, spectral)
        return checks.check_character(rec)


class Classical:
    """The classical suite over the shipped fixture families, through
    run_verify with an empty grid."""

    name = "classical"
    attempted = 12

    def setup(self, seed, workdir):
        from hecke_lab import campaign

        fixtures, families, shipped = seeded_fixtures(seed, workdir)
        if len(families) != self.attempted:
            raise RuntimeError(f"loaded {len(families)} families")
        return SimpleNamespace(
            campaign=campaign.Campaign(grid=[], fixture_dirs=[str(fixtures)], seed=seed),
            families=families, shipped=shipped, run_verify=campaign.run_verify,
            classical_capture=ClassicalCapture(campaign),
        )

    def run(self, inp):
        return inp.run_verify(inp.campaign)

    def check(self, inp, report) -> list[str]:
        return inp.classical_capture.errors(inp.families, inp.shipped) + _report_errors(report)


WORKLOADS = {w.name: w for w in (VerifyDefault(), SupportLaw(), LargeCell(), Classical())}
