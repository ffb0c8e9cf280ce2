"""Spans around the public functions at hecke_lab's module boundaries.

The recorder replaces each boundary function, wherever a hecke_lab module
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and a few counters.  Spans stay in memory until the pass
ends; the pass then writes them out and turns them into per-layer metrics.
Only traced passes install it, and end-to-end metrics never come from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from workloads import GRID

# Per-layer metric names in output order.  Times are inclusive: a span's
# duration counts once for its name even when it holds other spans.
TIMED = [
    "cosets.coset_table", "cosets.enumerate_Kg",
    "hecke.is_supported", "hecke.verify_relations",
    "groupconv.cross_check_structure",
    "induced.verify_induced", "induced.eigenvalue_tables", "induced.piL_basis",
    "induced.component_dimensions", "induced.fixed_subspace",
    "qexp.evaluate_many",
    "operators.op_matrix", "operators.sample_points", "operators.nullspace",
    "newspace.characterize", "newspace.placement_checks",
    "dimoracle.dim_new",
    "spaces.load_families",
    "campaign.run_verify", "campaign.classical_suite",
]
CALLS = [
    "cosets.enumerate_Kg", "hecke.is_supported", "hecke.verify_relations",
    "induced.fixed_subspace", "qexp.evaluate_many", "operators.op_matrix",
]
# Only projector certification holds large arrays; under tracemalloc the
# eigenvalue tables (which build the transport tables) and the fixed chain
# run several times slower and peak below 6 MB, so they carry no peak.
PEAKS = ["induced.component_dimensions"]
COUNTERS = {"cosets.Kg_elements": "elements", "qexp.coeff_evals": "coeff_evals"}
SIZES = {"induced.dim_max": "dim", "induced.field_order_max": "field_order"}
CELL_SPANS = ("hecke.is_supported", "hecke.verify_relations", "induced.verify_induced")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {f"{name}_s": "s" for name in TIMED}
    units.update({f"{name}_calls": "count" for name in CALLS})
    units.update({f"{name}_peak_mb": "MB" for name in PEAKS})
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "count" for name in SIZES})
    units.update({f"cell.p{p}n{n}.s": "s" for p, n in GRID})
    units["trace.overhead_s"] = "s"
    return units


def _cell(p, n, *_, **__):
    return {"cell": [int(p), int(n)]}


def _cell_and_field(p, n, chi, *_, **__):
    return {"cell": [int(p), int(n)], "field_order": chi.field.order}


def _evaluations(forms, points, *_, **__):
    if not forms:
        return {"coeff_evals": 0}
    npts = len(np.atleast_1d(np.asarray(points)))
    return {"coeff_evals": npts * min(f.prec for f in forms) * len(forms)}


# module -> [(attribute, span name, info from the call's arguments,
#             info from its result)]
BOUNDARY = {
    "cosets": [
        ("coset_table", "cosets.coset_table", None, None),
        ("enumerate_Kg", "cosets.enumerate_Kg", None, lambda out: {"elements": len(out)}),
    ],
    "hecke": [
        ("is_supported", "hecke.is_supported", lambda g, *a, **k: _cell(g.p, g.n), None),
        ("verify_relations", "hecke.verify_relations", _cell, None),
    ],
    "groupconv": [
        ("cross_check_structure", "groupconv.cross_check_structure", None, None),
    ],
    "induced": [
        ("verify_induced", "induced.verify_induced", _cell_and_field, lambda out: {"dim": out.dim}),
        ("eigenvalue_tables", "induced.eigenvalue_tables", None, None),
        ("component_dimensions", "induced.component_dimensions", None, None),
        ("fixed_subspace", "induced.fixed_subspace", None, None),
        ("InducedRep.piL_basis", "induced.piL_basis", None, None),
    ],
    "qexp": [("evaluate_many", "qexp.evaluate_many", _evaluations, None)],
    "operators": [
        ("op_matrix", "operators.op_matrix", None, None),
        ("sample_points", "operators.sample_points", None, None),
        ("nullspace", "operators.nullspace", None, None),
    ],
    "newspace": [
        ("characterize", "newspace.characterize", None, None),
        ("placement_checks", "newspace.placement_checks", None, None),
    ],
    "dimoracle": [("dim_new", "dimoracle.dim_new", None, None)],
    "spaces": [("load_families", "spaces.load_families", None, None)],
    "campaign": [
        ("run_verify", "campaign.run_verify", None, None),
        ("_classical_suite", "campaign.classical_suite", None, None),
    ],
}


class Recorder:
    """In-memory span list: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, args_info=None, result_info=None, peak=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    args_info(*args, **kwargs) if args_info else None]
            stack.append(len(spans))
            spans.append(span)
            own_tracing = peak and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if own_tracing:
                    span[4] = dict(span[4] or {}, peak_mb=tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                stack.pop()
            if result_info:
                span[4] = dict(span[4] or {}, **result_info(out))
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every boundary function in `package` (the imported hecke_lab)."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for modname, entries in BOUNDARY.items():
            home = importlib.import_module(f"{package.__name__}.{modname}")
            for attr, name, args_info, result_info in entries:
                peak = name in PEAKS
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(getattr(cls, meth), name, args_info, result_info, peak))
                    continue
                orig = getattr(home, attr)
                traced = self.wrap(orig, name, args_info, result_info, peak)
                # callers that imported the function by name hold their own reference
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, traced)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters: dict[str, float] = defaultdict(float)
        peaks: dict[str, float] = defaultdict(float)
        cells: dict[tuple, float] = defaultdict(float)
        for idx, (name, t0, t1, parent, info) in enumerate(spans):
            calls[name] += 1
            info = info or {}
            # a span inside another of the same name is already counted
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                total[name] += t1 - t0
                if name in CELL_SPANS:
                    cells[tuple(info["cell"])] += t1 - t0
            for key in ("elements", "coeff_evals"):
                counters[key] += info.get(key, 0)
            for key in ("dim", "field_order", "peak_mb"):
                if key in info:
                    slot = name if key == "peak_mb" else key
                    peaks[slot] = max(peaks[slot], info[key])
        out = {f"{name}_s": total[name] for name in TIMED}
        out.update({f"{name}_calls": calls[name] for name in CALLS})
        out.update({f"{name}_peak_mb": peaks[name] for name in PEAKS})
        out.update({metric: counters[key] for metric, key in COUNTERS.items()})
        out.update({metric: peaks[key] for metric, key in SIZES.items()})
        out.update({f"cell.p{p}n{n}.s": cells[(p, n)] for p, n in GRID})
        return out

    def write(self, path) -> None:
        """Spans with self time, plus self time summed per name."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            by_name[s[0]] += t
        doc = {
            "fields": ["name", "start", "end", "parent", "self", "info"],
            "spans": [[s[0], s[1], s[2], s[3], t, s[4]] for s, t in zip(self.spans, own)],
            "self_s": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
        }
        path.write_text(json.dumps(doc))
