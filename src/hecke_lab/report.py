"""Machine-readable assertion reports.

Every checked identity becomes an Assertion with an id, a status, the expected
and computed values (stringified, exact where the computation is exact), a
provenance tag, and its runtime.  Provenance vocabulary:

  "formula"    expected value is a closed-form prediction of the theory
  "definition" expected value is immediate from a definition or construction
  "oracle"     expected value comes from an independent computation path
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

PROVENANCE_TAGS = ("formula", "definition", "oracle")


@dataclass
class Assertion:
    id: str
    status: str  # "pass" | "fail" | "error"
    expected: str
    computed: str
    provenance: str
    runtime: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {self.provenance!r}")
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "expected": self.expected,
            "computed": self.computed,
            "provenance": self.provenance,
            "runtime": self.runtime,
            "detail": self.detail,
        }


@dataclass
class Report:
    seed: int | None = None
    assertions: list[Assertion] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, assertion: Assertion) -> Assertion:
        self.assertions.append(assertion)
        return assertion

    def extend(self, assertions) -> None:
        self.assertions.extend(assertions)

    @property
    def n_pass(self) -> int:
        return sum(1 for a in self.assertions if a.status == "pass")

    @property
    def n_fail(self) -> int:
        return len(self.assertions) - self.n_pass

    @property
    def ok(self) -> bool:
        return all(a.status == "pass" for a in self.assertions)

    def failures(self) -> list[Assertion]:
        return [a for a in self.assertions if a.status != "pass"]

    def to_dict(self, include_runtime: bool = True) -> dict:
        body = {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "meta": self.meta,
            "summary": {"pass": self.n_pass, "fail": self.n_fail, "total": len(self.assertions)},
            "assertions": [a.to_dict() for a in self.assertions],
        }
        if not include_runtime:
            for a in body["assertions"]:
                a.pop("runtime", None)
        return body

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_dict(include_runtime=include_runtime), indent=2, sort_keys=True)


class timed:
    """Context manager measuring wall time for an assertion."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def check(rep: Report, aid: str, expected, computed, provenance: str, elapsed: float = 0.0,
          detail: str = "") -> Assertion:
    """Record an equality assertion with stringified values."""
    ok = expected == computed
    return rep.add(
        Assertion(
            id=aid,
            status="pass" if ok else "fail",
            expected=_show(expected),
            computed=_show(computed),
            provenance=provenance,
            runtime=elapsed,
            detail=detail,
        )
    )


def check_bool(rep: Report, aid: str, ok: bool, provenance: str, elapsed: float = 0.0,
               expected: str = "true", computed: str | None = None, detail: str = "") -> Assertion:
    return rep.add(
        Assertion(
            id=aid,
            status="pass" if ok else "fail",
            expected=expected,
            computed=computed if computed is not None else ("true" if ok else "false"),
            provenance=provenance,
            runtime=elapsed,
            detail=detail,
        )
    )


def _show(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return f"{v:.6g}"
    return repr(v)
