"""Compare two reports written by `hecke-lab verify --report`.

    python3 tools/report_diff.py A.json B.json

Prints the assertion ids that only B has (added), those that only A has
(removed), and those whose status, expected, computed, provenance or detail
differ (changed, with each differing field as A -> B).  Runtimes and the
reports' meta are ignored.  An id that a report repeats is matched by its
occurrence: the k-th in A with the k-th in B, shown as `id #k` from the
second on.  Exit code 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIELDS = ("status", "expected", "computed", "provenance", "detail")


def read_assertions(path) -> dict[str, dict]:
    """A report's assertions by id, in its order, a repeated id numbered by
    its occurrence."""
    by_id: dict[str, dict] = {}
    seen: dict[str, int] = {}
    for row in json.loads(Path(path).read_text())["assertions"]:
        k = seen[row["id"]] = seen.get(row["id"], 0) + 1
        by_id[row["id"] if k == 1 else f"{row['id']} #{k}"] = row
    return by_id


def diff_reports(a: dict[str, dict], b: dict[str, dict]) -> dict[str, list]:
    """Added and removed ids (in each report's order), and for each changed
    id the (field, value in a, value in b) triples that differ."""
    changed = []
    for aid, row in a.items():
        if aid in b:
            fields = [(f, row[f], b[aid][f]) for f in FIELDS if row[f] != b[aid][f]]
            if fields:
                changed.append((aid, fields))
    return {
        "added": [aid for aid in b if aid not in a],
        "removed": [aid for aid in a if aid not in b],
        "changed": changed,
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    diff = diff_reports(read_assertions(args[0]), read_assertions(args[1]))
    for aid in diff["added"]:
        print(f"added {aid}")
    for aid in diff["removed"]:
        print(f"removed {aid}")
    for aid, fields in diff["changed"]:
        print(f"changed {aid}: " + "; ".join(f"{f} {x!r} -> {y!r}" for f, x, y in fields))
    counts = {key: len(value) for key, value in diff.items()}
    print(f"{counts['added']} added, {counts['removed']} removed, {counts['changed']} changed")
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
