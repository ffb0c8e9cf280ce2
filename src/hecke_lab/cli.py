"""hecke-lab command line.

verify     run a verification campaign (default: full built-in grid)
classical  run the campaign's classical suite on one fixture directory

Exit codes: 0 all assertions pass, 1 a verdict or a premise failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .campaign import Campaign, run_verify
from .report import Report
from .spaces import SpaceFormatError


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hecke-lab", description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("--campaign", help="campaign JSON file (default: built-in grid)")
    v.add_argument("--seed", type=int, help="seed recorded in the report (default: the "
                   "campaign file's, else 0)")
    v.add_argument("--report", help="write the JSON report to this path")

    c = sub.add_parser("classical", help="run the classical suite on one fixture directory")
    c.add_argument("--fixture", required=True,
                   help="fixture directory with a family manifest, as a campaign's fixture_dirs")
    c.add_argument("--report", help="write the JSON report to this path")
    return ap


def _campaign(args) -> Campaign:
    if args.command == "classical":
        return Campaign(fixture_dirs=[args.fixture])
    campaign = Campaign.from_file(args.campaign) if args.campaign else Campaign.default()
    if args.seed is not None:
        campaign.seed = args.seed
    return campaign


def _emit(rep: Report, path: str | None) -> None:
    if path:
        Path(path).write_text(rep.to_json() + "\n")
    print(f"assertions: {rep.n_pass} pass, {rep.n_fail} fail, {rep.n_error} error")
    for a in rep.failures():
        if a.status == "error":
            print(f"  ERROR {a.id}: {a.detail}")
        else:
            print(f"  FAIL {a.id}: expected {a.expected}, computed {a.computed}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep = run_verify(_campaign(args))
        _emit(rep, args.report)
    except (SpaceFormatError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
