"""hecke-lab command line.

verify     run a verification campaign (default: full built-in grid)
classical  operator diagnostics on a directory of fixture spaces

Exit codes: 0 all assertions pass, 1 assertion failures, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .campaign import Campaign, operator_checks, run_verify, space_checks
from .cyclotomic import _factorize
from .newspace import op_report, operator_kind, qualifying_primes
from .report import Report, timed
from .spaces import SpaceFormatError, load_fixtures

# --op -> (operator kind, index into the qualifying prime's builders:
# 0 the main operator, 1 its W-conjugate)
_OP_BUILDERS = {"q": ("Q", 0), "qprime": ("Q", 1), "s": ("S", 0), "sprime": ("S", 1)}


def _prime(text: str) -> int:
    """--prime's type: a prime, else argparse's usage error (exit 2)."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if _factorize(p) != [(p, 1)]:
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return p


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hecke-lab", description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("--campaign", help="campaign JSON file (default: built-in grid)")
    v.add_argument("--seed", type=int, help="seed recorded in the report (default: the "
                   "campaign file's, else 0)")
    v.add_argument("--report", help="write the JSON report to this path")

    c = sub.add_parser("classical", help="operator diagnostics on fixture spaces")
    c.add_argument("--fixture", required=True, help="directory of fixture JSON files")
    c.add_argument("--prime", required=True, type=_prime, help="prime p")
    c.add_argument("--op", choices=sorted(_OP_BUILDERS),
                   help="build one operator per space and check it as the campaign does")
    c.add_argument("--characterize", action="store_true",
                   help="run the campaign's checks on each space (placement aside)")
    c.add_argument("--report", help="write the JSON report to this path")
    return ap


def _cmd_verify(args) -> int:
    campaign = Campaign.from_file(args.campaign) if args.campaign else Campaign.default()
    if args.seed is not None:
        campaign.seed = args.seed
    rep = run_verify(campaign)
    _emit(rep, args.report)
    return 0 if rep.ok else 1


def _check_op(rep: Report, choice: str, p: int, tag: str, sp, flipped) -> bool:
    """Build the --op operator at p on one space and record its checks;
    False, with the reason in the report's meta, where the space admits no
    operator of that kind."""
    need_kind, which = _OP_BUILDERS[choice]
    q = next((q for q in qualifying_primes(sp.level, sp.char) if q.p == p), None)
    if q is None or q.kind != need_kind:
        # the level's exponent at p is wrong for it, or the character is
        # primitive at p
        n = sp.char.components[p].n
        wrong_level = operator_kind(n) != need_kind
        skipped = f"level has p-exponent {n}" if wrong_level else "character primitive at p"
        rep.meta["operators"].append({"space": tag, "op": choice, "skipped": skipped})
        return False
    with timed() as t:
        op = q.operator(which, sp, flipped)
    res = op_report(op, q.roots)
    rep.meta["operators"].append({
        "space": tag, "op": op.label, "dim": op.dim,
        "residual": op.residual, "conditioning": op.conditioning,
        "poisoned": op.poisoned, "quad": res.quad, "runtime": t.elapsed,
    })
    operator_checks(rep, f"{tag}.{op.label}", res)
    return True


def _cmd_classical(args) -> int:
    base = Path(args.fixture)
    if not base.is_dir():
        print(f"fixture directory not found: {base}", file=sys.stderr)
        return 2
    p = args.prime
    rep = Report(meta={"fixture": str(base), "prime": p, "operators": []})
    touched = built = 0
    for tag, sp, flipped in load_fixtures(base):
        if sp.level % p != 0:
            continue
        touched += 1
        if args.op:
            built += _check_op(rep, args.op, p, tag, sp, flipped)
        if args.characterize:
            space_checks(rep, tag, sp, flipped)
    if touched == 0:
        print(f"no fixture in {base} has level divisible by {p}", file=sys.stderr)
        return 2
    if args.op and built == 0 and not args.characterize:
        # every space skipped the operator: the run would check nothing
        print(f"no fixture in {base} admits --op {args.op} at p = {p}", file=sys.stderr)
        return 2
    _emit(rep, args.report)
    return 0 if rep.ok else 1


def _emit(rep: Report, path: str | None) -> None:
    if path:
        Path(path).write_text(rep.to_json() + "\n")
    print(f"assertions: {rep.n_pass} pass, {rep.n_fail} fail")
    for a in rep.failures():
        print(f"  FAIL {a.id}: expected {a.expected}, computed {a.computed}")


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.command == "classical" and not (args.op or args.characterize):
        ap.error("classical needs --op, --characterize or both")
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_classical(args)
    except (SpaceFormatError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
