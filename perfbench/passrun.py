"""One benchmark pass in a fresh interpreter: set up, run, check, report.

    python3 perfbench/passrun.py --workload NAME --seed N --workdir DIR
                                 [--traced FILE] [--setup-only]

setup_s runs from the start of this script, before hecke_lab is imported,
to the end of input construction.  wall_s is the workload's timed call.
The last line of standard output is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--traced", type=Path, help="record spans and write them to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hecke_lab

    if Path(hecke_lab.__file__).resolve().parent != ROOT / "src" / "hecke_lab":
        print(f"imported hecke_lab from {hecke_lab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.traced:
        import spans

        recorder = spans.Recorder()
        recorder.install(hecke_lab)
    inputs = wl.setup(args.seed, args.workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failed, errors = 0, []
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception:  # the pass's operations failed; report them and go on
        traceback.print_exc()
        failed, out = wl.attempted, None
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if recorder:
        layers = recorder.metrics()
        recorder.write(args.traced)
    if out is not None:
        errors = wl.check(inputs, out)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "failed": failed, "errors": errors, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
