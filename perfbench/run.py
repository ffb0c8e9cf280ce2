"""hecke-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload, each in a fresh interpreter, one after
another (a closed loop with a single client), until S seconds have gone;
every pass is checked.  --trace 0 prints the end-to-end metrics (medians
over the run's passes); --trace 1 alternates untraced and traced passes and
prints the per-layer metrics of the traced ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s


def child_env() -> dict:
    """BLAS threads no more than the cores this process may use; no bytecode
    files, so every pass compiles hecke_lab the same way."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def mem_available_mb() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class PassFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = child_env()
        self.t0 = time.perf_counter()
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def room_for_another(self) -> bool:
        return self.elapsed() + 1.5 * self.longest < RUN_LIMIT_S

    def child(self, *flags) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--workdir", str(self.workdir), *flags]
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass did not end within the run's {RUN_LIMIT_S:.0f} s") from exc
        self.longest = max(self.longest, time.perf_counter() - started)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"pass exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def measured_pass(self, traced: Path | None = None) -> dict:
        wl = workloads.WORKLOADS[self.args.workload]
        need = getattr(wl, "need_mb", 0)
        avail = mem_available_mb()
        if need and avail is not None and avail < need:
            raise PassFailed(f"refusing {wl.name}: MemAvailable {avail:.0f} MB is below the "
                             f"{need} MB this workload needs")
        return self.child(*(["--traced", str(traced)] if traced else []))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hecke_lab" / "__init__.py").is_file():
        print(f"no hecke_lab sources under {ROOT / 'src'}; run from a hecke-lab checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(Runner(args, workdir), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(runner: Runner, args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    trace_dir = ROOT / ".bench_traces"
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    stop = False
    while not stop:
        for kind in kinds:
            attempted += wl.attempted
            path = None
            if kind == "traced":
                trace_dir.mkdir(exist_ok=True)
                path = trace_dir / f"{wl.name}-seed{args.seed}-pass{len(traced)}.json"
            try:
                res = runner.measured_pass(path)
            except PassFailed as exc:
                print(f"{wl.name}: {exc}", file=sys.stderr)
                failed += wl.attempted
                stop = True
                break
            failed += res["failed"]
            errors += res["errors"]
            (traced if kind == "traced" else plain).append(res)
            print(f"{wl.name} seed {args.seed} {kind} pass: setup {res['setup_s']:.3f} s, "
                  f"wall {res['wall_s']:.3f} s, peak {res['peak_rss_mb']:.0f} MB, "
                  f"{len(res['errors'])} check errors", file=sys.stderr)
        stop = stop or runner.elapsed() >= args.seconds or not runner.room_for_another()

    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print(f"{wl.name}: no pass completed (attempted {attempted}, failed {failed})", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {}
        for name, unit in spans.layer_metric_units().items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES and runner.room_for_another():
            try:
                setups.append(runner.child("--setup-only")["setup_s"])
            except PassFailed as exc:
                print(f"{wl.name}: set-up sample failed: {exc}", file=sys.stderr)
                break
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
