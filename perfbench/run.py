"""Benchmark of the cayburge command line: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and README.md):
  verify-default    the six `verify` suites at the CLI's default bounds
  enumerate-stream  ten `enumerate` commands over every object kind and format
  formula-queries   512 short `count`, `poly`, `oeis` and `verify` queries

Every run starts fresh interpreters: several that only import
`cayburge.cli` (setup_s is their median import time) and one worker per
phase that runs the workload in-process through `cayburge.cli.main`,
closed loop, one caller, standard output sent to a byte-counting sink.
Times are reported at a reference machine speed (see speed.py).  The
program is imported from `src/` of the checkout this file sits in;
without it the run fails with exit code 2.

With --trace 0 the last line of standard output reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of one traced
pass, plus trace.overhead against one untraced pass of the same run.
Lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "enumerate-stream", "formula-queries")
SETUP_SPAWNS = 11
DEADLINE_S = 170  # every run must end within 180 s

# Imports the package the way a user's first command does, then prints
# how long that took and the machine's reference time (see speed.py).
# The first spawn of a run also writes the bytecode cache.
PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import cayburge.cli\n"
    "import_s = time.perf_counter() - start\n"
    "from speed import reference_seconds\n"
    "print(import_s, reference_seconds(5))\n"
)


class RunError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> str:
    """Run a child interpreter to completion and return its standard output."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting " + " ".join(argv[:3]))
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"timed out: {' '.join(argv[:3])}") from None
    if proc.returncode != 0:
        raise RunError(f"{' '.join(argv[:3])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_seconds(deadline: float) -> float:
    """Median import time over fresh interpreters, at reference speed."""
    argv = ["-c", PROBE, str(ROOT / "src"), str(HERE)]
    spawn(argv, deadline)  # warm-up: compiles and caches bytecode
    times = []
    for _ in range(SETUP_SPAWNS):
        import_s, reference_s = map(float, spawn(argv, deadline).split())
        times.append(import_s * REFERENCE_S / reference_s)
    return statistics.median(times)


def worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(seconds), "1" if trace else "0"]
    return json.loads(spawn(argv, deadline).strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share q of the
    values at or below it.  Always one measured latency, never a blend of
    two operations of very different cost."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def end_to_end(report: dict, setup_s: float) -> dict:
    wall = statistics.median(report["pass_s"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "objects_per_s": (report["objects_per_pass"] / wall, "1/s"),
        "queries_per_s": (report["queries_per_pass"] / wall, "1/s"),
        "query_p50_ms": (quantile(report["query_s"], 0.5) * 1e3, "ms"),
        "query_p90_ms": (quantile(report["query_s"], 0.9) * 1e3, "ms"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["pass_s"][0] / statistics.median(untraced["pass_s"])
    units = {"_s": "s", "_yield": "ratio", ".overhead": "ratio", ".accounted": "ratio", ".bytes_out": "bytes"}
    out = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cayburge" / "__init__.py").is_file():
        print(f"no cayburge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            # one untraced pass gives the base of trace.overhead
            untraced = worker(args.workload, args.seed, 0, False, deadline)
            traced = worker(args.workload, args.seed, 0, True, deadline)
            reports = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            setup_s = setup_seconds(deadline)
            untraced = worker(args.workload, args.seed, args.seconds, False, deadline)
            reports = [untraced]
            metrics = end_to_end(untraced, setup_s)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for note in r["notes"]:
            print(f"FAILED {note}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced['pass_s'])} pass(es) of {untraced['ops']} operations")
    for r in reports:
        raw = " ".join(f"{t:.6g}" for t in r["raw_pass_s"])
        at_reference = " ".join(f"{t:.6g}" for t in r["pass_s"])
        print(f"  pass time (s) measured: {raw}; at reference speed: {at_reference}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {failed / attempted if attempted else 1.0:>14.6g} failed/attempted ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
