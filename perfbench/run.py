#!/usr/bin/env python3
"""End-to-end benchmark: editor -> MediatingProxy -> HttpServer -> ShardRouter.

usage: python3 perfbench/run.py --workload typing|fullsave_large|open_mix
                                --seed N --seconds S --trace 0|1 [--keep]

Run from the root of a source checkout. Builds perfbench/e2e_bench from
the checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload and prints one JSON object as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off; set-up repeated
3 times, median reported). --trace 1 runs the workload untraced and
then traced, same seed, and reports the per-layer metrics plus the
tracing overhead. --keep leaves the run directories (run.json,
spans.tsv) under the build directory for trace_report.py.

Workloads, layers and flush policy: see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import trace_report  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("typing", "fullsave_large", "open_mix")
RUN_TIMEOUT_S = 85  # per e2e_bench process; a trace run starts two


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "-j", "3"], stdout=sys.stderr, check=True)
    return out / "e2e_bench"


def run_bench(binary, args, trace, out, extra=()):
    subprocess.run([str(binary), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "1" if trace else "0", "--out", str(out),
                    *extra],
                   stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    return trace_report.Run(out)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--keep", action="store_true")
    args = parser.parse_args()

    binary = build()
    runs = build_dir() / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            # setup_s is not reported here: one set-up each.
            one = ("--setups", "1")
            untraced = run_bench(binary, args, False, runs / "untraced", one)
            run = run_bench(binary, args, True, runs / "traced", one)
            values = trace_report.per_layer(run, untraced)
            units = trace_report.PER_LAYER_UNITS
            attempted, failed = trace_report.failures(run)
            more = trace_report.failures(untraced)
            attempted, failed = attempted + more[0], failed + more[1]
        else:
            run = run_bench(binary, args, False, runs / "untraced")
            values, attempted, failed = trace_report.end_to_end(run)
            units = trace_report.END_TO_END_UNITS
    finally:
        if not args.keep:
            shutil.rmtree(runs, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
