#!/usr/bin/env python3
"""Simulator benchmark: build perfbench from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload paper_10pb --seed 1 --seconds 10 --trace 0

builds the simulator libraries and the perfbench program into .bench_build/
(Release, incremental), runs the workload in a fresh process, and passes its
output through: one "metric NAME = VALUE UNIT" line per metric, then one JSON
object on the last line.  --trace 1 reports the per-layer metrics instead of
the end-to-end ones and writes a Chrome trace-event file (open it in
Perfetto) under .bench_build/traces/.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload, each in its own process, in both modes, and prints
every metric by name and unit.  The exit code is nonzero on any failed
check.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
DEFAULT_SEED = 1
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures once, then builds incrementally; all output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}; "
                 "run from the root of a source tree")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", JOBS,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace, extra=(), capture=False):
    """Runs one workload in a fresh process; returns the CompletedProcess."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bench-dir", str(HERE), *extra]
    if trace == 1:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return subprocess.run(cmd, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            ok &= run_workload(workload, seed, seconds, trace).returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    build()
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
