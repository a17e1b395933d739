#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs it once.

    python3 pipebench/run.py --workload ingest|advise --seed N \
        --seconds S --trace 0|1 [--scale X]

Run it from the root of a checkout. The first call configures and builds
the library and the benchmark program into .bench_build/pipebench (a
minute or so on four cores); later calls only check that the build is
current. Build output goes to standard error, so the last line of
standard output is the program's JSON result. With --trace 1 the spans
are written to .bench_build/pipebench/trace-<workload>-seed<N>.jsonl.

Exits non-zero without a result when the build or the run fails, and in
a directory that holds the benchmark but not the repository's sources.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "pipebench"
BUILD_DIR = ROOT / ".bench_build" / "pipebench"
BINARY = BUILD_DIR / "pipebench"
# A run must end within 180 s; the program caps its own loop well below
# this.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the program; returns True on success."""
    if not (ROOT / "src").is_dir():
        print("pipebench: no src/ next to pipebench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("pipebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "advise"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=float)
    args = parser.parse_args()

    if not build():
        return 1
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if args.trace == "1":
        command += ["--trace-out", str(
            BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pipebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
