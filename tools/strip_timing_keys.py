#!/usr/bin/env python3
"""Strips machine-dependent timing keys from a bench JSON export.

Stdlib-only. A bench export such as bench_compression's or
bench_ingest's records two classes of values: deterministic observables
(rows, work, pages, bytes, digests) that must be byte-stable across
machines, and timing keys (wall clock, derived speedups, adaptive
iteration counts, the machine's hardware thread count) that cannot be.
This filter removes the latter so CI can hold the former to
tools/compare_bench.py --rel-tol 0 against the committed baseline. CI
also strips the span durations (`duration_ns`) of two sampled traces
before comparing them.

The serving telemetry exports (DESIGN.md §15) add two more timing
classes: windows stamped under --capture-wall-time carry `wall_ns` (and
quantile blocks may carry `latency_wall_ns`-style keys), and recorders
report their steady-clock read count as `clock_reads` — zero on the
deterministic paths, machine-dependent otherwise.

A key is stripped when its name equals or starts with one of:
  wall_ms, wall_ns, speedup, iterations, hardware_threads, clock_reads,
  duration_ns
or ends with one of:
  _wall_ns, _wall_ms

Usage:
  tools/strip_timing_keys.py IN.json OUT.json
"""

import json
import sys

TIMING_PREFIXES = ("wall_ms", "wall_ns", "speedup", "iterations",
                   "hardware_threads", "clock_reads", "duration_ns")
TIMING_SUFFIXES = ("_wall_ns", "_wall_ms")


def is_timing_key(key):
    return key.startswith(TIMING_PREFIXES) or key.endswith(TIMING_SUFFIXES)


def strip(node):
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if not is_timing_key(key)
        }
    if isinstance(node, list):
        return [strip(item) for item in node]
    return node


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    with open(argv[2], "w") as f:
        json.dump(strip(doc), f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
