#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at a tiny scale.

    python3 pipebench/smoke_test.py

Runs every workload twice untraced and twice traced with one seed at
scale 0.05 (1,000 inproceedings and 100 books), through run.py, and
checks that
  * every end-to-end metric of BENCHMARK.json is printed with its unit by
    the untraced runs, and every per-layer metric by the traced runs;
  * every run is correct, with no failed op and ok_frac equal to 1;
  * design_cost, bytes_per_xml_byte and the exact per-layer counts are
    identical across the two runs of one seed.
Prints one line per check and exits 0 when all of them hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SCALE = "0.05"

# Per-layer metrics that are counts of deterministic work: equal across
# runs of one seed. Timings and the cost cache's hit fraction (parallel
# costing can race two misses on one key) are not.
EXACT_PER_LAYER = [
    "mapping.rows", "mapping.batches", "mapping.transient_peak_mb",
    "rel.stored_mb", "rel.dict_entries", "search.transformations",
    "search.rounds", "search.tuner_calls", "search.optimizer_calls",
] + [name + suffix
     for name in ("exec.rows_out", "exec.work", "exec.pages",
                  "rel.blocks_scanned", "rel.blocks_skipped",
                  "rel.skip_frac")
     for suffix in (".tuned", ".adhoc")]
EXACT_END_TO_END = ["design_cost", "bytes_per_xml_byte"]


def run(workload, trace):
    command = [sys.executable, str(ROOT / "pipebench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", trace, "--scale", SCALE]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=600)
    if result.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared, exact in (
                ("0", spec["end_to_end"], EXACT_END_TO_END),
                ("1", spec["per_layer"], EXACT_PER_LAYER)):
            first, second = run(workload, trace), run(workload, trace)
            tag = f"{workload} trace={trace}"
            for result in (first, second):
                check(result["correct"] and result["failed"] == 0 and
                      result["attempted"] >= 1,
                      f"{tag}: correct, {result['failed']} of "
                      f"{result['attempted']} ops failed")
                printed = result["metrics"]
                missing = [m["name"] for m in declared
                           if printed.get(m["name"], {}).get("unit") !=
                           m["unit"]]
                check(not missing, f"{tag}: every declared metric printed "
                      f"with its unit (missing or wrong: {missing})")
                if trace == "0":
                    check(printed["ok_frac"]["value"] == 1,
                          f"{tag}: ok_frac is 1")
            differing = [name for name in exact
                         if first["metrics"][name]["value"] !=
                         second["metrics"][name]["value"]]
            check(not differing, f"{tag}: exact metrics repeat across two "
                  f"runs of seed {SEED} (differing: {differing})")
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
