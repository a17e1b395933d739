#!/usr/bin/env python3
"""Measures how steady the benchmark is, from two alternated sets of runs.

Both sets run one build, alternated run by run.

    python3 pipebench/steadiness.py [--first-seed 1] [--out results.jsonl]
    python3 pipebench/steadiness.py --from results.jsonl

Each set makes ten runs of every workload in BENCHMARK.json, each run
measuring its run_seconds. Run i uses seed first_seed + i in both sets.
For each i and workload it runs set A then set B, or B then A for odd i,
so both sets see the same seeds and, as nearly as possible, the same host
phases. It then prints, for every end-to-end metric of every workload:
  * each set's median and quartiles (statistics.quantiles, n=4) and its
    quartile spread, (q3 - q1) / median;
  * the gap between the sets' medians, counted in the metric's worse
    direction, as a share of set A's median;
  * the bound from BENCHMARK.json, and whether both spreads and the size
    of the gap stay within it. The spread of setup_s is printed but not
    judged: the benchmark's acceptance rule bounds setup_s only by the gap
    between two sets' medians, because set-up runs before any timed op and
    a run repeats it only a few times.
It also prints each set's median host probe, so a host phase can be told
from a program change. --out keeps every run's record as one JSON line;
--from prints the table again from such a file, against the bounds in
BENCHMARK.json now. Exits 1 when a metric is out of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "pipebench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=900)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{result.returncode}")
    lines = result.stdout.strip().splitlines()
    probe = next(json.loads(line.split(" ", 2)[2]) for line in lines
                 if line.startswith("# host_probe_ms"))
    return json.loads(lines[-1]), probe


def run_sets(spec, first_seed, out_path):
    """Runs both sets alternated and returns one record per run."""
    records = []
    out = open(out_path, "w") if out_path else None
    for i in range(RUNS):
        seed = first_seed + i
        for workload in [w["name"] for w in spec["workloads"]]:
            for set_name in ("AB" if i % 2 == 0 else "BA"):
                result, probe = run_once(workload, seed, spec["run_seconds"])
                record = {"set": set_name, "seed": seed,
                          "workload": workload, "probe": probe,
                          "result": result}
                records.append(record)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                print(f"# run {i + 1}/{RUNS} {workload} set {set_name} "
                      f"seed {seed} correct {result['correct']}",
                      file=sys.stderr)
    if out:
        out.close()
    return records


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--from", dest="source")
    args = parser.parse_args()

    if args.source:
        records = [json.loads(line) for line in open(args.source)]
    else:
        records = run_sets(spec, args.first_seed, args.out)
    workloads = list(dict.fromkeys(r["workload"] for r in records))

    for set_name in "AB":
        runs = [r for r in records if r["set"] == set_name]
        probes = [r["probe"][k] for r in runs for k in ("before", "after")]
        print(f"set {set_name}: {len(runs)} runs, host probe median "
              f"{statistics.median(probes):.2f} ms")
    print(f"{'workload':8} {'metric':20} {'bound':>6} "
          f"{'A median':>12} {'A q1':>12} {'A q3':>12} {'A spr':>7} "
          f"{'B median':>12} {'B q1':>12} {'B q3':>12} {'B spr':>7} "
          f"{'gap':>7}  verdict")
    all_ok = True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for set_name in "AB":
                stats[set_name] = spread(
                    [r["result"]["metrics"][name]["value"] for r in records
                     if r["workload"] == workload and r["set"] == set_name])
            a_med, b_med = stats["A"][0], stats["B"][0]
            sign = 1 if metric["better"] == "lower" else -1
            gap = sign * (b_med - a_med) / a_med if a_med else 0.0
            judged = name != "setup_s"
            spreads_ok = not judged or all(
                stats[s][3] <= bound for s in "AB")
            ok = spreads_ok and abs(gap) <= bound
            third = all(stats[s][3] < bound / 3 for s in "AB")
            all_ok = all_ok and ok
            verdict = ("ok" if ok else "OUT OF BOUND") + (
                "" if third else ", spread above bound/3") + (
                "" if judged else " (spread not judged)")
            print(f"{workload:8} {name:20} {bound:6.4f} "
                  + " ".join(f"{stats[s][0]:12.6g} {stats[s][1]:12.6g} "
                             f"{stats[s][2]:12.6g} {stats[s][3]:7.4f}"
                             for s in "AB")
                  + f" {gap:7.4f}  {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
