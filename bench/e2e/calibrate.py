#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Usage, from the repository root:

    python3 bench/e2e/calibrate.py [--runs 10] [--sets 2] [--seconds T]
                                   [--workloads a,b] [--records DIR]

Builds the benchmark as run.py does, then runs every workload --runs times
per set, each run with another seed, and keeps each run's JSON record in
DIR/WORKLOAD/setN/seedS.json. For every workload and metric it prints each
set's median and spread: (q3 - q1) / median of statistics.quantiles(values,
n=4), the rule BENCHMARK.json's bounds are accepted by. It then hands each
later set and the first to `e2e_pipeline --compare`, whose `worse` column
is the drift between the sets' medians. The last line is the largest
spread as a share of its metric's bound (setup_s excluded: only its drift
is held to its bound).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

import run

ROOT = run.ROOT


def run_once(workload, seed, seconds, record):
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--json", record,
               "--work-dir", os.path.join(run.BUILD, "work")]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s%s" %
                 (workload, seed, proc.returncode, proc.stdout[-2000:],
                  proc.stderr[-2000:]))
    return json.loads(lines[-1]), wall_s


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--records",
                        default=os.path.join(run.BUILD, "calibration"))
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not run.build():
        sys.exit("build failed")

    worst = 0.0
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            directory = os.path.join(args.records, workload, "set%d" % s)
            os.makedirs(directory, exist_ok=True)
            for old in glob.glob(os.path.join(directory, "*.json")):
                os.remove(old)
            results = []
            for r in range(args.runs):
                seed = 1000 * s + r + 1
                result, wall_s = run_once(
                    workload, seed, seconds,
                    os.path.join(directory, "seed%d.json" % seed))
                if not result["correct"]:
                    sys.exit("%s seed %d: checks failed" % (workload, seed))
                print("%s set %d seed %d (%.1f s): %s" % (
                    workload, s, seed, wall_s, ", ".join(
                        "%s %.6g" % (name, m["value"])
                        for name, m in sorted(result["metrics"].items()))),
                    flush=True)
                results.append(result)
            sets.append((directory, results))
        print("%s: median, spread per set" % workload)
        for name, bound in bounds.items():
            cells = []
            for _, results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                cells.append("%12.6g spread %6.2f%%" %
                             (statistics.median(values), 100 * spread(values)))
                if name != "setup_s":
                    worst = max(worst, spread(values) / bound)
            print("  %-12s bound %4.0f%%  %s" %
                  (name, 100 * bound, " | ".join(cells)), flush=True)
        records = [",".join(sorted(glob.glob(os.path.join(d, "*.json"))))
                   for d, _ in sets]
        for later in records[1:]:
            subprocess.run([run.BINARY, "--compare", records[0], "--with",
                            later, "--benchmark-json", spec_path], cwd=ROOT)
            sys.stdout.flush()
    print("largest spread as a share of its bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
