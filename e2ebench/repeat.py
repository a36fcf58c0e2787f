#!/usr/bin/env python3
"""Repeatability check: runs one workload N times with seeds 1..N.

    python3 e2ebench/repeat.py --workload execute [--runs 10] [--seconds 10]

Run from the repository root. For every end-to-end metric of BENCHMARK.json
it prints the median, the quartiles and the interquartile range as a share of
the median, next to the metric's bound. Exits non-zero when a run fails its
checks, when the share of failed operations differs between runs, or when a
metric spreads by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: checks failed" % seed)
            ok = False
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, result["metrics"][n]["value"]) for n in values)))
        sys.stdout.flush()

    if len({s if s == 0 else s[0] / s[1] for s in shares}) > 1:
        print("the share of failed operations differs between runs")
        ok = False
    print("%-18s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ""
        if spread > metric["bound"]:
            verdict = "  SPREAD EXCEEDS BOUND"
            ok = False
        print("%-18s %12.5g %12.5g %12.5g %8.3f %8.3f%s" %
              (name, med, q1, q3, spread, metric["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
