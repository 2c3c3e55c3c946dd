#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload repeatedly, each run with another seed, and prints for
every metric the median, the quartiles, the spread (interquartile range as
a share of the median) and the worst deviation from the median. A metric
whose spread exceeds a third of its bound in BENCHMARK.json is flagged; the
exit code is 1 when any metric is flagged.

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --runs 5 --workloads narrow-sd --trace 1
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    steal = re.search(r"host steal ([0-9.]+)%", out.stdout)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    return result, float(steal.group(1)) if steal else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = False
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, steal = run_once(workload, seed, args.seconds,
                                     args.trace)
            print("%s seed %d: host steal %.1f%%" % (workload, seed, steal),
                  flush=True)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: %d of %d operations failed" %
                      (workload, seed, result["failed"], result["attempted"]))
                flagged = True
            runs.append(result["metrics"])
        print("\n%s: %d runs of %g s" % (workload, args.runs, args.seconds))
        print("  %-32s %12s %12s %12s %8s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "worst", "bound"))
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            scale = abs(med) if med else 1.0
            spread = (q3 - q1) / scale
            worst = max(abs(v - med) for v in values) / scale
            bound = bounds.get(name)
            bad = bound is not None and not args.trace and spread > bound / 3
            flagged |= bad
            print("  %-32s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6s%s" %
                  (name, med, q1, q3, 100 * spread, 100 * worst,
                   "" if bound is None else bound, "  <-- unsteady" if bad
                   else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
