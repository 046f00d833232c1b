#!/usr/bin/env python3
"""Repeats benchmark runs and summarises them.

    python3 primbench/report.py --workload serve-read --runs 10 [--first-seed 1]
                                [--seconds 10] [--traced-runs 3]

For each end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, with
the failed share of every run. With --traced-runs it also runs the traced
mode and prints each per-layer metric's median next to the end-to-end
medians, and the tracing overhead: the traced run's end-to-end median over
the untraced one, minus one. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

TRACED_PREFIX = "primbench: traced end-to-end "


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "primbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        sys.exit("run failed: %s seed %d trace %d" % (workload, seed, trace))
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in done.stderr.splitlines():
        if line.startswith(TRACED_PREFIX):
            traced_e2e = json.loads(line[len(TRACED_PREFIX):])
    return result, traced_e2e


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.runs)
    untraced = [run(args.workload, s, args.seconds, 0)[0] for s in seeds]
    print("%s: %d untraced runs, seeds %d..%d" %
          (args.workload, args.runs, seeds[0], seeds[-1]))
    shares = sorted({r["failed"] / r["attempted"] for r in untraced})
    print("  correct: %s   failed share: %s" %
          (all(r["correct"] for r in untraced),
           ", ".join("%.6f" % s for s in shares)))
    medians = {}
    for name in untraced[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in untraced]
        med, q1, q3, spread = summarise(values)
        medians[name] = med
        print("  %-12s median %12.5g  Q1 %12.5g  Q3 %12.5g  spread %6.3f  %s" %
              (name, med, q1, q3, spread, untraced[0]["metrics"][name]["unit"]))
    if args.traced_runs <= 0:
        return
    traced = [run(args.workload, s, args.seconds, 1) for s in
              range(args.first_seed, args.first_seed + args.traced_runs)]
    print("  traced runs: %d" % len(traced))
    for name, med in medians.items():
        values = [t[1][name]["value"] for t in traced if t[1]]
        traced_med = statistics.median(values)
        print("  overhead %-12s traced median %12.5g  untraced %12.5g  %+6.1f%%" %
              (name, traced_med, med, 100.0 * (traced_med / med - 1.0)))
    for name in traced[0][0]["metrics"]:
        values = [t[0]["metrics"][name]["value"] for t in traced]
        print("  layer %-28s median %12.5g %s" %
              (name, statistics.median(values),
               traced[0][0]["metrics"][name]["unit"]))


if __name__ == "__main__":
    main()
