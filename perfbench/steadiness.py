#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]

For every end-to-end metric prints the median over the untraced runs, the
quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. Seeds
are 1, 2, ..., runs; run length is BENCHMARK.json's run_seconds. Run it
from the root of a checkout.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()


def run_once(command, workload, seed, seconds):
    start = time.monotonic()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("%s seed %d failed with exit code %d"
                 % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: %d of %d operations failed"
                 % (workload, seed, result["failed"], result["attempted"]))
    return result["metrics"], time.monotonic() - start


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        series = {}
        walls = []
        for i in range(args.runs):
            metrics, wall = run_once(spec["command"], workload, i + 1,
                                     spec["run_seconds"])
            walls.append(wall)
            for name, metric in metrics.items():
                series.setdefault(name, []).append(metric["value"])
        print("%s: %d runs, seeds 1..%d, %.0f-%.0f s per run" % (
            workload, args.runs, args.runs, min(walls), max(walls)))
        for name, values in series.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            print("  %-30s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f  bound %.2f" % (
                      name, median, q1, q3, spread, bounds[name]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
