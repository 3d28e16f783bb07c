#!/usr/bin/env python3
"""Self-test of the benchmark at a small job count.

    python3 perfbench/selftest.py

Run it from the root of a checkout. For every workload in BENCHMARK.json it
checks that an untraced run emits exactly the end-to-end metrics and a
traced run exactly the per-layer metrics, each with the declared unit, that
both pass their correctness checks, and that a deliberately broken input
(--inject fault: a corrupted STF1 byte, an out-of-order CSV append, a sweep
cell naming an unknown policy) fails a check instead of passing silently.
It also checks that an unknown workload exits non-zero without a result.
Takes about a minute after the build.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SMALL_JOBS = {"fb2010-pipeline": 20000, "fb2010-follow": 20000,
              "ccb-swim-sweep": 5000}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(condition, what):
    print("%s  %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        failures.append(what)


def run(spec, workload, trace, extra=()):
    command = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
        "--jobs", str(SMALL_JOBS.get(workload, 20000))] + list(extra)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def check_metrics(result, declared, label, positive):
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           "%s emits exactly the declared metrics (missing %s, extra %s)" % (
               label, sorted(set(declared) - set(metrics)),
               sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        expect(metric.get("unit") == unit and isinstance(value, (int, float))
               and math.isfinite(value) and (value > 0 or not positive),
               "%s %s = %r %s (declared unit %s)" % (
                   label, name, value, metric.get("unit"), unit))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = "%s trace=%d" % (workload, trace)
            code, result = run(spec, workload, trace)
            expect(code == 0 and result is not None,
                   "%s exits 0 with a JSON result" % label)
            if result is None:
                continue
            expect(set(result) == RESULT_KEYS,
                   "%s result keys %s" % (label, sorted(result)))
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   "%s passes its checks (%s failed of %s)" % (
                       label, result["failed"], result["attempted"]))
            check_metrics(result, declared, label, positive=trace == 0)

        code, result = run(spec, workload, 0, ["--inject", "fault"])
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               "%s with a broken input fails a check (%s)" % (
                   workload, None if result is None else
                   "%s failed of %s" % (result["failed"],
                                        result["attempted"])))

    code, result = run(spec, "no-such-workload", 0)
    expect(code != 0 and result is None,
           "an unknown workload exits %d without a result" % code)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
