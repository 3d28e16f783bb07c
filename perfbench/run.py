#!/usr/bin/env python3
"""Builds the swimcpp benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fb2010-pipeline --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, in Release mode; the first run
builds src/ and swim_perfbench (about a minute on 4 cores), later runs only
check that the build is current. Work files go to <build dir>/work and a
result file per run, with its spans when traced, to <build dir>/work/results.
The last line of stdout is the JSON result of swim_perfbench; see
perfbench/README.md for the workloads and metrics.

Two extra flags are passed through for the self-test: --jobs runs small and
--inject fault feeds broken inputs.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = ROOT / "perfbench"
MAX_LANES = 4


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures and builds swim_perfbench; returns its path or None."""
    cmake_dir = out / "perfbench"
    jobs = str(min(MAX_LANES, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("build step failed: %s\n" % " ".join(step))
            return None
    return cmake_dir / "swim_perfbench"


def source_digest():
    """SHA-256 over src/, so result files from the same code compare."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    # A checkout exported without .git reports "unknown", not the sha of
    # some enclosing repository.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--jobs")
    parser.add_argument("--inject")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("no swimcpp sources under %s/src\n" % ROOT)
        return 1
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", str(out / "work"), "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    for flag in ("jobs", "inject"):
        value = getattr(args, flag)
        if value is not None:
            command += ["--" + flag, value]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
