#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload execute --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset; the first run configures and compiles (a few
minutes), later runs only check that the binary is current. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the run
fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "adept_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(build_dir, "adept_e2e")
    return binary if os.path.exists(binary) else None


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--dir", ".bench_run", "--out", ".bench_out"] + sys.argv[1:]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = done.stdout.decode()
    sys.stdout.write(out)
    if done.returncode != 0:
        return done.returncode
    if "--selftest" not in sys.argv and not out.strip():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
