#!/usr/bin/env python3
"""Builds and runs the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The simulator (../src) and the
benchmark are built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); then the benchmark binary runs one
workload and its standard output is passed through. Its last line is the
JSON summary: {"correct", "attempted", "failed", "metrics"}. The exit code is
the binary's, or 2 when the build fails. perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lumped_inter", "grid64_ondemand", "fleet_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", source_dir, "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "perfbench_tests"],
    )
    for step in steps:
        # Build chatter goes to stderr so the last stdout line stays the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(source_dir, build_dir):
        return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(build_dir, "out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print("perfbench: benchmark exited with code %d" % done.returncode, file=sys.stderr)
        return done.returncode or 2
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed summary line", file=sys.stderr)
        return 2
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
