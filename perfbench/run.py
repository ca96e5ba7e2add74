#!/usr/bin/env python3
"""Build and run the arch21 scenario benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cluster_powercap, cluster_pdes_w4, multiregion_blackout.

The first run configures and builds perfbench/ (which compiles the
library sources under src/) into .bench_build/perfbench; later runs only
re-check the build.  Build output goes to stderr.  The benchmark binary
then runs in the foreground; its stdout is passed through, and its last
line is the JSON result.  A traced run (--trace 1) also writes the
benchmark's spans as Chrome trace JSON to .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "arch21_bench")
WORKLOADS = ("cluster_powercap", "cluster_pdes_w4", "multiregion_blackout")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "arch21_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as exc:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: malformed result line (%s)" % exc)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
