#!/usr/bin/env python3
"""Builds the decision-service benchmark from this checkout and runs it.

    python3 decisionbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (decisionbench/CMakeLists.txt) compiles the
library sources of this checkout; the build lives in .bench_build/ and
traced runs write their span files to .bench_out/. The last line of
standard output is the benchmark's JSON result. Build or run failures
exit non-zero without printing a result. See decisionbench/WORKLOADS.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "decisionbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("hot_agent", "cold_wire", "admin_churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds (incrementally after the first run); build
    chatter goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "decisionbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"decisionbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("decisionbench: run timed out", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
