#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The program's libraries and the perfbench
binary are built with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; a later run reuses that build. Each run is
its own process, so peak memory and set-up time belong to one workload.
The binary prints a human-readable table and, as its last stdout line, the
JSON result, which this script checks and prints last. --self-test builds
and runs the tests showing that every output check rejects a corrupted
output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow_characterize", "tune_recipes", "fleet_storm", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    out = build_dir()
    steps = [["cmake", "--build", str(out), "--target", target, "-j", "4"]]
    if not (out / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("run.py: build step failed: " + " ".join(step))
    return out / target


def self_test():
    binary = build("perfbench_checks_test")
    sys.exit(subprocess.run([str(binary)]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build("perfbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in %d s" %
                 (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("run.py: perfbench exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
