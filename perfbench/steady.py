#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs per workload.

    python3 perfbench/steady.py --seed 1000

Run from the repository root. Each set runs every workload in
BENCHMARK.json ten times through perfbench/run.py for the file's
run_seconds, run i of a set with seed --seed + i, so a claimed gain can be
re-checked on seeds not used while writing it (the README names a held-out
seed). For every end-to-end metric it prints each run's value, each set's
median and quartiles, the spread (third minus first quartile, as a share
of the median) and the shift of the second set's median from the first's
(as a share, signed so that positive is worse). A metric passes when both
spreads and the size of the shift, either way, are within its bound; a
spread above a tenth is marked, without failing. It also checks that the
share of failed operations is the same in both sets and that every run was
correct. Exit status 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TENTH = 0.10


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("steady.py: %s seed %d failed" % (workload, seed))
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    ok = True
    for workload in names:
        sets = []
        for _ in range(2):
            sets.append([run_once(workload, args.seed + i, spec["run_seconds"])
                         for i in range(RUNS)])
        print("== %s (%d runs per set, seeds %d..%d)" %
              (workload, RUNS, args.seed, args.seed + RUNS - 1))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print("  %-14s per seed, set1 | set2: %s | %s" % (
                name, *[" ".join("%.4g" % r["metrics"][name]["value"]
                                 for r in results) for results in sets]))
        shares = []
        for results in sets:
            if not all(r["correct"] for r in results):
                print("  incorrect output in a run")
                ok = False
            shares.append(sum(r["failed"] for r in results) /
                          sum(r["attempted"] for r in results))
        print("  failed share: %.6f / %.6f%s" %
              (shares[0], shares[1], "" if shares[0] == shares[1] else
               "  DIFFERS"))
        ok = ok and shares[0] == shares[1]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results])
                     for results in sets]
            shift = (stats[1][1] - stats[0][1]) / stats[0][1]
            if metric["better"] == "higher":
                shift = -shift
            line_ok = (all(s[3] <= bound for s in stats) and
                       abs(shift) <= bound)
            ok = ok and line_ok
            over_tenth = any(s[3] > TENTH for s in stats) or abs(shift) > TENTH
            print("  %-14s %-5s bound %.2f | set1 q1 %.5g med %.5g q3 %.5g "
                  "spread %.3f | set2 q1 %.5g med %.5g q3 %.5g spread %.3f "
                  "| shift %+.3f %s%s" %
                  (name, metric["unit"], bound, *stats[0], *stats[1], shift,
                   "ok" if line_ok else "OUT OF BOUND",
                   "  (over a tenth)" if over_tenth else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
