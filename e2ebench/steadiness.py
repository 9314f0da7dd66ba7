#!/usr/bin/env python3
"""Run the benchmark in two sets and report each metric's run-to-run spread.

    python3 e2ebench/steadiness.py --runs 10 [--workloads serve-vgg ...]

For every workload in BENCHMARK.json (or the ones named), runs the
benchmark command in two sets of --runs runs, each run with another --seed
(the first set seeds 1..runs, the second runs+1..2*runs), and prints every
end-to-end metric's median, quartiles and spread in each set: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. Flagged are a metric whose spread in either set exceeds its
bound, a metric whose two medians differ by more than its bound (as a share
of the first), and a workload whose failed share is not the same in every
run. Exits 1 when anything is flagged or a run fails. --sets 1 runs the
first set alone, for quick tuning.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
    return json.loads(lines[-1])


def run_set(bench, workload, seeds, bounds):
    """Returns ({metric: [values]}, {failed shares}, ok)."""
    values = {name: [] for name in bounds}
    shares = set()
    ok = True
    for seed in seeds:
        try:
            res = run_once(bench, workload, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print("FAIL %s" % e)
            ok = False
            continue
        if not res["correct"]:
            print("FAIL %s seed %d: outputs incorrect" % (workload, seed))
            ok = False
        shares.add(res["failed"] / res["attempted"])
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
    return values, shares, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs needs at least 2 runs for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    flagged = False
    for workload in names:
        medians = []
        shares = set()
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            values, set_shares, ok = run_set(bench, workload, seeds, bounds)
            flagged |= not ok
            shares |= set_shares
            print("%s set %d (seeds %d-%d, failed shares %s)"
                  % (workload, s + 1, seeds[0], seeds[-1],
                     sorted(set_shares)))
            set_medians = {}
            for name, bound in bounds.items():
                v = values[name]
                if len(v) < 2:
                    flagged = True
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                set_medians[name] = med
                spread = (q3 - q1) / med if med else float("inf")
                flag = spread > bound
                flagged |= flag
                print("  %-22s median %-14.6g q1 %-14.6g q3 %-14.6g spread "
                      "%6.2f%% (bound %4.1f%%)%s"
                      % (name, med, q1, q3, 100 * spread, 100 * bound,
                         "  FLAG" if flag else ""))
            medians.append(set_medians)
        if len(shares) > 1:
            print("  FLAG failed share differs between runs")
            flagged = True
        if len(medians) == 2:
            for name, bound in bounds.items():
                if name not in medians[0] or name not in medians[1]:
                    continue
                a, b = medians[0][name], medians[1][name]
                diff = abs(b - a) / a if a else float("inf")
                flag = diff > bound
                flagged |= flag
                print("  %-22s medians differ by %6.2f%% (bound %4.1f%%)%s"
                      % (name, 100 * diff, 100 * bound,
                         "  FLAG" if flag else ""))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
