#!/usr/bin/env python3
"""Steadiness of one workload: run it k times and report each metric's spread.

    python3 perfbench/steady.py --workload NAME [-k 10] [--first-seed 1]
        [--seconds 20] [--trace 0]

Runs perfbench/run.py k times, one seed after another, and prints for every
metric the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the interquartile range as a share of
the median; with BENCHMARK.json present, also the bound it is held to.
Failed-operation shares are printed too: they must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds, seconds = {}, args.seconds
    if os.path.exists("BENCHMARK.json"):
        bench = json.load(open("BENCHMARK.json"))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        seconds = seconds or bench["run_seconds"]
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.k):
        cmd = [
            sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds or 20), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d: run failed (exit %d)\n%s" % (seed, out.returncode, out.stdout[-2000:]))
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append("%d/%d" % (res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(
            "seed %d: correct %s, failed %d of %d; %s"
            % (seed, res["correct"], res["failed"], res["attempted"],
               ", ".join("%s %.4g" % (k, m["value"]) for k, m in res["metrics"].items())),
            flush=True,
        )
    print("\n%-28s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "IQR/med", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(
            "%-28s %12.5g %12.5g %12.5g %7.2f%% %7s"
            % (name, med, q1, q3, 100 * spread, "" if bound is None else "%.0f%%" % (100 * bound))
        )
    print("failed shares: %s" % ", ".join(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
