#!/usr/bin/env python3
"""The benchmark's own test: a seconds-long run of every workload, untraced
and traced, with the same output checks as a full run.

    python3 perfbench/test.py [--seconds 2]

Run from the root of the checkout.  Fails unless every run exits 0 with
correct = true, failed = 0, and exactly the metrics BENCHMARK.json names
(end-to-end untraced, per-layer traced), each a finite number; and unless
the benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cwd, workload, seconds, trace):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    root = os.getcwd()
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(root, w["name"], args.seconds, trace)
            tag = "%s trace %d" % (w["name"], trace)
            if r.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, r.returncode, r.stdout[-3000:]))
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct %s, failed %d of %d" % (tag, res["correct"], res["failed"], res["attempted"]))
            if got != want:
                problems.append("%s: metrics %s, expected %s" % (tag, got, want))
            for k, v in res["metrics"].items():
                if not math.isfinite(v["value"]):
                    problems.append("%s: %s = %r" % (tag, k, v["value"]))
            print("%s: ok, %d operations" % (tag, res["attempted"]), flush=True)
    bare = os.path.join(root, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    r = run(bare, bench["workloads"][0]["name"], args.seconds, 0)
    last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
    if r.returncode == 0 or last.startswith("{"):
        problems.append("bare directory: exit %d, last line %r" % (r.returncode, last))
    else:
        print("bare directory: fails as it should (exit %d)" % r.returncode)
    shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
