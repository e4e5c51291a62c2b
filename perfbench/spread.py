#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload once per seed
and reports, for every end-to-end metric, the interquartile range of the
values as a share of their median, next to a third of the metric's bound.

  python3 perfbench/spread.py --seeds 10 [--workloads point_mix,ship]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print("%s seed %d: no result (exit %d)" %
                      (workload, seed, proc.returncode))
                steady = False
                continue
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: incorrect run" % (workload, seed))
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            ok = name == "setup_s" or spread < limit
            steady = steady and ok
            print("%-10s %-18s median %12.5g  spread %6.3f  (< %.3f) %s" %
                  (workload, name, med, spread, limit, "ok" if ok else "WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
