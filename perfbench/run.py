#!/usr/bin/env python3
"""Builds and runs the XRPC wall-clock benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload point_mix --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all          # every workload, one table
  python3 perfbench/run.py --selftest              # sabotage / transport checks

The benchmark program is compiled from source into .bench_build/ (Release)
on first use; its records and span files go to .bench_out/. The last line
of standard output of a single-workload run is the JSON result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "xrpc_perfbench")
WORKLOADS = ["point_mix", "semijoin", "ship"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output -> stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "xrpc_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(args, capture=False):
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def workload_args(opts, workload, bound):
    return ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--drift-bound", str(bound), "--out-dir", OUT]


def run_all(opts, bound):
    """Runs every workload and prints one table of named metrics."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        proc = run_binary(workload_args(opts, workload, bound), capture=True)
        if proc is None or proc.returncode != 0:
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        # The report's indented lines are "name value unit": the result
        # line's metrics first, then the extras.
        for line in lines[:-1]:
            parts = line.split()
            if line.startswith("  ") and len(parts) == 3:
                rows.append((workload, parts[0], parts[1], parts[2]))
    width = max(len(r[1]) for r in rows) if rows else 10
    for workload, name, value, unit in rows:
        print("%-10s %-*s %14s %s" % (workload, width, name, value, unit))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    if opts.selftest:
        proc = run_binary(["--selftest"])
        return 1 if proc is None else proc.returncode
    spec = load_spec()
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    # The p50_ms regression bound doubles as the stationarity limit.
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "p50_ms")
    if opts.workload == "all":
        return run_all(opts, bound)
    proc = run_binary(workload_args(opts, opts.workload, bound))
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
