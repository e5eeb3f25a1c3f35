#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,...]
        [--seconds <s>] [--trace <0|1>]

For every metric prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
that median: the run-to-run spread a bound in BENCHMARK.json must cover.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = str(json.load(f)["run_seconds"])
    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", seed, "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:14.6g}  iqr/median {spread:7.4f}  "
              f"min {min(vs):.6g} max {max(vs):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
