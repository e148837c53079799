#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each metric's median and
interquartile range as a share of the median (the steadiness figure the
benchmark's bounds are checked against).

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--first-seed 1]
                                [--seconds 25] [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if result["failed"]:
            print(f"seed {seed}: {result['failed']} failed of {result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:26s} median={med:<12.6g} iqr/median={spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
