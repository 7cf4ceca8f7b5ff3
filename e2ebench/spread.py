#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 e2ebench/spread.py --workload placement --seeds 10

For every metric it prints the median of the runs, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (third minus
first quartile, as a share of the median) and, for end-to-end metrics,
the bound from BENCHMARK.json. A metric is steady when its spread stays
below a third of its bound. Exact counts should show a spread of 0.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10,
                    help="number of runs; run i uses seed --first-seed + i")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    units = {}
    for i in range(args.seeds):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} failed",
                  file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())),
            file=sys.stderr)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  UNSTEADY"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
