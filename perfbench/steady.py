#!/usr/bin/env python3
"""Steadiness report: runs one workload N times, one seed each, and prints
per metric the median, the quartiles, the quartile spread and the range,
both as shares of the median.

    python3 perfbench/steady.py --workload served --runs 10 [--seed 1]
        [--trace 0|1]

Each run measures for BENCHMARK.json's run_seconds. Quartiles are
Python's statistics.quantiles(values, n=4). With --trace 0 each end-to-end
metric is also compared with its bound in BENCHMARK.json: "ok" means the
quartile spread is below a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run; run i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values, units = {}, {}
    for i in range(args.runs):
        seed = args.seed + i
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({done.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: done", file=sys.stderr, flush=True)

    limit = ({m["name"]: m["bound"] for m in spec["end_to_end"]}
             if args.trace == 0 else {})
    print(f"{args.workload}, {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {seconds} s each")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(xs) - min(xs)) / med if med else 0.0
        verdict = ""
        if name in limit:
            verdict = "ok" if iqr < limit[name] / 3 else "WIDE"
            verdict = f"{limit[name]:6.2f} {verdict}"
        print(f"{name:36} {units[name]:8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{iqr:8.4f} {rng:8.4f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
