#!/usr/bin/env python3
"""Seed-to-seed spread of the flow benchmark's metrics.

    python3 flowbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]
                                [--seconds S]

Runs flowbench/run.py once per seed and prints, for every metric of the
result line, the median and the quartile spread
(Q3 - Q1) / median, with the quartiles of `statistics.quantiles(n=4)`.
For end-to-end metrics it also prints the metric's bound from
BENCHMARK.json and the spread as a share of that bound. `--seconds`
defaults to BENCHMARK.json's `run_seconds`. Exit status 1 if any run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout)
            print(f"seed {seed}: run failed with {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
            units[name] = metric["unit"]

    print(f"\n{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'of bound':>8}")
    for name, samples in values.items():
        mid = statistics.median(samples)
        q1 = q3 = spread = float("nan")
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        share = f"{spread / bound:8.2f}" if bound else ""
        bound_text = f"{bound:6.2f}" if bound else ""
        print(f"{name:34} {q1:12.6g} {mid:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound_text:>6} {share}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
