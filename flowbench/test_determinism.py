#!/usr/bin/env python3
"""Determinism test of the flow benchmark.

    python3 flowbench/test_determinism.py [--seed N]

Builds the harness like run.py, then asserts:
  * two one-job runs of edgematch-suite and of wirelength-suite print
    identical QoR fingerprints (`qor` lines) and identical exact work
    counters (`work` lines);
  * batch-store prints identical QoR fingerprints on 1 worker and on
    min(4, nproc) workers.
Each run is exactly one sweep (`--seconds 0`) and must itself pass its
correctness checks. The six runs take about two minutes on a 4-core x86
box, most of it the one-worker batch-store sweep. Exit status 0 = all
assertions hold.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)


def one_sweep(binary: str, workload: str, seed: int, scratch: str,
              workers: int | None = None) -> list[str]:
    env = dict(os.environ)
    env["MMFLOW_BENCH_JSON"] = os.path.join(scratch, f"{workload}.json")
    if workers is not None:
        env["MMFLOW_JOBS"] = str(workers)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "0", "--scratch", scratch],
        env=env, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise AssertionError(f"{workload}: run failed with {proc.returncode}")
    return proc.stdout.splitlines()


def lines(output: list[str], prefix: str) -> list[str]:
    return [line for line in output if line.startswith(prefix)]


def expect_equal(what: str, a: list[str], b: list[str]) -> bool:
    if a and a == b:
        print(f"ok   {what} ({len(a)} lines)")
        return True
    print(f"FAIL {what}")
    for x, y in zip(a, b):
        if x != y:
            print(f"  {x}\n  {y}")
    if len(a) != len(b) or not a:
        print(f"  {len(a)} vs {len(b)} lines")
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    binary = run.build()
    scratch = os.path.join(run.build_dir(), f"determinism-{os.getpid()}")
    ok = True
    try:
        for workload in ("edgematch-suite", "wirelength-suite"):
            first = one_sweep(binary, workload, args.seed, scratch)
            second = one_sweep(binary, workload, args.seed, scratch)
            ok &= expect_equal(f"{workload} qor", lines(first, "qor "),
                               lines(second, "qor "))
            ok &= expect_equal(f"{workload} work counters",
                               lines(first, "work "), lines(second, "work "))
        workers = max(1, min(4, os.cpu_count() or 1))
        serial = one_sweep(binary, "batch-store", args.seed, scratch, 1)
        parallel = one_sweep(binary, "batch-store", args.seed, scratch, workers)
        ok &= expect_equal(f"batch-store qor, 1 vs {workers} workers",
                           lines(serial, "qor "), lines(parallel, "qor "))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
