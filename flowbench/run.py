#!/usr/bin/env python3
"""Build the flow benchmark from source and run one workload.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness (flow_bench.cpp) and the mmflow
library are configured from flowbench/CMakeLists.txt into
`$CARGO_TARGET_DIR/flowbench` (default `.bench_build/flowbench`), so the
first run builds and later runs reuse the build. Build output goes to
stderr; stdout is the harness's own report, whose last line is the JSON
result. The exit status is the harness's: non-zero on any failed
experiment, and 2 when the sources or the build are missing.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edgematch-suite", "wirelength-suite", "batch-store")


def build_dir() -> str:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "flowbench")


def build() -> str:
    """Configures (once) and builds the harness; returns the binary path."""
    for needed in ("CMakeLists.txt", "src",
                   os.path.join("bench", "bench_common.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"mmflow sources not found: {needed} is missing")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "flow_bench")


def run_harness(binary: str, argv: list[str], env: dict[str, str]) -> int:
    """Runs the harness to completion, killing it if this script is stopped."""
    # SIGTERM would otherwise end this script without unwinding, leaving the
    # harness running; as SystemExit it passes through the `finally` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([binary] + argv, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"error: cannot build the flow benchmark: {e}", file=sys.stderr)
        return 2

    scratch = os.path.join(build_dir(), f"scratch-{os.getpid()}")
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("MMFLOW_BENCH_JSON", os.path.join(
        reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"))
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch]
    try:
        status = run_harness(binary, argv, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status if status >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
