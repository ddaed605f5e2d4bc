#!/usr/bin/env python3
"""Builds and runs the skyline serving benchmark.

    python3 perfbench/run.py --workload zipf-read --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the skyline library from
the repository's sources plus the skybench program) under .bench_build/ at
the root of the checkout; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is
skybench's result JSON. With --trace 1 the run's spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.

Exits non-zero without a result when the build fails (for example when
the library sources are missing), when skybench fails or finds a wrong
answer, or when a run exceeds the time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; the slowest measured ones, traced
# ac-uniform runs of 30 s, took 99 s (perfbench/README.md). A cold build
# took 20 s on 4 cores; a build plus a run must end within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build(target):
    """Configures (once) and builds `target`; True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("skybench_test"):
            return 1
        return subprocess.run([str(BUILD / "skybench_test")],
                              timeout=RUN_TIMEOUT_S).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not build("skybench"):
        return 1
    command = [str(BUILD / "skybench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    str(BUILD / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e.cmd}", file=sys.stderr)
        sys.exit(1)
