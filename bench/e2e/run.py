#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The repository's own CMake build is configured into .bench_build/e2e with
bench/e2e attached (attach.cmake), and only the benchmark target is built:
Release, on the first run only; later runs rebuild nothing unless a source
changed. The benchmark binary prints its metrics and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. --trace 1 reports the per-layer metrics of a traced run and
writes its Chrome trace to .bench_build/e2e/trace-NAME-N.json. The exit
code is the binary's: 0 when every correctness check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "e2e_pipeline")


def build():
    """Configures once and builds the benchmark target; output to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("run.py: no %s next to bench/e2e; nothing to build" % needed,
                  file=sys.stderr)
            return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_graphtides_INCLUDE=" +
                     os.path.join(HERE, "attach.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "e2e_pipeline", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", os.path.join(BUILD, "work")]
    if args.trace:
        command += ["--trace", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
