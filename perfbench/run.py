#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It is built with dune into .bench_build/ (the shared dune cache
stays off, so nothing is written outside the checkout).  Build output
goes to stderr; the program's stdout, whose last line is the JSON
result, passes through unchanged.  Exits non-zero, without a result,
when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "workloads.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--cache=disabled",
         "--display=quiet", "./perfbench/workloads.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
