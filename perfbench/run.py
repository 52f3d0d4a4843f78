#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-late --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the ptolemy library from ../src) into
.bench_build/perfbench, then runs the benchmark binary with the same
arguments. The binary's last stdout line is the JSON result object.
Build output goes to .bench_build/perfbench/build.log; a failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ptolemy_perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "ptolemy_perfbench"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return False
    return True


def main():
    if not build():
        return 2
    args = [BINARY] + sys.argv[1:] + [
        "--spans-dir", os.path.join(BUILD, "spans")]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
