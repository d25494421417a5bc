#!/usr/bin/env python3
"""Build and run the DiTyCO benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload compute --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the runtime from ../src) with CMake into
$CARGO_TARGET_DIR or .bench_build/, then runs the driver binary with the
same arguments. Build output goes to stderr; the driver's standard output
is passed through, so its last line is the JSON result. Exits non-zero
without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=log, stderr=log)
    return made.returncode == 0


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
