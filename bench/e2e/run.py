#!/usr/bin/env python3
"""Builds rockfs_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]

Run it from the root of a checkout. The first call configures and builds a
Release tree under .bench_build/rockfs_bench (the library from src/ plus the
benchmark binary); later calls rebuild incrementally. Build output goes to
stderr, so stdout carries only the benchmark's JSON lines, the summary last.
The exit code is the benchmark's: 0 on success, 1 when an operation fails
or a correctness gate trips, 2 on a usage error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "rockfs_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources in %s; run from a full checkout"
                 % os.path.join(ROOT, "src"))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "rockfs_bench"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            sys.exit("run.py: %s failed with exit code %d" % (" ".join(cmd[:2]), done.returncode))


def main():
    build()
    return subprocess.run([os.path.join(BUILD, "rockfs_bench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
