#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: approx_inproc, approx_loopback, mixed_reuse (see perfbench/README.md).
Extra flags (--rows, --setups, --out) pass through to the perfbench binary.

The perfbench binary and the fedaqp library it links are compiled from
source into .bench_build/perfbench (CMake, Release) on first use and re-built
incrementally afterwards; build output goes to stderr. The binary's stdout
passes through unchanged, so its last line is the JSON result. Exits
non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "federation.h")):
        print("perfbench: no fedaqp sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    args = sys.argv[1:]
    if not any(a == "--out" or a.startswith("--out=") for a in args):
        args += ["--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
