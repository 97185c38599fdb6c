#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-baseline --seed 7 \
        --seconds 55 --trace 0

Every argument goes to the binary unchanged (see README.md). The build
lands in .bench_build/perfbench, or under $CARGO_TARGET_DIR when that is
set; build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits 2 without a result when the checkout has no
library sources or scenario files to build and run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "perfbench")


def main():
    for needed in ("src/CMakeLists.txt", "examples/scenarios"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
