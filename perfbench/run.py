#!/usr/bin/env python3
"""Build and run one workload of the macrosim performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7_closed_loop --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (the simulator library
from src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. The last line of stdout is the result JSON;
build output and a human summary go to stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig7_closed_loop", "open_loop_saturated", "pdes_p2p_16x16"]


def parse_args():
    p = argparse.ArgumentParser(
        description="Run one macrosim benchmark workload.",
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()  # exits 2 on unknown options
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def build(build_dir):
    """Configure (once) and build perfbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; "
                 "run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
