#!/usr/bin/env python3
"""Builds and runs the implistat benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tenants_wide --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which compiles the library from src/) into
.bench_build/, builds the perfbench binary, and runs it with the same
arguments. The binary's last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, without a result
line, when the build fails or the run does not finish in time.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("tenants_wide", "narrow_chatty", "fleet_poll")


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler and cmake scratch files inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench"), env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary, env = build(root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", args.trace]
    try:
        # The binary writes straight to our standard output, so its JSON
        # line stays the last line printed.
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                                cwd=root)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
