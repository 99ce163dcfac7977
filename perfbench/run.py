#!/usr/bin/env python3
"""Builds and runs the XKeyword end-to-end benchmark.

    python3 perfbench/run.py --workload topk_mem --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It configures and builds the
benchmark package in perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the xkbench
binary. Its last stdout line, a JSON object with the keys correct, attempted,
failed and metrics, is this script's last stdout line too. Build output and
diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    """Configures (first time only) and builds xkbench; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "xkbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "xkbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    # The benchmark picks its backend and pool size itself.
    env.pop("XK_STORAGE_BACKEND", None)
    env.pop("XK_BUFFER_POOL_BYTES", None)
    env.pop("XK_FORCE_SCALAR_KERNELS", None)

    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: xkbench timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: xkbench exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
