#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root) and its output to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")


def main() -> int:
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target_dir, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
