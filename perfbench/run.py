#!/usr/bin/env python3
"""Build the benchmark from source and run one invocation of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the simulator's crates. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments; its last line of standard output is the JSON result. Spans of
a traced invocation are written to $CARGO_TARGET_DIR/perfbench-spans.
Build failures, bad arguments and failed correctness gates exit non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run that outlives this is stopped: one invocation must end within 180 s.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe] + sys.argv[1:] + ["--spans-dir", os.path.join(target, "perfbench-spans")]
    try:
        # subprocess.run kills the child and waits for it on timeout.
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
