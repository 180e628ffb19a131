#!/usr/bin/env python3
"""Builds and runs wbsim's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds, in release mode, the
benchmark package in perfbench/ and the `wbsim` binary (the serve-mix
workload runs `wbsim serve` as a child process), into $CARGO_TARGET_DIR
(default: .bench_build), then runs the benchmark with the same arguments.
The benchmark prints readable lines and, as its last line, one JSON object
with the run's metrics. Workloads: paper-sweep, stall-sweep, serve-mix,
verify, or `all` to run the four in turn; see perfbench/README.md. The
default seed is 1; seed 977 is held out for confirming claims.
"""

import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper-sweep", "stall-sweep", "serve-mix", "verify"]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "wbsim-cli"],
    ]
    for cmd in builds:
        # Cargo's progress goes to stderr; stdout stays the benchmark's.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = target / "release"
    args = sys.argv[1:]
    workloads = [None]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        workloads = WORKLOADS
    status = 0
    for w in workloads:
        if w is not None:
            args[args.index("--workload") + 1] = w
            print(f"== {w}", flush=True)
        cmd = [str(release / "wbsim-perfbench"), *args, "--wbsim", str(release / "wbsim")]
        rc = subprocess.run(cmd).returncode
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
