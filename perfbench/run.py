#!/usr/bin/env python3
"""Build and run the omq-serve socket benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload contains-cold --seed 1 --seconds 10 --trace 0

Builds the release `omq-serve` server from the repository's own workspace
and the `omq-perfbench` client from `perfbench/Cargo.toml`, both into
`$CARGO_TARGET_DIR` (default `.bench_build`), then pins itself to one CPU
and runs the client there, which spawns the server, drives the workload
and prints the result as the last line of standard output. Build logs go
to standard error.

Exits non-zero without a result when the repository sources are missing,
a build fails, or any response fails verification.
"""

import os
import subprocess
import sys

WORKLOADS = ("contains-cold", "contains-hot", "store-churn")


def parse_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            raise SystemExit(f"run.py: unknown flag {flag}")
        try:
            opts[flag] = next(it)
        except StopIteration:
            raise SystemExit(f"run.py: {flag} needs a value")
    if opts["--workload"] not in WORKLOADS:
        raise SystemExit(f"run.py: --workload must be one of {', '.join(WORKLOADS)}")
    return opts


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "omq-serve", "--bin", "omq-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")


def pin():
    """Pins this process to one CPU, and with it the client and the server
    the client spawns. The calibration kernel the client runs between
    requests then times the CPU the server runs on (src/calib.rs)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    opts = parse_args(sys.argv[1:])
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(needed):
            raise SystemExit(f"run.py: {needed} not found; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "omq-perfbench"),
        "--server", os.path.join(release, "omq-serve"),
    ]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, opts[flag]]
    pin()
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
