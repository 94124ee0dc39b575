#!/usr/bin/env python3
"""Builds and runs the layered benchmark from a checkout of the repository.

Usage (from the checkout root):

    python3 perfbench/run.py --workload sweep-mesh --seed 1 --seconds 10 --trace 0

Builds the `nocserve` daemon from the checkout's own workspace and the
`perfbench` binary (a package of its own under perfbench/), both in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the binary in a fresh process group. Build output goes to stderr; the
binary's last stdout line is the JSON result. If the binary overruns
its time limit, the whole group (the binary and any daemon it started) is
killed and the run fails without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(cmd, env):
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # The daemon and the simulator are built from this checkout's source;
    # without it there is nothing to measure.
    for needed in ("Cargo.toml", "Cargo.lock", "crates/noc-serve", "crates/bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}; run from a full checkout")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(["cargo", "build", "--release", "--offline", "--locked", "-p", "noc-serve", "--bin", "nocserve"], env)
    build(["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", "perfbench/Cargo.toml"], env)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--nocserve", os.path.join(target, "release", "nocserve"),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    # Whatever the outcome, nothing the binary started may outlive it:
    # kill the group and wait until no member is left.
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code is None:
        child.wait()
    for _ in range(500):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    if code is None:
        fail(f"{args.workload} overran {RUN_TIMEOUT_S} s and was killed")
    sys.exit(code)


if __name__ == "__main__":
    main()
