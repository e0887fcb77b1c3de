#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the `entangle` CLI and the
benchmark runner with dune, then runs the runner, whose last line of
standard output is the JSON result.  Build output goes to standard
error so that the result stays the last line.  Exits non-zero when the
build fails, a check fails, or the tree is not this repository.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-pairs", "serve-market", "batch-paper")
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TARGETS = ["./bin/entangle.exe", "./perfbench/perfbench.exe"]
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", os.path.join("bin", "entangle.ml"), "lib"):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of an entangle checkout",
                  file=sys.stderr)
            return 2

    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
