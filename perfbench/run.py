#!/usr/bin/env python3
"""Build and run the printed-neuromorphic benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with the repository's own dune build, then runs
it with the given arguments.  The executable prints one JSON object as the
last line of standard output; build output goes to standard error.  See the
header of perfbench/main.ml for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("train", "sweep", "serve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(
                "perfbench: %s not found; run from the repository root\n" % need)
            return 2

    env = dict(os.environ)
    # Pin what the program reads from the environment: the default kernel
    # backend, no checked mode, no experiment cache, one worker domain.
    for var in ("PNN_BACKEND", "PNN_CHECKED", "REPRO_CACHE_DIR"):
        env.pop(var, None)
    env["REPRO_JOBS"] = "1"

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3

    # Run on one CPU; the serving workload's forked server inherits it.  With
    # the load generator and the server on two vCPUs, every batch's round
    # trip pays two cross-CPU wake-ups, whose cost on a virtual machine
    # swings from run to run: closed-loop throughput jumped between two
    # levels ~1.6x apart, and settled on the higher one when pinned.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe,
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", repr(args.seconds),
         "--trace", str(args.trace),
         "--surrogate", os.path.join("perfbench", "data", "surrogate.txt")],
        cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
