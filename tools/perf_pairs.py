#!/usr/bin/env python3
"""Paired benchmark comparison of a git revision against the working tree.

Run from the repository root:

    python3 tools/perf_pairs.py HEAD --workload train --pairs 10

Exports REV (with git archive) and the working tree as it is on disk
(tracked and untracked files that git does not ignore, uncommitted edits
included) into two fresh directories under $TMPDIR, builds the benchmark in
each, then runs perfbench/run.py alternately in the two for the run length
BENCHMARK.json sets (run_seconds): the pairs run both sides with seeds
FIRST_SEED, FIRST_SEED + 1, ... (--first-seed, default 1), the base first in
the first, third, ... pair and the change first in the others, so drift in
machine speed falls on both sides alike.  A --first-seed beyond the seeds
used while a change was written (say 101) checks its claim on held-out
seeds.  For every metric the runs report it prints the median and
quartiles of each side, the ratio of the medians (change / base) and in
how many pairs the change was better, using the direction declared in
BENCHMARK.json; a metric that is 0 in every run of both sides (a per-layer
row the workload does not exercise) is left out.  The directories are
removed afterwards.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def export_rev(rev, dest):
    """Write the tree of [rev] into [dest] with git archive."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], check=True, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)


def export_worktree(dest):
    """Copy the working tree's tracked and unignored untracked files."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, stdout=subprocess.PIPE).stdout
    for name in filter(None, listed.decode().split("\0")):
        if not os.path.isfile(name):
            continue  # deleted but not yet staged
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
        shutil.copy2(name, target)


def run_bench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    if not result.get("correct", False):
        raise SystemExit("perf_pairs: %s reported an incorrect result" % tree)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def benchmark_spec():
    """Run length and metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    return spec["run_seconds"], better


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="base revision (the change is the working tree)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="seed of the first pair (default 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        raise SystemExit("perf_pairs: run from the repository root")
    seconds, better = benchmark_spec()

    top = tempfile.mkdtemp(prefix="perf_pairs-")
    base, change = os.path.join(top, "base"), os.path.join(top, "change")
    os.makedirs(base)
    os.makedirs(change)
    try:
        export_rev(args.rev, base)
        export_worktree(change)
        for tree in (base, change):
            subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           cwd=tree, check=True, stdout=subprocess.DEVNULL)
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = [("base", base), ("change", change)]
            if i % 2 == 1:
                order.reverse()
            for side, tree in order:
                runs[side].append(
                    run_bench(tree, args.workload, args.first_seed + i, seconds,
                              args.trace))
            sys.stderr.write("pair %d/%d done\n" % (i + 1, args.pairs))
    finally:
        shutil.rmtree(top, ignore_errors=True)

    print("workload %s: %s (base) vs working tree (change), %d pairs of %gs runs,"
          " seeds %d..%d"
          % (args.workload, args.rev, args.pairs, seconds, args.first_seed,
             args.first_seed + args.pairs - 1))
    print("%-22s %12s %23s %12s %23s %7s %6s"
          % ("metric", "base med", "base [q1, q3]", "change med", "change [q1, q3]",
             "ratio", "wins"))
    for name in runs["base"][0]:
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        if all(x == 0 for x in b + c):
            continue
        bm, cm = statistics.median(b), statistics.median(c)
        bq, cq = quartiles(b), quartiles(c)
        direction = better.get(name, "higher")
        wins = sum(1 for x, y in zip(b, c)
                   if (y < x if direction == "lower" else y > x))
        ratio = cm / bm if bm else float("nan")
        print("%-22s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %7.3f %3d/%d"
              % (name, bm, bq[0], bq[1], cm, cq[0], cq[1], ratio, wins, args.pairs))


if __name__ == "__main__":
    main()
