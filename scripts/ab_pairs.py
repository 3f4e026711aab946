#!/usr/bin/env python3
"""Alternating before/after benchmark runs of two commits, one workload.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N [--seconds 15]

Copies each commit of this repository with `git archive` into a temporary
directory, then runs `perfbench/run.py --workload W --seed S --seconds
SECONDS --trace 0` in each copy, N times each, in alternating order: the
parent first on odd pairs, the change first on even ones, so a slow spell
of a shared host lands on both sides.  For each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the change's
median relative to the parent's, and how many of the N pairs the change won
(strictly better in that pair).  Exits 1 if any run is not `correct` or
exits non-zero, else 0.  Nothing is written in this repository.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def checkout(rev, into):
    """The files of commit `rev`, extracted under the directory `into`."""
    into.mkdir()
    tar = into.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(tar), rev], check=True)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(into)], check=True)
    tar.unlink()
    return into


def bench(tree, args):
    """The result line of one `perfbench/run.py` run in `tree`, or None if it failed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of one or more values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(rev, pathlib.Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {"parent": [], "change": []}
        ok = True
        for k in range(1, args.pairs + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                result = bench(trees[side], args)
                if result is None or not result["correct"]:
                    print(f"pair {k} {side}: run not correct: {result}")
                    ok = False
                    continue
                runs[side].append(result)
                print(f"pair {k} {side}: failed/attempted "
                      f"{result['failed']}/{result['attempted']}", flush=True)
    if not ok:
        return 1
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, {args.seconds:g} s runs "
          f"({args.parent} -> {args.change}): median [quartiles]")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        wins = sum((c < b) if lower else (c > b) for b, c in zip(sides["parent"], sides["change"]))
        (b1, b2, b3), (c1, c2, c3) = quartiles(sides["parent"]), quartiles(sides["change"])
        change = f"{100 * (c2 / b2 - 1):+.1f}%" if b2 else "n/a"
        print(f"  {name:<12} {b2:10.4g} [{b1:.4g}-{b3:.4g}] -> {c2:10.4g} [{c1:.4g}-{c3:.4g}]"
              f"  {change:>7}  change wins {wins}/{args.pairs} ({m['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
