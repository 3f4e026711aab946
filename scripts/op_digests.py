#!/usr/bin/env python3
"""Digests of every report of one benchmark workload, for byte-identity checks.

    python3 scripts/op_digests.py WORKLOAD [--seeds 1,2,3] [--rounds 12]

For each seed, runs the workload's fixed ops and its seeded rounds 1 to
ROUNDS in this process, each through perfbench's `run_op`, against the
gogkit sources and the perfbench of the checkout this script lies in (to
compare two checkouts, run each one's own copy).  Prints, per seed, the op
count and the sha256 over the op digests in run order, then each failed op
with its cause; the last line holds the same over all seeds.  Two
checkouts that print the same lines gave byte-identical reports on every op.

The inputs are written to a temporary directory and named relative to it,
so no temporary path enters a report.  Nothing under perfbench/ is written,
not even bytecode.
"""

import argparse
import hashlib
import os
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gogkit  # noqa: E402
import gogkit.cli  # noqa: E402,F401  (the cli ops call gogkit.cli.main)
import workloads  # noqa: E402


def seed_outcomes(cls, seed, rounds):
    """Outcomes of the fixed ops and rounds 1..rounds, inputs under ./seed<N>."""
    workdir = pathlib.Path(f"seed{seed}")
    workdir.mkdir()
    plan = cls(seed, workdir, ROOT / "tests" / "fixtures")
    ops = plan.fixed()
    for r in range(1, rounds + 1):
        ops += plan.round(r)
    return [workloads.run_op(gogkit, op, time.perf_counter) for op in ops]


def digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.digest.encode())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    p.add_argument("--rounds", type=int, default=12, help="seeded rounds per seed (default 12)")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    cls = workloads.WORKLOADS[args.workload]
    everything = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in seeds:
                outcomes = seed_outcomes(cls, seed, args.rounds)
                failed = [o for o in outcomes if o.cause is not None]
                print(f"{args.workload} seed {seed}: {len(outcomes)} ops, "
                      f"{len(failed)} failed, sha256 {digest(outcomes)}")
                for o in failed:
                    print(f"  FAILED {o.op.label}: {o.cause}")
                everything += outcomes
        finally:
            os.chdir(here)
    print(f"{args.workload} seeds {args.seeds} rounds {args.rounds}: "
          f"{len(everything)} ops, sha256 {digest(everything)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
