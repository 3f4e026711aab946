#!/usr/bin/env python3
"""Times and digests of `gog` reports on perfbench's graph families past the benchmark's sizes.

    python3 scripts/e_ladder.py [--sizes 256,512,1024,2048] [--runs 2]

For each E in SIZES, builds perfbench's `rank3_graph` and `reducible_graph`
on E edges, each from `random.Random(3)`, and runs `gog depth` (text and
JSON), `check` and `validate` on the first and `gog reduce` and `check` on
the second.  Each command runs RUNS times through `cli.main` in this
process, on a freshly imported gogkit (so no cache carries over between
runs), and the best raw `time.perf_counter` time counts.  Times are not
rescaled to a host speed, so on a shared host only runs alternated with each
other compare: to compare two checkouts, run them in turn, several times.
Prints per (E, command) the best time in ms, the exit code, the report's
size in bytes and its sha256, then one digest line over every exit code and
report sha256 (not the times): two checkouts that print the same digest line
gave byte-identical reports.

The graphs are written to a temporary directory and named relative to it,
so no temporary path enters a report.  Nothing under perfbench/ is written,
not even bytecode.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

COMMANDS = (   # (label, graph family, argv before the graph file)
    ("depth", "rank3", ["depth"]),
    ("depth --format json", "rank3", ["depth", "--format", "json"]),
    ("check", "rank3", ["check"]),
    ("validate", "rank3", ["validate"]),
    ("reduce", "reducible", ["reduce"]),
    ("check reducible", "reducible", ["check"]),
)


def fresh_main():
    """`gogkit.cli.main` from a new import of every gogkit module."""
    for name in [m for m in sys.modules if m == "gogkit" or m.startswith("gogkit.")]:
        del sys.modules[name]
    return importlib.import_module("gogkit.cli").main


def best_run(argv, runs):
    """(best seconds, exit code, report bytes) of `gog argv` over `runs` runs."""
    best, code, report = None, None, None
    for _ in range(runs):
        main = fresh_main()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t = time.perf_counter()
            code = main(argv)
            dt = time.perf_counter() - t
        best = dt if best is None else min(best, dt)
        report = out.getvalue().encode()
    return best, code, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", default="256,512,1024,2048",
                   help="comma-separated edge counts E (default 256,512,1024,2048)")
    p.add_argument("--runs", type=int, default=2, help="runs per command, best counts (default 2)")
    args = p.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.runs < 1 or min(sizes) < 2:
        p.error("--runs must be at least 1 and every size at least 2")
    whole = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for n in sizes:
                for family, build in (("rank3", inputs.rank3_graph),
                                      ("reducible", inputs.reducible_graph)):
                    pathlib.Path(f"{family}_{n}.json").write_text(
                        json.dumps(build(random.Random(3), n)))
                for label, family, cmd in COMMANDS:
                    secs, code, report = best_run([*cmd, f"{family}_{n}.json"], args.runs)
                    sha = hashlib.sha256(report).hexdigest()
                    whole.update(f"{n} {label} {code} {sha}\n".encode())
                    print(f"E={n:<5} {label:<20} {1000 * secs:9.1f} ms  exit {code}  "
                          f"{len(report):9d} B  sha256 {sha}", flush=True)
        finally:
            os.chdir(here)
    print(f"sizes {args.sizes}: sha256 {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
