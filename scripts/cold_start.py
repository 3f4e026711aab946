#!/usr/bin/env python3
"""Cold-start times of `gog`: interpreter start, the gogkit import and whole commands.

    python3 scripts/cold_start.py [--runs 31]

Every row is a fresh Python process, started RUNS times.  The processes run
one at a time, never two at once, and round-robin over the rows, so drift in
the host's load falls on every row alike.  The rows:

  python -c pass          the interpreter alone
  import gogkit.cli       the import, timed inside the process
  import, stdlib loaded   the same, after the stdlib modules it pulls in
                          are loaded: the cost of gogkit's own modules
  import gogkit.cli, no bytecode
                          the same with PYTHONDONTWRITEBYTECODE=1 and an
                          empty cache prefix, so every gogkit module is
                          compiled from source, as on each fresh import in a
                          process that may not write bytecode (perfbench's
                          set-up under such an environment)
  gog validate|depth|compare
                          the `gog` console script's body on a fixture

Prints the median and quartiles per row, in ms.  The `import` rows time the
import alone; the other rows time the whole process from outside.  Children
import gogkit from this checkout's src/ and cache bytecode under a temporary
PYTHONPYCACHEPREFIX that only their environment sets, as an installed `gog`
would find its bytecode; one unmeasured round writes it first.  The
no-bytecode row alone reads a second, empty prefix and writes nothing.
"""

import argparse
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
GOG = "import sys; from gogkit.cli import main; sys.exit(main())"   # the console script
IMPORT = "import time; t = time.perf_counter(); import gogkit.cli; print(time.perf_counter() - t)"
NEW_MODULES = ("import sys; before = set(sys.modules); import gogkit.cli; "
               "print(' '.join(sorted(set(sys.modules) - before)))")


def rows(stdlib, env, no_bytecode):
    """(name, child environment, child code, child argv, allowed exit codes,
    timed inside the child)."""
    preload = f"import importlib; [importlib.import_module(m) for m in {stdlib!r}]; "
    return [
        ("python -c pass", env, "pass", [], {0}, False),
        ("import gogkit.cli", env, IMPORT, [], {0}, True),
        ("import, stdlib loaded", env, preload + IMPORT, [], {0}, True),
        ("import gogkit.cli, no bytecode", no_bytecode, preload + IMPORT, [], {0}, True),
        ("gog validate", env, GOG, ["validate", FIXTURES / "arc3.json"], {0}, False),
        ("gog depth", env, GOG, ["depth", FIXTURES / "arc3.json"], {0}, False),
        ("gog compare", env, GOG, ["compare", FIXTURES / "pattern_0inf12.json",
                                   FIXTURES / "pattern_0inf12_shifted.json"], {0, 1}, False),
    ]


def run(env, code, argv, exits):
    """(seconds outside the child, its stdout) for one fresh child process."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if done.returncode not in exits:
        sys.exit(f"{code} {argv}: exit {done.returncode}\n{done.stderr}")
    return seconds, done.stdout


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=31,
                   help="processes per row (default 31, at least 2)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    with tempfile.TemporaryDirectory() as cache, tempfile.TemporaryDirectory() as empty:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        no_bytecode = dict(env, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=empty)
        new = run(env, NEW_MODULES, [], {0})[1].split()
        table = rows([m for m in new if m.split(".")[0] != "gogkit"], env, no_bytecode)
        times = {name: [] for name, *_ in table}
        for r in range(args.runs + 1):          # round 0 writes the bytecode cache
            for name, child_env, code, child_argv, exits, inside in table:
                seconds, out = run(child_env, code, child_argv, exits)
                if r:
                    times[name].append(float(out) if inside else seconds)
    print(f"cold start, Python {platform.python_version()}, {args.runs} runs per row, "
          f"ms: median [q1, q3]")
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles([1000 * v for v in values], n=4)
        print(f"  {name:<32}{median:8.1f} [{q1:.1f}, {q3:.1f}]")


if __name__ == "__main__":
    main()
