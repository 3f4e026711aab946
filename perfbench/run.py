"""gogkit benchmark: seeded `gog` workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; gogkit is imported from ./src.  One process
is one client in a closed loop: it issues the next op when the previous one
returns.  Set-up (importing gogkit fresh, generating the seeded inputs of
the fixed and the first round and writing them as JSON) is repeated
SETUP_REPEATS times and its median reported; the last import is the one
measured, so every cache in gogkit starts cold.  Then round 0 (fixed
inputs) and a number of seeded rounds fixed by `--seconds` run; later
rounds are generated between rounds, off the op clock.  Every measured span
starts from a settled heap (`settle_heap`) and is rescaled to a fixed host speed
(`HostSpeed`).

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the same ops run untraced, then the first half of them again on a
fresh import with every public gogkit function wrapped; the last line holds
the per-layer metrics, and the reports of both passes must be identical.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 100           # so that ten samples lie beyond p90
WALL_LIMIT_S = 100      # stop starting ops after this, to end well within 180 s
TRACE_WALL_LIMIT_S = 160
REF_S = 0.005           # reference_loop() on the host it was tuned on, typical load
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("scaling_exp", "slope"))


def reference_loop():
    """Time a fixed piece of pure-Python work: Fraction sums and a tuple-keyed dict."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1)
        table[(i, i % 7)] = acc
    return time.perf_counter() - t0


class HostSpeed:
    """Rescale measured wall times to one fixed host speed.

    A shared host can run all Python code up to twice as slow for seconds at
    a time; a fixed loop timed in 10-second windows on the 2-core host this
    was tuned on spread by 38% (IQR / median) over 90 s.  The reference loop
    is timed before and after every measured span, and the span is scaled
    by REF_S over the mean of the two, which brought the same spread of a
    gogkit op down to 3.5%.  On an idle host the scale is close to 1.
    """

    def __init__(self):
        self.before = reference_loop()

    def scale(self, seconds):
        after = reference_loop()
        scaled = seconds * REF_S / ((self.before + after) / 2)
        self.before = after
        return scaled


def settle_heap():
    """Collect, then freeze the survivors, so the next span's collections see only its own objects."""
    gc.collect()
    gc.freeze()


def fresh_gogkit():
    """Import gogkit from scratch, dropping any earlier import and its caches."""
    for name in [n for n in sys.modules if n == "gogkit" or n.startswith("gogkit.")]:
        del sys.modules[name]
    importlib.import_module("gogkit.cli")
    return importlib.import_module("gogkit")


def setup(workload_cls, seed, workdir):
    """Fresh import plus the inputs of round 0 and 1; returns (gogkit, plan, ops, seconds)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    settle_heap()
    t0 = time.perf_counter()
    gk = fresh_gogkit()
    plan = workload_cls(seed, workdir, ROOT / "tests" / "fixtures")
    ops = plan.fixed() + plan.round(1)
    return gk, plan, ops, time.perf_counter() - t0


def timed_run(gk, plan, first_ops, seconds, started):
    """Closed loop over a fixed number of whole rounds; returns the outcomes in order.

    The number of rounds is `seconds` over the workload's round time at the
    seed commit, so every version of gogkit runs the same ops for a seed.
    """
    rounds = max(1, round(seconds / plan.round_s))
    outcomes, r, ops = [], 1, first_ops
    host = HostSpeed()
    while True:
        for op in ops:
            if time.perf_counter() - started > WALL_LIMIT_S:
                return outcomes
            settle_heap()
            outcomes.append(workloads.run_op(gk, op, time.perf_counter))
            outcomes[-1].seconds = host.scale(outcomes[-1].seconds)
        if r >= rounds and len(outcomes) >= MIN_OPS:
            return outcomes
        r += 1
        ops = plan.round(r)


def theil_sen(points):
    """Median of the pairwise slopes of log(seconds) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points]
    slopes = [(y2 - y1) / (x2 - x1) for i, (x1, y1) in enumerate(pts)
              for x2, y2 in pts[i + 1:] if x2 != x1]
    return statistics.median(slopes)


def end_to_end(outcomes, setup_s):
    times = [o.seconds for o in outcomes]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scaling_exp": theil_sen([(o.op.size, o.seconds) for o in outcomes
                                  if o.op.size is not None]),
    }


def run_workload(args):
    if not (ROOT / "src" / "gogkit" / "__init__.py").is_file():
        sys.stderr.write(f"no gogkit sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    cls = workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work" / args.workload
    setup_times, host = [], HostSpeed()
    for _ in range(SETUP_REPEATS):
        gk, plan, ops, seconds = setup(cls, args.seed, workdir)
        setup_times.append(host.scale(seconds))
    setup_s = statistics.median(setup_times)
    outcomes = timed_run(gk, plan, ops, args.seconds, started)
    failures = [o for o in outcomes if o.cause is not None]
    unexpected = [o for o in failures if o.known is None]
    lines = [f"workload {args.workload} seed {args.seed}: {len(outcomes)} ops, "
             f"{len(failures)} failed ({len(failures) / len(outcomes):.4f} failed_ratio), "
             f"{len(unexpected)} unexpected"]
    for o in failures:
        lines.append(f"  FAILED {o.op.label}: {o.cause}"
                     + (f"  [known: {o.known}]" if o.known else "  [unexpected]"))
    correct = not unexpected
    if args.trace:
        gk = fresh_gogkit()
        tracer = Tracer()
        tracer.install()
        traced = untraced = 0.0
        host = HostSpeed()
        replay = outcomes[:(len(outcomes) + 1) // 2]   # a fixed half keeps traced runs short
        for i, o in enumerate(replay):
            if time.perf_counter() - started > TRACE_WALL_LIMIT_S:
                lines.append(f"  traced pass cut after {i} of {len(replay)} ops")
                break
            tracer.op = i
            untraced += o.seconds
            settle_heap()
            again = workloads.run_op(gk, o.op, time.perf_counter)
            traced += host.scale(again.seconds)
            if again.digest != o.digest:
                correct = False
                lines.append(f"  REPORT DIFFERS under tracing: {o.op.label}")
        tracer.write(HERE / ".work" / f"spans-{args.workload}.bin")
        metrics = tracer.metrics(traced / untraced)
        lines.append(f"  {len(tracer.starts)} spans")
    else:
        values = end_to_end(outcomes, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; prints every section and a combined line."""
    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
