"""The four benchmark workloads: their ops, inputs and per-op output checks.

A workload is a sequence of rounds.  Round 0 holds the fixed inputs (the
repository fixtures and the known-defect probe); every later round holds
freshly generated seeded inputs, so no input repeats within a run except the
pattern pool that pattern-pairs shares on purpose.  Every op carries its own
output check.  A check returns None when the op is correct, or a cause; a
cause that names a defect listed in `KNOWN` is a known failure, any other
cause makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

# Exit codes each subcommand may return (README of gogkit: the exit code contract).
CONTRACT = {"check": {0, 1, 2, 5}, "depth": {0, 2, 3, 4, 5},
            "reduce": {0, 2}, "compare": {0, 1, 2, 5}}

# Defects found before this benchmark existed (ROADMAP open item 2).  A
# failing op whose cause carries one of these tags, as "[2a]", is counted in
# `failed` and listed, but does not make the run incorrect.
KNOWN = {
    "2a": "ROADMAP 2a: the staged filtration compares items only inside one quotient "
          "node, so tree-ball chains can run deeper than its depth labels",
    "2b": "ROADMAP 2b: spurious Unknown verdict on an abelian graph",
}

FIXTURES = ["arc3", "arc4", "bs22", "f2xz", "heis", "invalid_rank_deficient", "nonex",
            "pattern_0inf12", "pattern_0inf12_shifted", "pattern_0inf13",
            "shear_unknown", "thm14", "z2hnn"]
BALL_FIXTURES = ["arc3", "arc4", "thm14", "f2xz", "z2hnn", "bs22"]

# The smallest graph found with the ROADMAP 2a disagreement: rank-2 vertices,
# a rank-0 loop and a rank-0 edge, and a rank-1 loop (its fourth edge dropped).
RANK0_PROBE = {
    "oracle": "abelian",
    "vertices": [{"id": "v0", "rank": 2}, {"id": "v1", "rank": 2}],
    "edges": [
        {"id": "e0", "rank": 0, "ends": [{"vertex": "v1", "matrix": [[], []]},
                                         {"vertex": "v1", "matrix": [[], []]}]},
        {"id": "e1", "rank": 0, "ends": [{"vertex": "v0", "matrix": [[], []]},
                                         {"vertex": "v1", "matrix": [[], []]}]},
        {"id": "e2", "rank": 1, "ends": [{"vertex": "v0", "matrix": [[2], [0]]},
                                         {"vertex": "v0", "matrix": [[1], [1]]}]},
    ],
}


@dataclass
class Op:
    label: str
    run: Callable          # gogkit package -> result
    check: Callable        # result -> None or cause
    size: float | None     # the workload's size parameter, for scaling_exp


@dataclass
class Outcome:
    op: Op
    seconds: float
    cause: str | None      # None when the op passed its check
    digest: str            # hash of the op's report, for traced/untraced comparison

    @property
    def known(self):
        if self.cause is None:
            return None
        return next((KNOWN[k] for k in KNOWN if f"[{k}]" in self.cause), None)


def run_op(gk, op: Op, clock) -> Outcome:
    """Run one op, timing only the call into gogkit, then check its result."""
    t0 = clock()
    try:
        result = op.run(gk)
    except Exception as exc:           # a raising op is a failed op
        result = exc
    seconds = clock() - t0
    try:
        cause = op.check(result)
    except Exception as exc:           # unreadable output, say, fails the op
        cause = f"output check raised {type(exc).__name__}: {exc}"
    report = _raised(result) or repr(result)
    return Outcome(op, seconds, cause, hashlib.sha256(report.encode()).hexdigest())


# -- helpers ----------------------------------------------------------------------


def cli(argv):
    """An op body calling `gog argv` in-process; returns (exit code, stdout, stderr)."""
    def body(gk):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gk.cli.main(argv)
            except SystemExit as exc:   # argparse rejects its arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return body


def _raised(result):
    return f"raised {type(result).__name__}: {result}" if isinstance(result, Exception) else None


def _contract(command, result):
    raised = _raised(result)
    if raised:
        return raised
    code = result[0]
    if code not in CONTRACT[command]:
        return f"exit code {code} outside the contract of {command}"
    return None


def write_json(path: Path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def vertex_spans(doc):
    """vertex -> [(edge id, column vectors of that end)]."""
    out = {v["id"]: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        for end in e["ends"]:
            out[end["vertex"]].append((e["id"], inputs.columns(end["matrix"])))
    return out


# -- analyze-large ------------------------------------------------------------------


def _check_depth_report(doc):
    ids = {v["id"] for v in doc["vertices"]} | {e["id"] for e in doc["edges"]}
    spans = vertex_spans(doc)

    def check(result):
        bad = _contract("depth", result)
        if bad:
            return bad
        code, out, _ = result
        rep = json.loads(out)
        kind = rep["verdict"]["kind"]
        if kind == "unknown":
            return f"[2b] verdict {rep['verdict']['rendered']} on a synthetic abelian graph"
        if code != 0 or kind != "finite":
            return f"verdict {rep['verdict']['rendered']} (exit {code}), expected Finite"
        depth = rep["depth"]
        if set(depth) != ids:
            return "depth report does not label every orbit"
        for vid, ends in spans.items():
            for ea, sa in ends:
                for eb, sb in ends:
                    # end maps are injective, so strict inclusion needs fewer columns
                    if (depth[ea] <= depth[eb] and len(sa) < len(sb)
                            and inputs.span_le(sa, sb)):
                        return (f"at {vid}: class of {ea} strictly inside {eb} but depth "
                                f"{depth[ea]} <= {depth[eb]}")
        return None
    return check


def _check_check_report(result):
    bad = _contract("check", result)
    if bad:
        return bad
    code, out, _ = result
    if code not in (0, 1) or "result: " not in out:
        return f"check exit {code} without a result line on a valid graph"
    return None


class AnalyzeLarge:
    """`gog check` and `gog depth --format json` on irreducible rank-3 graphs."""

    name = "analyze-large"
    round_s = 3.75    # run seconds per round at the seed commit
    # Edges per input in one round: p50 falls among the E=32 ops, p90 among
    # the E=128 ops, and E=256 holds about 5% of all ops and 40% of the time.
    sizes = (32,) * 9 + (64,) * 4 + (128,) * 3 + (256,)

    def __init__(self, seed, workdir: Path, fixtures: Path):
        self.seed, self.dir, self.fixtures = seed, workdir, fixtures

    def fixed(self):
        ops = []
        for name in FIXTURES:
            path = self.dir / f"fixture_{name}.json"
            shutil.copyfile(self.fixtures / f"{name}.json", path)
            ops.append(Op(f"check {name}", cli(["check", str(path)]),
                          lambda r: _contract("check", r), None))
            ops.append(Op(f"depth {name}", cli(["depth", str(path), "--format", "json"]),
                          lambda r: _contract("depth", r), None))
        return ops

    def round(self, r):
        rng = inputs.seeded_rng(self.name, self.seed, f"round{r}")
        ops = []
        for k, n_edges in enumerate(self.sizes):
            doc = inputs.rank3_graph(rng, n_edges)
            path = self.dir / f"r{r}_{k}_e{n_edges}.json"
            write_json(path, doc)
            ops.append(Op(f"check {path.name}", cli(["check", str(path)]),
                          _check_check_report, n_edges))
            ops.append(Op(f"depth {path.name}", cli(["depth", str(path), "--format", "json"]),
                          _check_depth_report(doc), n_edges))
        return ops


# -- pattern-pairs ------------------------------------------------------------------


def _check_compare(expected):
    def check(result):
        bad = _contract("compare", result)
        if bad:
            return bad
        code, out, _ = result
        rep = json.loads(out)
        if rep["equivalent"] != expected or code != (0 if expected else 1):
            return (f"answered {'yes' if rep['equivalent'] else 'no'} (exit {code}), "
                    f"{'yes' if expected else 'no'} by construction")
        if expected and inputs.det([[Fraction(x) for x in row] for row in rep["witness"]]) == 0:
            return "witness matrix is singular"
        return None
    return check


class PatternPairs:
    """`gog compare A B --format json` over a pool of patterns and their partners."""

    name = "pattern-pairs"
    round_s = 3.75    # run seconds per round at the seed commit
    # (ambient dimension, hyperplanes, copies of each kind); every round draws
    # one family of each.  The Q^4 family is a small share of the ops: one
    # equivalent and one near-miss pair.
    families = ((2, 4, 3), (3, 5, 2), (4, 5, 1))

    def __init__(self, seed, workdir: Path, fixtures: Path):
        self.seed, self.dir = seed, workdir

    def fixed(self):
        return []

    def round(self, r):
        rng = inputs.seeded_rng(self.name, self.seed, f"round{r}")
        ops = []
        for n, count, copies in self.families:
            base, eqs, nears = inputs.pattern_family(rng, n, count, copies)
            pool = [base] + eqs + nears
            paths = []
            for k, doc in enumerate(pool):
                path = self.dir / f"r{r}_n{n}_p{k}.json"
                write_json(path, doc)
                paths.append(path)
            # left from base + copies, right from copies + near misses
            pairs = [(a, b) for a in range(1 + copies) for b in range(1, len(pool)) if a < b]
            if n == 4:
                pairs = [(0, 1), (1, 2)]
            for a, b in pairs:
                expected = b <= copies          # both from {base, copies}: equivalent
                ops.append(Op(f"compare {paths[a].name} {paths[b].name}",
                              cli(["compare", str(paths[a]), str(paths[b]), "--format", "json"]),
                              _check_compare(expected), n))
        return ops


# -- ball-compare -------------------------------------------------------------------


def _ball_op(path, root, cap):
    def body(gk):
        g = gk.load_graph(str(path))
        ball = gk.build_ball(g, root, 3, cap)
        da = gk.depth_filtration(g)
        gk.annotate_depth(ball, da)
        chains = gk.ball_chain_depths(ball, g)
        crossing = None
        if any(set(r.core) == {root} for r in da.levels[0].rafts):
            crossing = (gk.ball_crossing_check(ball, g),
                        gk.crossing_graph(g, root, da).verdict)
        return {"nodes": len(ball.nodes), "verdict": da.verdict.render(),
                "depth": dict(da.depth), "chains": chains, "crossing": crossing}
    return body


def _check_ball(exact, graph_best=None, last=False):
    """Per root: chains never exceed filtration depths (equal where `exact`).

    For generated graphs the maximum over all roots must equal the
    filtration depth; `graph_best` accumulates it and the last root checks.
    """
    tag = "[2a] "

    def check(result):
        raised = _raised(result)
        if raised:
            return (tag if "not monotone" in raised else "") + raised
        depth, chains = result["depth"], result["chains"]
        over = sorted(o for o in chains if chains[o] > depth.get(o, -1))
        if over:
            o = over[0]
            return f"{tag}chain depth {chains[o]} of {o} above the filtration depth {depth.get(o)}"
        if exact and chains != depth:
            return f"chain depths {chains} differ from filtration depths {depth}"
        if result["crossing"] and result["crossing"][0] != result["crossing"][1]:
            return f"ball crossing {result['crossing'][0]}, quotient {result['crossing'][1]}"
        if graph_best is not None:
            for o, d in chains.items():
                graph_best[o] = max(graph_best.get(o, 0), d)
            if last and graph_best != depth:
                return f"max chain depth over roots {graph_best} differs from {depth}"
        return None
    return check


class BallCompare:
    """Radius-3 tree balls against the depth filtration and the crossing graph."""

    name = "ball-compare"
    round_s = 1.33    # run seconds per round at the seed commit
    # Roots per round by ball size (min nodes, max nodes, roots), so that every
    # round has the same mix of small and large balls whatever the seed.
    bins = ((1, 35, 2), (36, 79, 2), (80, 90, 5))

    def __init__(self, seed, workdir: Path, fixtures: Path):
        self.seed, self.dir, self.fixtures = seed, workdir, fixtures

    def fixed(self):
        ops = []
        for name in BALL_FIXTURES:
            path = self.dir / f"fixture_{name}.json"
            shutil.copyfile(self.fixtures / f"{name}.json", path)
            with open(path, encoding="utf-8") as fh:
                root = sorted(v["id"] for v in json.load(fh)["vertices"])[0]
            ops.append(Op(f"ball {name} at {root}", _ball_op(path, root, 3),
                          _check_ball(exact=True), None))
        path = self.dir / "probe_rank0.json"
        write_json(path, RANK0_PROBE)
        ops.append(Op("ball probe_rank0 at v0", _ball_op(path, "v0", 2),
                      _check_ball(exact=False), None))
        return ops

    def _bin(self, nodes):
        return next(b for b, (lo, hi, _) in enumerate(self.bins) if lo <= nodes <= hi)

    def round(self, r):
        rng = inputs.seeded_rng(self.name, self.seed, f"round{r}")
        left = [quota for *_, quota in self.bins]
        ops = []
        while any(left):
            doc = inputs.small_graph(rng, max_nodes=self.bins[-1][1])
            roots = sorted(v["id"] for v in doc["vertices"])
            sizes = [inputs.ball_node_count(doc, root, 3, 2) for root in roots]
            need = [0] * len(left)
            for size in sizes:
                need[self._bin(size)] += 1
            if any(n > q for n, q in zip(need, left)):
                continue
            left = [q - n for q, n in zip(left, need)]
            path = self.dir / f"r{r}_{len(ops)}.json"
            write_json(path, doc)
            best = {}
            for root, size in zip(roots, sizes):
                ops.append(Op(f"ball {path.name} at {root}", _ball_op(path, root, 2),
                              _check_ball(False, best, root == roots[-1]), size))
        return ops


# -- reduce-churn -------------------------------------------------------------------


def _check_reduce(memo):
    def check(result):
        bad = _contract("reduce", result)
        if bad:
            return bad
        code, out, _ = result
        if code != 0:
            return f"reduce exit {code} on a valid graph"
        rep = json.loads(out)
        left = inputs.reducible_ends(rep["graph"])
        if left:
            return f"reduced graph still has reducible edge {left[0][0]} end {left[0][1]}"
        if "classes" in memo and memo["classes"] != rep["classes"]:
            return f"lex classes {memo['classes']} differ from revlex {rep['classes']}"
        memo["classes"] = rep["classes"]
        return None
    return check


def _check_reducible_check(result):
    bad = _contract("check", result)
    if bad:
        return bad
    code, out, _ = result
    if code != 1 or "FAIL - reducible at edge" not in out:
        return f"check exit {code} does not report the input as reducible"
    return None


class ReduceChurn:
    """`gog reduce` in both collapse orders, then `gog check`, on reducible graphs."""

    name = "reduce-churn"
    round_s = 1.0     # run seconds per round at the seed commit
    sizes = (16, 32, 32, 64)    # p50 falls among the E=32 ops, p90 among the E=64 ops

    def __init__(self, seed, workdir: Path, fixtures: Path):
        self.seed, self.dir = seed, workdir

    def fixed(self):
        return []

    def round(self, r):
        rng = inputs.seeded_rng(self.name, self.seed, f"round{r}")
        ops = []
        for k, n_edges in enumerate(self.sizes):
            doc = inputs.reducible_graph(rng, n_edges)
            path = self.dir / f"r{r}_{k}_e{n_edges}.json"
            write_json(path, doc)
            memo = {}
            for order in ("lex", "revlex"):
                ops.append(Op(f"reduce --order {order} {path.name}",
                              cli(["reduce", str(path), "--format", "json", "--order", order]),
                              _check_reduce(memo), n_edges))
            ops.append(Op(f"check {path.name}", cli(["check", str(path)]),
                          _check_reducible_check, n_edges))
        return ops


WORKLOADS = {w.name: w for w in (AnalyzeLarge, PatternPairs, BallCompare, ReduceChurn)}
