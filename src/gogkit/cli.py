"""Command-line front end.

Exit codes form a disjoint contract: 0 success / all-pass, 1 analysis-level
negative, 2 input error, 3 infinite depth, 4 unknown verdict, 5 analysis
unsupported for the oracle mode, 6 internal error (a fault in gogkit itself,
reported on one stderr line, not as a traceback).  Reports are deterministic:
ids are sorted and every analysis, pattern equivalence included, is exact, so
no seed exists to set or print and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .crossing import WrongVertex, check_hypotheses, crossing_graph
from .depth import MustReduceFirst, depth_filtration, depth_zero_rafts
from .exactlin import DimensionMismatch, canonicalize
from .model import (GraphLoadError, UnknownId, dump_graph, graph_from_dict, graph_to_dict,
                    int_rows, load_graph, read_json, typed, validate, write_text)
from .oracle import UnsupportedOracle
from .patterns import (LinearPattern, UnderdeterminedSlopes, patterns_equivalent,
                       rigidity_check, slope_invariant, vertex_edge_pattern)
from .reduce import comm_classes, complete_reduce, reducible_edges
from .treeball import address_steps, annotate_depth, build_ball, to_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INFINITE = 3
EXIT_UNKNOWN = 4
EXIT_UNSUPPORTED = 5
EXIT_INTERNAL = 6


class _Emitter:
    def __init__(self, args):
        self.args = args
        self.lines = []
        self.payload = {}

    def text(self, line):
        self.lines.append(line)

    def put(self, key, value):
        self.payload[key] = value

    def emit(self):
        if self.args.format == "json":
            body = json.dumps(self.payload, indent=2, sort_keys=True) + "\n"
        else:
            body = "\n".join(self.lines) + "\n"
        _write(body, self.args.output)


def _write(body, output):
    """Write a report to the --output file, or to stdout without one."""
    if output:
        write_text(output, body)
    else:
        sys.stdout.write(body)


def _fail(msg, code):
    sys.stderr.write(msg.rstrip() + "\n")
    return code


def _load(path):
    return _valid(load_graph(path))


def _valid(g):
    report = validate(g)
    if not report.ok:
        raise GraphLoadError(
            "invalid graph:\n" + "\n".join("  " + v for v in report.violations))
    return g


def _span_rows(s):
    return [list(r) for r in s.basis]


def _verdict_payload(v):
    out = {"kind": v.kind, "rendered": v.render()}
    if v.depth is not None:
        out["depth"] = v.depth
    if v.horizon is not None:
        out["horizon"] = v.horizon
    if v.witness:
        out["witness"] = [{"orbit": s.orbit, "class": s.cls, "strict": s.strict,
                           "via": list(map(list, s.via))} for s in v.witness]
    return out


def cmd_validate(args) -> int:
    report = validate(load_graph(args.file))
    em = _Emitter(args)
    em.put("violations", sorted(report.violations))
    em.put("ok", report.ok)
    if report.ok:
        em.text("ok: graph is valid")
    else:
        em.text(f"invalid: {len(report.violations)} violations")
        for v in sorted(report.violations):
            em.text(f"  {v}")
    em.emit()
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_depth(args) -> int:
    da = depth_filtration(_load(args.file), args.horizon)
    em = _Emitter(args)
    em.text(f"verdict: {da.verdict.render()}")
    em.put("verdict", _verdict_payload(da.verdict))
    em.put("depth", {k: da.depth[k] for k in sorted(da.depth)})
    for k in sorted(da.depth):
        em.text(f"depth {k}: {da.depth[k]}")
    levels, below = [], {}    # below: the previous level's flotillas -> their index
    for lv in da.levels:
        lvl = {"level": lv.level, "rafts": [], "flotillas": []}
        for r in lv.rafts:
            fis = [below[f] for f in r.absorbed]
            lvl["rafts"].append({"core": r.core, "absorbed_flotillas": fis, "kind": r.kind})
            desc = "{" + ",".join(r.core) + "}"
            if fis:
                desc += " absorbing " + ",".join(f"F{lv.level - 1}.{fi}" for fi in fis)
            if r.kind:
                desc += f" [{r.kind}]"
            em.text(f"level {lv.level} raft: {desc}")
        for f in lv.flotillas:
            lvl["flotillas"].append(f.members)
            em.text(f"level {lv.level} flotilla: {{{','.join(f.members)}}}")
        levels.append(lvl)
        below = {f: fi for fi, f in enumerate(lv.flotillas)}
    em.put("levels", levels)
    for s in da.verdict.witness:
        em.text(f"witness: {s.orbit} class {s.cls}" + (" (strict)" if s.strict else ""))
    em.emit()
    if da.verdict.kind == "infinite":
        return EXIT_INFINITE
    if da.verdict.kind == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_rafts(args) -> int:
    g = _load(args.file)
    rafts = depth_zero_rafts(g)
    em = _Emitter(args)
    payload = []
    for r in rafts:
        payload.append({"members": r.core, "kind": r.kind})
        em.text(f"depth-0 raft {{{','.join(r.core)}}}: {r.kind}")
    if not rafts:
        em.text("no depth-0 rafts")
    em.put("rafts", payload)
    em.emit()
    return EXIT_OK


def cmd_crossing(args) -> int:
    g = _load(args.file)
    if g.oracle_mode != "abelian":
        raise UnsupportedOracle("crossing graphs need the abelian oracle")
    da = depth_filtration(g, args.horizon)
    cg = crossing_graph(g, args.vertex, da)
    em = _Emitter(args)
    em.text(f"crossing graph at {cg.vertex}: {cg.verdict} ({len(cg.nodes)} nodes)")
    em.put("vertex", cg.vertex)
    em.put("verdict", cg.verdict)
    em.put("nodes", [{"span": _span_rows(nd.span), "ends": [list(e) for e in nd.ends]}
                     for nd in cg.nodes])
    em.put("adjacency", [list(row) for row in cg.adjacency])
    em.put("codimension_one_condition", cg.codim_note)
    for nd in cg.nodes:
        em.text(f"node {nd.span!r} from ends {list(nd.ends)}")
    if cg.witness is not None:
        em.put("witness", _span_rows(cg.witness))
        em.text(f"witness hyperplane: {cg.witness!r}")
    em.text(f"note: {cg.codim_note}")
    em.emit()
    return EXIT_OK if cg.verdict in ("connected", "empty") else EXIT_NEGATIVE


def cmd_check(args) -> int:
    report = check_hypotheses(_load(args.file), args.horizon)
    em = _Emitter(args)
    entries = []
    for e in report.entries:
        entries.append({"number": e.number, "name": e.name, "status": e.status,
                        "detail": e.detail})
        em.text(f"({e.number}) {e.name}: {e.status.upper()}"
                + (f" - {e.detail}" if e.detail else ""))
    em.put("hypotheses", entries)
    em.put("all_pass", report.all_pass)
    if report.reduced:
        em.text("note: analyses ran on the complete reduction of the input")
        em.put("reduced", True)
    em.text("result: " + ("all hypotheses pass" if report.all_pass else "not all pass"))
    em.emit()
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def cmd_reduce(args) -> int:
    g = _load(args.file)
    reduced = complete_reduce(g, order=args.order)
    em = _Emitter(args)
    em.text(f"reduced: {len(g.edges)} -> {len(reduced.edges)} edges, "
            f"{len(g.vertices)} -> {len(reduced.vertices)} vertices")
    classes = comm_classes(reduced, args.horizon)
    for c in classes:
        em.text(f"class: {c}")
    em.put("graph", graph_to_dict(reduced))
    em.put("classes", [list(map(str, c)) for c in classes])
    if args.output_graph:
        dump_graph(reduced, args.output_graph)
        em.text(f"wrote {args.output_graph}")
    em.emit()
    return EXIT_OK


def cmd_invariants(args) -> int:
    pattern, notes = vertex_edge_pattern(_load(args.file), args.vertex)
    em = _Emitter(args)
    em.text(f"pattern at {args.vertex}: {len(pattern.subspaces)} subspaces")
    em.put("vertex", args.vertex)
    em.put("pattern", [_span_rows(s) for s in pattern.subspaces])
    for s in pattern.subspaces:
        em.text(f"  member {s!r}")
    for (eid, i, why) in notes:
        em.text(f"  note: edge {eid} end {i}: {why}")
    em.put("notes", [list(map(str, n)) for n in notes])
    rv = rigidity_check(pattern)
    em.put("rigidity", {"status": rv.status,
                        "witness": list(rv.witness) if rv.witness else None})
    em.text(f"rigidity: {rv.status}"
            + (f" (hyperplanes {list(rv.witness)})" if rv.witness else ""))
    if pattern.ambient_dim == 2 and pattern.subspaces:
        try:
            inv = slope_invariant(pattern)
            em.put("slope_invariant", inv.render())
            em.text(f"slope invariant: {inv.render()}")
        except UnderdeterminedSlopes as e:
            em.put("slope_invariant", None)
            em.text(f"slope invariant: undefined ({e})")
    em.emit()
    return EXIT_OK


def _load_pattern(path, vertex):
    doc = read_json(path)
    is_pattern = isinstance(doc, dict) and "pattern" in doc
    if is_pattern and vertex:
        raise GraphLoadError(f"{path} is a pattern file; --vertex does not apply")
    try:
        if is_pattern:
            body = typed(doc["pattern"], dict, "pattern")
            n = typed(body.get("ambient_dim"), int, "pattern.ambient_dim")
            if n < 1:
                raise GraphLoadError(f"pattern.ambient_dim: expected a positive integer, got {n}")
            return LinearPattern.of(
                [canonicalize(int_rows(rows, f"pattern.subspaces[{k}]"), n) for k, rows
                 in enumerate(typed(body.get("subspaces", []), list, "pattern.subspaces"))], n)
        g = _valid(graph_from_dict(doc))
    except ValueError as e:   # GraphLoadError and DimensionMismatch included
        raise GraphLoadError(f"{path}: {e}") from e
    if not vertex:
        raise GraphLoadError(f"{path} is a graph file; --vertex-a/--vertex-b required")
    pattern, _ = vertex_edge_pattern(g, vertex)
    return pattern


def cmd_compare(args) -> int:
    pa = _load_pattern(args.file_a, args.vertex_a)
    pb = _load_pattern(args.file_b, args.vertex_b)
    same, witness = patterns_equivalent(pa, pb)
    em = _Emitter(args)
    em.text(f"equivalent: {'yes' if same else 'no'}")
    em.put("equivalent", same)
    if witness is not None:
        rows = [[str(x) for x in row] for row in witness.entries]
        em.put("witness", rows)
        em.text("witness: " + "; ".join(" ".join(r) for r in rows))
    em.emit()
    return EXIT_OK if same else EXIT_NEGATIVE


def cmd_ball(args) -> int:
    g = _load(args.file)
    root = sorted(g.vertex_ids())[0] if args.vertex is None else args.vertex
    ball = build_ball(g, root, args.radius, args.branch_cap)
    if not reducible_edges(g):
        da = depth_filtration(g, args.horizon)
        if da.verdict.kind != "infinite":
            try:
                ball = annotate_depth(ball, da)
            except ValueError as e:     # labels not monotone: analysis negative
                return _fail(str(e), EXIT_NEGATIVE)
    if args.format == "dot":
        _write(to_dot(ball), args.output)
        return EXIT_OK
    em = _Emitter(args)
    truncated = sorted(_addr(a) for a, n in ball.nodes.items() if n.truncated)
    em.text(f"ball at {ball.root_vertex}: radius {ball.radius}, "
            f"{len(ball.nodes)} nodes, {len(ball.edges)} edges")
    em.put("root", ball.root_vertex)
    em.put("radius", ball.radius)
    em.put("branch_cap", ball.branch_cap)
    em.put("node_count", len(ball.nodes))
    em.put("edge_count", len(ball.edges))
    em.put("truncated_nodes", truncated)
    if truncated:
        em.text(f"truncated nodes: {len(truncated)}")
    for addr in sorted(ball.nodes):
        n = ball.nodes[addr]
        val = "inf" if n.true_valence is None else n.true_valence
        extra = f" depth={n.depth_label}" if n.depth_label is not None else ""
        em.text(f"node {_addr(addr)}: {n.vertex} valence={val}{extra}"
                + (" truncated" if n.truncated else ""))
    em.emit()
    return EXIT_OK


def _addr(address):
    return "/".join(address_steps(address)) or "root"


def _at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    parse.__name__ = "int"      # argparse names it in "invalid int value: ..."
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="gog", description=__doc__)
    p.add_argument("--version", action="version", version=f"gogkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, summary, files=("file",), walks=True, formats=("text", "json")):
        """A subcommand with the flags every report takes, and --horizon if it walks."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        for fa in files:
            sp.add_argument(fa)
        if walks:
            sp.add_argument("--horizon", type=_at_least(1), default=None)
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--output", default=None)
        return sp

    command("validate", cmd_validate, "check the structural invariants", walks=False)
    command("depth", cmd_depth, "depth filtration, rafts, flotillas")
    command("rafts", cmd_rafts, "depth-zero rafts and their kinds", walks=False)
    sp = command("crossing", cmd_crossing, "crossing graph at a vertex")
    sp.add_argument("--vertex", required=True)
    command("check", cmd_check, "the five structural hypotheses")
    sp = command("reduce", cmd_reduce, "collapse reducible edges")
    sp.add_argument("--order", choices=("lex", "revlex"), default="lex")
    sp.add_argument("-o", "--output-graph", default=None)
    sp = command("invariants", cmd_invariants, "pattern invariants at a vertex", walks=False)
    sp.add_argument("--vertex", required=True)
    sp = command("compare", cmd_compare, "linear equivalence of two patterns",
                 files=("file_a", "file_b"), walks=False)
    sp.add_argument("--vertex-a", default=None)
    sp.add_argument("--vertex-b", default=None)
    sp = command("ball", cmd_ball, "finite Bass-Serre tree ball",
                 formats=("text", "json", "dot"))
    sp.add_argument("--vertex", default=None)
    sp.add_argument("--radius", type=_at_least(0), default=2)
    sp.add_argument("--branch-cap", type=_at_least(1), default=3)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:     # usage errors exit 2, --help and --version 0
        return e.code
    # The one table from exceptions to exit codes.
    try:
        return args.run(args)
    except UnsupportedOracle as e:
        return _fail(str(e), EXIT_UNSUPPORTED)
    except (GraphLoadError, MustReduceFirst, WrongVertex, DimensionMismatch, UnknownId) as e:
        return _fail(str(e), EXIT_INPUT)
    except Exception as e:      # last resort: never let a fault pass for a verdict
        return _fail(f"internal error: {e!r}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
