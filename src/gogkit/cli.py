"""Command-line front end.

Each `cmd_*` returns its report as (exit code, text lines, JSON payload) and
writes nothing (`depth` builds its lines for `--format text` only); `main`
alone writes the report, as text or JSON, to stdout or to the `--output`
file, and holds the one table from exceptions to exit codes.
Exit codes form a disjoint contract: 0 success / all-pass, 1 analysis-level
negative, 2 input error, 3 infinite depth, 4 unknown verdict, 5 analysis
unsupported for the oracle mode, 6 internal error (a fault in gogkit itself,
reported on one stderr line, not as a traceback).  Reports are deterministic:
ids are sorted and every analysis, pattern equivalence included, is exact, so
no seed exists to set or print and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress

from . import __version__
from .crossing import WrongVertex, check_hypotheses, crossing_graph
from .depth import MustReduceFirst, depth_filtration, depth_zero_rafts
from .exactlin import DimensionMismatch, canonicalize
from .model import (GraphLoadError, UnknownId, dump_graph, graph_from_dict, graph_to_dict,
                    int_rows, load_graph, read_json, render_json, typed, validate,
                    write_text)
from .oracle import UnsupportedOracle
from .patterns import (LinearPattern, UnderdeterminedSlopes, patterns_equivalent,
                       rigidity_check, slope_invariant, vertex_edge_pattern)
from .reduce import comm_classes, complete_reduce
from .treeball import LabelsNotMonotone, address_steps, annotate_depth, build_ball, to_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INFINITE = 3
EXIT_UNKNOWN = 4
EXIT_UNSUPPORTED = 5
EXIT_INTERNAL = 6


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


def cmd_validate(args):
    report = validate(load_graph(args.file))
    violations = sorted(report.violations)
    if report.ok:
        lines = ["ok: graph is valid"]
    else:
        lines = [f"invalid: {len(violations)} violations", *(f"  {v}" for v in violations)]
    code = EXIT_OK if report.ok else EXIT_NEGATIVE
    return code, lines, {"violations": violations, "ok": report.ok}


def cmd_depth(args):
    da = depth_filtration(_load(args.file), args.horizon)
    levels, below = [], {}    # below: the previous level's flotillas -> their index
    for lv in da.levels:
        rafts = [{"core": r.core, "absorbed_flotillas": [below[f] for f in r.absorbed],
                  "kind": r.kind} for r in lv.rafts]
        levels.append({"level": lv.level, "rafts": rafts,
                       "flotillas": [f.members for f in lv.flotillas]})
        below = {f: fi for fi, f in enumerate(lv.flotillas)}
    code = {"infinite": EXIT_INFINITE, "unknown": EXIT_UNKNOWN}.get(da.verdict.kind, EXIT_OK)
    payload = {"verdict": _verdict_payload(da.verdict), "depth": da.depth, "levels": levels}
    if args.format != "text":
        return code, None, payload
    lines = [f"verdict: {da.verdict.render()}"]
    lines += [f"depth {k}: {da.depth[k]}" for k in sorted(da.depth)]
    for lvl in levels:
        n = lvl["level"]
        for r in lvl["rafts"]:
            fis = ",".join(f"F{n - 1}.{fi}" for fi in r["absorbed_flotillas"])
            lines.append(f"level {n} raft: {{{','.join(r['core'])}}}" + (
                f" absorbing {fis}" if fis else "") + (f" [{r['kind']}]" if r["kind"] else ""))
        lines += [f"level {n} flotilla: {{{','.join(members)}}}" for members in lvl["flotillas"]]
    lines += [f"witness: {s.orbit} class {s.cls}" + (" (strict)" if s.strict else "")
              for s in da.verdict.witness]
    return code, lines, payload


def cmd_rafts(args):
    rafts = depth_zero_rafts(_load(args.file))
    lines = [f"depth-0 raft {{{','.join(r.core)}}}: {r.kind}" for r in rafts]
    return EXIT_OK, lines or ["no depth-0 rafts"], {
        "rafts": [{"members": r.core, "kind": r.kind} for r in rafts]}


def cmd_crossing(args):
    cg = crossing_graph(_load(args.file), args.vertex)
    lines = [f"crossing graph at {cg.vertex}: {cg.verdict} ({len(cg.nodes)} nodes)",
             *(f"node {nd.span!r} from ends {list(nd.ends)}" for nd in cg.nodes)]
    payload = {"vertex": cg.vertex, "verdict": cg.verdict,
               "nodes": [{"span": _span_rows(nd.span), "ends": [list(e) for e in nd.ends]}
                         for nd in cg.nodes],
               "adjacency": [list(row) for row in cg.adjacency],
               "codimension_one_condition": cg.codim_note}
    if cg.witness is not None:
        payload["witness"] = _span_rows(cg.witness)
        lines.append(f"witness hyperplane: {cg.witness!r}")
    lines.append(f"note: {cg.codim_note}")
    return (EXIT_OK if cg.verdict in ("connected", "empty") else EXIT_NEGATIVE), lines, payload


def cmd_check(args):
    report = check_hypotheses(_load(args.file), args.horizon)
    lines = [f"({e.number}) {e.name}: {e.status.upper()}" + (f" - {e.detail}" if e.detail else "")
             for e in report.entries]
    payload = {"hypotheses": [e._asdict() for e in report.entries],
               "all_pass": report.all_pass}
    if report.reduced:
        lines.append("note: analyses ran on the complete reduction of the input")
        payload["reduced"] = True
    lines.append("result: " + ("all hypotheses pass" if report.all_pass else "not all pass"))
    return (EXIT_OK if report.all_pass else EXIT_NEGATIVE), lines, payload


def cmd_reduce(args):
    g = _load(args.file)
    reduced = complete_reduce(g, order=args.order)
    classes = comm_classes(reduced, args.horizon)
    lines = [f"reduced: {len(g.edges)} -> {len(reduced.edges)} edges, "
             f"{len(g.vertices)} -> {len(reduced.vertices)} vertices",
             *(f"class: {c}" for c in classes)]
    if args.output_graph:
        dump_graph(reduced, args.output_graph)
        lines.append(f"wrote {args.output_graph}")
    if args.format != "json":      # the reduced graph's dict is for the JSON report only
        return EXIT_OK, lines, None
    return EXIT_OK, lines, {"graph": graph_to_dict(reduced),
                            "classes": [list(map(str, c)) for c in classes]}


def cmd_invariants(args):
    pattern, notes = vertex_edge_pattern(_load(args.file), args.vertex)
    rv = rigidity_check(pattern)
    lines = [f"pattern at {args.vertex}: {len(pattern.subspaces)} subspaces",
             *(f"  member {s!r}" for s in pattern.subspaces),
             *(f"  note: edge {eid} end {i}: {why}" for (eid, i, why) in notes),
             f"rigidity: {rv.status}"
             + (f" (hyperplanes {list(rv.witness)})" if rv.witness else "")]
    payload = {"vertex": args.vertex, "pattern": [_span_rows(s) for s in pattern.subspaces],
               "notes": [list(map(str, n)) for n in notes],
               "rigidity": {"status": rv.status,
                            "witness": list(rv.witness) if rv.witness else None}}
    if pattern.ambient_dim == 2 and pattern.subspaces:
        payload["slope_invariant"], text = _slope(pattern)
        lines.append(f"slope invariant: {text}")
    return EXIT_OK, lines, payload


def _slope(pattern):
    """(JSON value, text) of a pattern's slope invariant, undefined with too few slopes."""
    try:
        text = slope_invariant(pattern).render()
        return text, text
    except UnderdeterminedSlopes as e:
        return None, f"undefined ({e})"


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
                [canonicalize(int_rows(rows, "pattern.subspaces[{}]", k), n) for k, rows
                 in enumerate(typed(body.get("subspaces", []), list, "pattern.subspaces"))], n)
        g = _valid(graph_from_dict(doc))
    except ValueError as e:   # GraphLoadError and DimensionMismatch included
        raise GraphLoadError(f"{path}: {e}") from e
    if not vertex:
        raise GraphLoadError(f"{path} is a graph file; --vertex-a/--vertex-b required")
    pattern, _ = vertex_edge_pattern(g, vertex)
    return pattern


def cmd_compare(args):
    pa = _load_pattern(args.file_a, args.vertex_a)
    pb = _load_pattern(args.file_b, args.vertex_b)
    same, witness = patterns_equivalent(pa, pb)
    lines, payload = [f"equivalent: {'yes' if same else 'no'}"], {"equivalent": same}
    if witness is not None:
        rows = [[str(x) for x in row] for row in witness.entries]
        payload["witness"] = rows
        lines.append("witness: " + "; ".join(" ".join(r) for r in rows))
    return (EXIT_OK if same else EXIT_NEGATIVE), lines, payload


def cmd_ball(args):
    g = _load(args.file)
    root = sorted(g.vertex_ids())[0] if args.vertex is None else args.vertex
    ball = build_ball(g, root, args.radius, args.branch_cap)
    with suppress(MustReduceFirst):    # a reducible graph gets no depth labels
        da = depth_filtration(g, args.horizon)
        if da.verdict.kind != "infinite":
            ball = annotate_depth(ball, da)
    if args.format == "dot":
        # split at "\n" alone: splitlines would also cut at a "\r" or "\u2028" in an id
        return EXIT_OK, to_dot(ball).split("\n")[:-1], None
    truncated = sorted(_addr(a) for a, n in ball.nodes.items() if n.truncated)
    lines = [f"ball at {ball.root_vertex}: radius {ball.radius}, "
             f"{len(ball.nodes)} nodes, {len(ball.edges)} edges"]
    if truncated:
        lines.append(f"truncated nodes: {len(truncated)}")
    for addr in sorted(ball.nodes):
        n = ball.nodes[addr]
        val = "inf" if n.true_valence is None else n.true_valence
        extra = f" depth={n.depth_label}" if n.depth_label is not None else ""
        lines.append(f"node {_addr(addr)}: {n.vertex} valence={val}{extra}"
                     + (" truncated" if n.truncated else ""))
    return EXIT_OK, lines, {"root": ball.root_vertex, "radius": ball.radius,
                            "branch_cap": ball.branch_cap, "node_count": len(ball.nodes),
                            "edge_count": len(ball.edges), "truncated_nodes": truncated}


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
    sp = command("crossing", cmd_crossing, "crossing graph at a vertex", walks=False)
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
    # The one report writer, and the one table from exceptions to exit codes.
    try:
        code, lines, payload = args.run(args)
        if args.format == "json":
            body = render_json(payload) + "\n"
        else:
            body = "\n".join(lines) + "\n"
        if args.output:
            write_text(args.output, body)
        else:
            sys.stdout.write(body)
        return code
    except UnsupportedOracle as e:
        return _fail(str(e), EXIT_UNSUPPORTED)
    except LabelsNotMonotone as e:      # the tree ball contradicts the depth labels
        return _fail(str(e), EXIT_NEGATIVE)
    except (GraphLoadError, MustReduceFirst, WrongVertex, DimensionMismatch, UnknownId) as e:
        return _fail(str(e), EXIT_INPUT)
    except Exception as e:      # last resort: never let a fault pass for a verdict
        return _fail(f"internal error: {e!r}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
