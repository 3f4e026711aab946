"""Crossing graphs at one-vertex depth-zero rafts, and the hypothesis checker.

At a rank-n abelian vertex, an incident subgroup crosses a corank-one
subgroup exactly when its span is not contained in the corank-one span.  All
tree translates of an edge end share one span, so connectivity of the
tree-level crossing graph collapses to a finite criterion: the graph is
empty when no incident end has corank one, and otherwise connected precisely
when the incident end spans together span the whole vertex group.  Two
distinct corank-one spans always cross, and together they already span Q^n;
copies of a single span H are joined exactly when some incident span escapes
H.  So the verdict is read off the hyperplane nodes with no span sums: two or
more nodes mean connected, and one node H takes one `contains` test, dot
products with H's one cached normal, per incident span.  Every adjacency
entry equals the verdict, and the witness of a disconnected graph is H
itself, which holds every incident span.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactlin import RationalSubspace, contains
from .depth import DepthAssignment, _refuse_reducible, depth_filtration, depth_zero_rafts
from .oracle import UnsupportedOracle
from .reduce import complete_reduce, reducible_edges


class WrongVertex(ValueError):
    """The vertex is not a one-vertex depth-zero raft."""


class CrossingNode(NamedTuple):
    span: RationalSubspace
    ends: tuple  # contributing (edge id, end index) pairs


class CrossingGraph(NamedTuple):
    vertex: str
    nodes: tuple[CrossingNode, ...]
    adjacency: tuple
    verdict: str                      # empty | connected | disconnected
    witness: RationalSubspace | None  # hyperplane containing every incident span
    codim_note: str = ("coarsely separating edge ends have corank one "
                       "automatically at an abelian vertex")


def _one_vertex_raft(rafts0, vid: str) -> bool:
    return any(raft.core == (vid,) for raft in rafts0)


def crossing_graph(g, vid: str, da: DepthAssignment | None = None) -> CrossingGraph:
    """The crossing graph at `vid`, which must be a one-vertex depth-zero raft.

    Only the depth-zero rafts are read: `da`'s, or without it `depth_zero_rafts`,
    which walks no transport, so the rest of the depth filtration never runs.
    """
    if g.oracle_mode != "abelian":
        raise UnsupportedOracle("crossing graphs need the abelian oracle")
    if da is None:
        _refuse_reducible(g)
        rafts0 = depth_zero_rafts(g)
    else:
        rafts0 = da.levels[0].rafts if da.levels else ()
    g.vertex(vid)               # an unknown id is named as such, not as a wrong raft
    if not _one_vertex_raft(rafts0, vid):
        raise WrongVertex(f"{vid} is not a one-vertex depth-zero raft")
    return _crossing_at(g, vid)


def _crossing_at(g, vid: str) -> CrossingGraph:
    """`crossing_graph` at a vertex the caller knows is a one-vertex depth-zero raft."""
    n = g.vertex(vid).rank
    orc = g.oracle()
    spans = [(orc.class_of(e.id, i), (e.id, i)) for (e, i) in g.ends_at(vid)]

    by_span = {}
    for span, end in spans:
        if span.dim == n - 1:
            by_span.setdefault(span, []).append(end)
    nodes = tuple(CrossingNode(s, tuple(sorted(by_span[s])))
                  for s in sorted(by_span, key=lambda s: s.basis))
    if not nodes:
        return CrossingGraph(vid, (), (), "empty", None)

    if len(nodes) > 1:
        connected = True    # two distinct corank-one spans already span Q^n
    else:
        # one hyperplane H: the incident spans span Q^n iff one escapes H
        connected = any(not contains(nodes[0].span, s) for s, _ in spans)
    adj = ((connected,) * len(nodes),) * len(nodes)
    if connected:
        return CrossingGraph(vid, nodes, adj, "connected", None)
    return CrossingGraph(vid, nodes, adj, "disconnected", nodes[0].span)


HYPOTHESIS_NAMES = {
    1: "finite type, irreducible, finite depth",
    2: "no depth-zero raft is a line",
    3: "depth-zero vertex groups are coarse PD",
    4: "crossing graph connected or empty at one-vertex depth-zero rafts",
    5: "vertex and edge groups have coarse finite type",
}


class HypothesisStatus(NamedTuple):
    number: int
    name: str
    status: str           # pass | fail | unknown
    detail: str = ""


class HypothesisReport(NamedTuple):
    entries: tuple[HypothesisStatus, ...]
    reduced: bool = False     # analyses ran on the complete reduction

    @property
    def all_pass(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def entry(self, number: int) -> HypothesisStatus:
        return next(e for e in self.entries if e.number == number)


def check_hypotheses(g, horizon: int | None = None) -> HypothesisReport:
    """Evaluate the five structural hypotheses of the rigidity package."""
    red = reducible_edges(g)
    work = complete_reduce(g) if red else g
    da = depth_filtration(work, horizon)
    entries = []

    def put(k, status, detail):
        entries.append(HypothesisStatus(k, HYPOTHESIS_NAMES[k], status, detail))

    if red:
        put(1, "fail", f"reducible at edge {red[0][0]} end {red[0][1]}")
    elif da.verdict.kind == "finite":
        put(1, "pass", f"depth {da.verdict.depth}")
    elif da.verdict.kind == "infinite":
        first, *rest = da.verdict.witness
        chain = f"{first.orbit}:{first.cls}" + "".join(
            (" < " if s.strict else ", ") + f"{s.orbit}:{s.cls}" for s in rest)
        put(1, "fail", f"infinite depth: {chain}")
    else:
        put(1, "unknown", f"transport horizon {da.verdict.horizon} exhausted")

    rafts0 = list(da.levels[0].rafts) if da.levels else []
    line = next((r for r in rafts0 if r.kind == "line"), None)
    if line is not None:
        put(2, "fail", "line raft {" + ",".join(line.members) + "}")
    else:
        put(2, "pass", f"{len(rafts0)} depth-zero rafts")

    if g.oracle_mode == "abelian":
        put(3, "pass", "rank-n abelian vertex groups are coarse PD(n)")
    else:
        vertex_ids = set(work.vertex_ids())
        raft_vertices = sorted(
            m for r in rafts0 for m in r.core if m in vertex_ids)
        flags = work.table.pd_flags if work.table else {}
        bad = [v for v in raft_vertices
               if flags.get(v, {}).get("is_coarse_pd") is False]
        missing = [v for v in raft_vertices if v not in flags]
        if bad:
            put(3, "fail", f"vertex {bad[0]} declared not coarse PD")
        elif missing:
            put(3, "unknown", f"no PD declaration for vertex {missing[0]}")
        else:
            put(3, "pass", "declared coarse PD")

    if g.oracle_mode != "abelian":
        put(4, "unknown", "crossing graphs are not supported for the table oracle")
    else:
        # A one-member core is a lone vertex; the rafts are known, so no guard.
        graphs = [_crossing_at(work, r.core[0]) for r in rafts0 if len(r.core) == 1]
        bad = next((cg for cg in graphs if cg.verdict == "disconnected"), None)
        if bad is not None:
            put(4, "fail", f"disconnected at {bad.vertex}; "
                f"every incident span lies in {bad.witness!r}")
        else:
            put(4, "pass", f"checked {len(graphs)} one-vertex rafts")

    put(5, "pass", "finitely generated abelian groups have coarse finite type"
        if g.oracle_mode == "abelian" else "declared by the table")

    return HypothesisReport(tuple(entries), reduced=bool(red))
