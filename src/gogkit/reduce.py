"""Edge reduction of graphs of groups and reduction-invariant fingerprints.

An edge with distinct endpoints whose injection at one end is surjective can
be collapsed without changing the fundamental group: the surjective end's
vertex is absorbed into the opposite one and every other edge formerly
attached there is re-attached through the composed injection.  Iterating
until no such edge remains gives an irreducible graph.  The end result is
not unique, but the multiset of commensurability classes of vertex and edge
groups is; `comm_classes` computes that fingerprint.

`complete_reduce` scans the graph for reducible ends once and keeps them in a
candidate set.  A collapse changes only the edges with an end at the absorbed
vertex: those ends move to the kept vertex (an edge may become a loop) and
are composed with the collapsed edge's maps, so their determinant or index
gets multiplied by the index of the collapsed edge at the kept end.  So after
each collapse only both ends of those re-attached edges are rechecked; every
other edge, and whether it is reducible, carries over unchanged.
"""

from __future__ import annotations

from .model import INFINITE, EdgeEnd, EdgeSpec, GraphOfGroups, TableData, UnknownId
from .oracle import explore
from .unionfind import UnionFind


class NotReducible(ValueError):
    pass


def _reducible(orc, e: EdgeSpec, end: int) -> bool:
    """Distinct endpoints and index one at `end`: for the abelian oracle a
    square injection matrix with determinant +-1."""
    return (not e.is_loop() and orc.finite_index_end(e.id, end)
            and orc.index_value(e.id, end) == 1)


def reducible_edges(g: GraphOfGroups):
    """All (edge id, end index) that `collapse` accepts, sorted; never a loop."""
    orc = g.oracle()
    return [(e.id, i) for e in sorted(g.edges, key=lambda e: e.id) for i in (0, 1)
            if _reducible(orc, e, i)]


def collapse(g: GraphOfGroups, eid: str, end: int) -> GraphOfGroups:
    """Collapse along a reducible edge; the surjective end's vertex disappears.

    Edges with no end at the absorbed vertex are carried over as they are.
    """
    orc = g.oracle()
    try:
        e = g.edge(eid)
    except UnknownId:
        e = None
    if end not in (0, 1) or e is None or not _reducible(orc, e, end):
        raise NotReducible(f"edge {eid} end {end} is not reducible")
    gone = e.ends[end].vertex          # absorbed vertex
    kept = e.ends[1 - end].vertex      # carries the merged group
    if g.oracle_mode == "abelian":
        # phi_theta . phi_eta^{-1}, integer since phi_eta is unimodular.
        through = e.ends[1 - end].matrix.mul(e.ends[end].matrix.inverse())

    def moves(f):
        return f.ends[0].vertex == gone or f.ends[1].vertex == gone

    new_edges = []
    for f in g.edges:
        if f.id == eid:
            continue
        if not moves(f):
            new_edges.append(f)
            continue
        ends = []
        for fe in f.ends:
            if fe.vertex != gone:
                ends.append(fe)
            elif g.oracle_mode == "abelian":
                ends.append(EdgeEnd(kept, matrix=through.mul(fe.matrix)))
            else:
                moved = orc.transport(eid, end, fe.class_label)
                ends.append(EdgeEnd(kept, class_label=moved))
        new_edges.append(EdgeSpec(f.id, f.rank, (ends[0], ends[1])))

    table = None
    if g.oracle_mode == "table":
        t = g.table
        cross = orc.index_value(eid, 1 - end)   # index of the absorbed group in kept
        emap_in = t.transport[eid][end]          # gone -> kept
        emap_out = t.transport[eid][1 - end]     # kept -> gone
        indices = {}
        transport = {}
        for f in g.edges:
            if f.id == eid:
                continue
            if not moves(f):
                indices[f.id], transport[f.id] = t.indices[f.id], t.transport[f.id]
                continue
            idx = []
            maps = []
            for i, fe in enumerate(f.ends):
                iv = t.indices[f.id][i]
                mp = t.transport[f.id][i]
                if fe.vertex == gone:
                    iv = INFINITE if iv == INFINITE else iv * cross
                    # Entering at the re-attached end now starts at `kept`:
                    # hop back across e first, then use the old map.
                    mp = {lab: mp[emap_out[lab]] for lab in emap_out if emap_out[lab] in mp}
                if f.ends[1 - i].vertex == gone:
                    # The far side has moved to `kept`: land there via e.
                    mp = {lab: emap_in[v] for lab, v in mp.items() if v in emap_in}
                idx.append(iv)
                maps.append(mp)
            indices[f.id] = tuple(idx)
            transport[f.id] = tuple(maps)
        labels = {v: t.labels[v] for v in t.labels if v != gone}
        top = {v: t.top[v] for v in t.top if v != gone}
        order = {v: t.order[v] for v in t.order if v != gone}
        pd = {v: t.pd_flags[v] for v in t.pd_flags if v != gone}
        table = TableData(labels, top, order, transport, indices, pd)

    return GraphOfGroups(
        tuple(v for v in g.vertices if v.id != gone),
        tuple(new_edges),
        g.oracle_mode,
        table,
    )


def complete_reduce(g: GraphOfGroups, order="lex") -> GraphOfGroups:
    """Collapse reducible edges until none remain.

    The edge count strictly decreases, so this terminates.  `order` picks the
    next (edge id, end index): "lex" (default) the least, "revlex" the
    greatest; any other value raises ValueError.  The graph is scanned once;
    after each collapse only the ends of the re-attached edges are rechecked.
    """
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown edge-selection policy {order!r}")
    pick = min if order == "lex" else max
    cands = set(reducible_edges(g))
    while cands:
        eid, end = pick(cands)
        gone = g.edge(eid).ends[end].vertex
        touched = {f.id for f, _ in g.ends_at(gone)}
        g = collapse(g, eid, end)
        orc = g.oracle()
        for fid in touched:
            for i in (0, 1):
                cands.discard((fid, i))
                if fid != eid and _reducible(orc, g.edge(fid), i):
                    cands.add((fid, i))
    return g


def comm_classes(g: GraphOfGroups, horizon: int | None = None):
    """Multiset of coarse-equivalence class descriptors of vertex/edge orbits.

    Orbits are grouped by carrying their classes along class-preserving walks
    of at most `horizon` rounds of `explore` (default twice the edge count)
    and comparing at common vertices: each distinct base placement is walked
    once, and the orbits based there join the orbits based at every placement
    it reaches.  Descriptors are chosen to be invariant under the collapse
    order of a complete reduction: the class rank for the abelian oracle, the
    set of class labels for the table oracle.  Returned sorted, one
    descriptor per class.
    """
    orc = g.oracle()
    tokens = [("v", v.id) for v in g.vertices] + [("e", e.id) for e in g.edges]
    owners = {}  # (vertex, class) -> tokens based there
    for v in g.vertices:
        owners.setdefault((v.id, orc.top_class(v.id)), []).append(("v", v.id))
    for e in g.edges:
        for i in (0, 1):
            owners.setdefault((e.ends[i].vertex, orc.class_of(e.id, i)), []).append(("e", e.id))

    # The start placement is always reached, so its own owners join too.
    classes = UnionFind(tokens)
    if horizon is None:
        horizon = 2 * max(1, len(g.edges))
    for (vid, cls), ts in owners.items():
        for p in explore(orc, vid, cls, max_steps=horizon).placements:
            for other in owners.get((p.vertex, p.cls), ()):
                classes.union(ts[0], other)

    out = []
    for members in classes.classes().values():
        if g.oracle_mode == "abelian":
            ranks = set()
            for kind, oid in members:
                ranks.add(g.vertex(oid).rank if kind == "v" else g.edge(oid).rank)
            # Coarse equivalence preserves rank, so this set is a singleton.
            out.append(("rank", min(ranks)))
        else:
            labels = set()
            for kind, oid in members:
                if kind == "v":
                    labels.add(g.table.top[oid])
                else:
                    labels.update(end.class_label for end in g.edge(oid).ends)
            out.append(("labels", tuple(sorted(labels))))
    return sorted(out)
