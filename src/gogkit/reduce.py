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
other edge, and whether it is reducible, carries over unchanged.  So does
the incidence index: `collapse` finds the edges to rebuild through
`ends_at`, and hands the graph it returns a copy of its input's index in
which only the kept vertex, the far ends of the re-attached edges, the
absorbed vertex and the collapsed edge change.  A step thus copies three
dicts rather than sorting and indexing every edge again; it still builds
the new edge tuple in one pass.  In table mode the `indices` and
`transport` tables are copied and patched at the re-attached edges only.
"""

from __future__ import annotations

from .model import (INFINITE, EdgeEnd, EdgeSpec, GraphOfGroups, TableData, UnknownId,
                    seed_index)
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

    Only the edges with an end at the absorbed vertex are rebuilt, and the
    returned graph gets a patched copy of `g`'s index rather than a new one.
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

    def moved_end(fe):
        if fe.vertex != gone:
            return fe
        if g.oracle_mode == "abelian":
            return EdgeEnd(kept, matrix=through.mul(fe.matrix))
        return EdgeEnd(kept, class_label=orc.transport(eid, end, fe.class_label))

    at_gone = {id(f): f for f, _ in g.ends_at(gone) if f.id != eid}
    moved = {k: EdgeSpec(f.id, f.rank, tuple(map(moved_end, f.ends)))
             for k, f in at_gone.items()}   # id() of an old edge -> its re-attached copy

    table = None
    if g.oracle_mode == "table":
        t = g.table
        cross = orc.index_value(eid, 1 - end)   # index of the absorbed group in kept
        emap_in = t.transport[eid][end]          # gone -> kept
        emap_out = t.transport[eid][1 - end]     # kept -> gone
        indices, transport = dict(t.indices), dict(t.transport)
        del indices[eid], transport[eid]
        for f in at_gone.values():
            idx, maps = list(t.indices[f.id]), list(t.transport[f.id])
            for i in (0, 1):
                if f.ends[i].vertex == gone:
                    idx[i] = INFINITE if idx[i] == INFINITE else idx[i] * cross
                    # Entering at the re-attached end now starts at `kept`:
                    # hop back across e first, then use the old map.
                    maps[i] = {lab: maps[i][v] for lab, v in emap_out.items() if v in maps[i]}
                if f.ends[1 - i].vertex == gone:
                    # The far side has moved to `kept`: land there via e.
                    maps[i] = {lab: emap_in[v] for lab, v in maps[i].items() if v in emap_in}
            indices[f.id], transport[f.id] = tuple(idx), tuple(maps)

        def drop(d):
            return {v: x for v, x in d.items() if v != gone}

        table = TableData(drop(t.labels), drop(t.top), drop(t.order), transport, indices,
                          drop(t.pd_flags))

    out = GraphOfGroups(
        tuple(v for v in g.vertices if v.id != gone),
        tuple(moved.get(id(f), f) for f in g.edges if f.id != eid),
        g.oracle_mode,
        table,
    )
    return _carry_index(g, out, eid, gone, kept, moved)


def _carry_index(g, out, eid, gone, kept, moved):
    """`out` with `g`'s index patched for the collapse of `eid` into `kept`.

    Only `kept` and the far ends of the moved edges change end lists; `gone`
    and `eid` drop out.  Duplicate ids or a dangling `kept` or `gone` leave
    `out` to build its own index.
    """
    vertices, edges, ends = g._index
    if (len(vertices) != len(g.vertices) or len(edges) != len(g.edges)
            or gone not in vertices or kept not in vertices):
        return out
    vertices, edges, ends = dict(vertices), dict(edges), dict(ends)
    del vertices[gone], edges[eid]
    old_kept, old_gone = ends[kept], ends.pop(gone)
    for f in moved.values():
        edges[f.id] = f

    def swap(pairs):
        return [(moved.get(id(f), f), i) for f, i in pairs]

    for v in {fe.vertex for f in moved.values() for fe in f.ends} - {kept}:
        ends[v] = swap(ends[v])
    ends[kept] = sorted(swap(p for p in old_kept + old_gone if p[0].id != eid),
                        key=lambda p: (p[0].id, p[1]))
    return seed_index(out, (vertices, edges, ends))


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
    and comparing at common vertices: the orbits based at a walk's start
    join the orbits based at every placement it reaches.  In table mode each
    distinct base placement is walked once, since table arcs can be one-way.
    Abelian transport is invertible, so there a walk that ends untruncated
    has covered its whole orbit, whose owners it has joined; a later start
    inside that orbit is skipped, which makes one walk per abelian orbit.
    Descriptors are chosen to be invariant under the collapse order of a
    complete reduction: the class rank for the abelian oracle, the set of
    class labels for the table oracle.  Returned sorted, one descriptor per
    class.
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
    done = set()   # abelian states inside an orbit an untruncated walk covered
    for (vid, cls), ts in owners.items():
        if (vid, cls) in done:
            continue
        walk = explore(orc, vid, cls, max_steps=horizon)
        for p in walk.placements:
            for other in owners.get((p.vertex, p.cls), ()):
                classes.union(ts[0], other)
        if g.oracle_mode == "abelian" and not walk.truncated:
            done.update((p.vertex, p.cls) for p in walk.placements)

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
