"""Edge reduction of graphs of groups and reduction-invariant fingerprints.

An edge with distinct endpoints whose injection at one end is surjective can
be collapsed without changing the fundamental group: the surjective end's
vertex is absorbed into the opposite one and every other edge formerly
attached there is re-attached through the composed injection.  Iterating
until no such edge remains gives an irreducible graph.  The end result is
not unique, but the multiset of commensurability classes of vertex and edge
groups is; `comm_classes` computes that fingerprint.
"""

from __future__ import annotations

from dataclasses import replace

from .exactlin import RatMatrix
from .model import INFINITE, EdgeEnd, EdgeSpec, GraphOfGroups, TableData
from .oracle import explore
from .unionfind import UnionFind


class NotReducible(ValueError):
    pass


def reducible_edges(g: GraphOfGroups):
    """All (edge id, end index) with distinct endpoints and a surjective injection.

    Surjective means index one: for the abelian oracle a square injection
    matrix with determinant +-1.  Loops are never listed.
    """
    orc = g.oracle()
    out = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.is_loop():
            continue
        for i in (0, 1):
            if orc.finite_index_end(e.id, i) and orc.index_value(e.id, i) == 1:
                out.append((e.id, i))
    return out


def _compose_abelian(e: EdgeSpec, surj_end: int, other_matrix: RatMatrix) -> RatMatrix:
    # phi_theta . phi_eta^{-1} . phi_other, all integer since phi_eta is unimodular.
    m_eta = e.ends[surj_end].matrix
    m_theta = e.ends[1 - surj_end].matrix
    return m_theta.mul(m_eta.inverse()).mul(other_matrix)


def collapse(g: GraphOfGroups, eid: str, end: int) -> GraphOfGroups:
    """Collapse along a reducible edge; the surjective end's vertex disappears."""
    if (eid, end) not in reducible_edges(g):
        raise NotReducible(f"edge {eid} end {end} is not reducible")
    e = g.edge(eid)
    gone = e.ends[end].vertex          # absorbed vertex
    kept = e.ends[1 - end].vertex      # carries the merged group
    orc = g.oracle()

    new_edges = []
    for f in g.edges:
        if f.id == eid:
            continue
        ends = []
        for i, fe in enumerate(f.ends):
            if fe.vertex != gone:
                ends.append(fe)
            elif g.oracle_mode == "abelian":
                ends.append(EdgeEnd(kept, matrix=_compose_abelian(e, end, fe.matrix)))
            else:
                moved = orc.transport(eid, end, fe.class_label)
                ends.append(EdgeEnd(kept, class_label=moved))
        new_edges.append(replace(f, ends=(ends[0], ends[1])))

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
            idx = []
            maps = []
            for i, fe in enumerate(f.ends):
                iv = t.indices[f.id][i]
                mp = dict(t.transport[f.id][i])
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


def _pick(policy, candidates):
    if callable(policy):
        return policy(candidates)
    if policy == "lex":
        return min(candidates)
    if policy == "revlex":
        return max(candidates)
    raise ValueError(f"unknown edge-selection policy {policy!r}")


def complete_reduce(g: GraphOfGroups, order="lex") -> GraphOfGroups:
    """Collapse reducible edges until none remain.

    The edge count strictly decreases, so this terminates.  `order` picks the
    next (edge id, end index): "lex" (default), "revlex", or a callable.
    """
    while True:
        cands = reducible_edges(g)
        if not cands:
            return g
        eid, end = _pick(order, cands)
        g = collapse(g, eid, end)


def comm_classes(g: GraphOfGroups, loop_bound: int = 3):
    """Multiset of coarse-equivalence class descriptors of vertex/edge orbits.

    Orbits are grouped by transporting their classes along class-preserving
    walks of bounded length (each edge budgeted `loop_bound` crossings) and
    comparing at common vertices.  Descriptors are chosen to be invariant
    under the collapse order of a complete reduction: the class rank for the
    abelian oracle, the set of class labels for the table oracle.  Returned
    sorted, one descriptor per class.
    """
    orc = g.oracle()
    tokens = [("v", v.id) for v in g.vertices] + [("e", e.id) for e in g.edges]
    base = {}  # token -> list of (vertex, class)
    for v in g.vertices:
        base[("v", v.id)] = [(v.id, orc.top_class(v.id))]
    for e in g.edges:
        base[("e", e.id)] = [(e.ends[i].vertex, orc.class_of(e.id, i)) for i in (0, 1)]

    owners = {}  # (vertex, class) -> tokens based there
    for t in tokens:
        for p in base[t]:
            owners.setdefault(p, []).append(t)

    # Two tokens share a class when either reaches a base placement of the
    # other; union is symmetric, so joining each token with the owners of
    # every placement it reaches covers both directions.
    classes = UnionFind(tokens)
    max_steps = max(1, loop_bound * max(1, len(g.edges)))
    for t in tokens:
        for (vid, cls) in base[t]:
            for p in explore(orc, vid, cls, max_steps=max_steps).placements:
                for other in owners.get((p.vertex, p.cls), ()):
                    classes.union(t, other)

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
