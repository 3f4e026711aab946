"""Commensurability oracles and transport of classes across edges.

An oracle answers coarse-containment questions about the commensurability
classes sitting at the vertices of a graph of groups: the class of each
edge-end image, the class of the vertex group itself, a preorder comparing
classes at a common vertex (conjugates included, which for abelian groups
degenerates to plain span comparison), and transport of a class across an
edge to the opposite vertex.

Transport is guarded: a class crosses an edge only when it sits below the
class of the end it enters, and `transport` returns None otherwise.  Through
an edge entered at end eta with opposite end theta, a span V inside the
entered end class goes to image(M_theta, preimage(M_eta, V)), which moves the
commensurability class itself (an isomorphism is acting underneath).  Every
walk in the package, `explore` and the tree-ball walks alike, crosses edges
through this one guarded step.

The abelian guard looks at dimensions first.  Edge maps are injective, so a
span of larger dimension than the entered end class never crosses, and one of
equal dimension crosses only when it is that class, which lands on the
opposite end class with no elimination.  Only a smaller span is tested with
`contains` (dot products with the end class's cached normals), and it
crosses by `carry`: M_eta's cached left inverse solves M_eta X = V, and M_theta
maps X over, two small matrix-vector products per basis row of V.
End classes, indices and left inverses are read off the edge matrices, which
cache them, so the abelian oracle caches only transports.  When `carry`
moves V across an edge to W, the cache also records the way back, W
entering at the opposite end goes to V: the edge map is an isomorphism
between the two end classes and canonical forms are unique, so this is
exactly what the reverse `contains` and `carry` would compute, and a walk
that tries the arc back (every `explore` does) pays one `carry` per pair.
Table transports are not cached this way; their arcs can be one-way.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactlin import RationalSubspace, carry, contains, full_space
from .model import INFINITE, GraphOfGroups


class UnsupportedOracle(ValueError):
    """The requested analysis is not available for this oracle mode."""


class AbelianOracle:
    """Classes are rational spans at a vertex, compared by span inclusion."""

    def __init__(self, g: GraphOfGroups):
        self.g = g
        self._moved = {}

    def top_class(self, vid: str) -> RationalSubspace:
        return full_space(self.g.vertex(vid).rank)

    def class_of(self, eid: str, end: int) -> RationalSubspace:
        return self.g.edge(eid).ends[end].matrix.column_span()

    def leq(self, vid: str, a: RationalSubspace, b: RationalSubspace) -> bool:
        return contains(b, a)

    def strictly_less(self, vid, a, b) -> bool:
        # a strict inclusion of subspaces drops dimension
        return a.dim < b.dim and contains(b, a)

    def equivalent(self, vid, a, b) -> bool:
        return a == b

    def finite_index_end(self, eid: str, end: int) -> bool:
        e = self.g.edge(eid)
        return e.rank == self.g.vertex(e.ends[end].vertex).rank

    def index_value(self, eid: str, end: int) -> int:
        if not self.finite_index_end(eid, end):
            raise ValueError(f"edge {eid} end {end} has infinite index image")
        return abs(int(self.g.edge(eid).ends[end].matrix.det()))

    def transport(self, eid: str, entered_end: int, cls: RationalSubspace):
        """cls carried across the edge, or None when it is not below the entered end class."""
        key = (eid, entered_end, cls)
        if key in self._moved:
            return self._moved[key]
        moved = None
        end_cls = self.class_of(eid, entered_end)
        if cls.dim < end_cls.dim or cls.ambient_dim != end_cls.ambient_dim:
            # contains raises DimensionMismatch on a class from another ambient
            if contains(end_cls, cls):
                ends = self.g.edge(eid).ends
                moved = carry(ends[entered_end].matrix, ends[1 - entered_end].matrix, cls)
                self._moved[(eid, 1 - entered_end, moved)] = cls   # the way back
        elif cls == end_cls:
            moved = self.class_of(eid, 1 - entered_end)
        self._moved[key] = moved
        return moved


class TableOracle:
    """Classes are declared labels; order, transport and indices are tables."""

    def __init__(self, g: GraphOfGroups):
        if g.table is None:
            raise UnsupportedOracle("graph carries no table data")
        self.g = g
        self.t = g.table
        self._order = {vid: set(pairs) for vid, pairs in g.table.order.items()}

    def top_class(self, vid: str) -> str:
        return self.t.top[vid]

    def class_of(self, eid: str, end: int) -> str:
        return self.g.edge(eid).ends[end].class_label

    def leq(self, vid: str, a: str, b: str) -> bool:
        return a == b or (a, b) in self._order.get(vid, ())

    def strictly_less(self, vid, a, b) -> bool:
        return self.leq(vid, a, b) and not self.leq(vid, b, a)

    def equivalent(self, vid, a, b) -> bool:
        return self.leq(vid, a, b) and self.leq(vid, b, a)

    def finite_index_end(self, eid: str, end: int) -> bool:
        return self.t.indices[eid][end] != INFINITE

    def index_value(self, eid: str, end: int) -> int:
        iv = self.t.indices[eid][end]
        if iv == INFINITE:
            raise ValueError(f"edge {eid} end {end} has infinite index image")
        return iv

    def transport(self, eid: str, entered_end: int, cls: str):
        """The table's image of cls, or None when it is not below the entered end class."""
        vid = self.g.edge(eid).ends[entered_end].vertex
        if not self.leq(vid, cls, self.class_of(eid, entered_end)):
            return None
        return self.t.transport.get(eid, ({}, {}))[entered_end].get(cls)


class Placement(NamedTuple):
    """A class seen at a vertex, with the transport path that produced it."""

    vertex: str
    cls: object
    path: tuple  # of (edge id, entered end index)


class ExploreResult(NamedTuple):
    placements: tuple[Placement, ...]
    truncated: bool


MAX_STATES = 20000   # distinct (vertex, class) states one `explore` may hold


def explore(oracle, start_vertex, start_cls, *, edge_ids=None,
            max_steps=None) -> ExploreResult:
    """All placements reachable from (vertex, class) by class-preserving walks.

    Each step is one guarded `transport`, so every step moves the
    commensurability class by the isomorphism underlying the edge.  States
    are deduplicated on (vertex, class); `truncated` reports that a cap
    (`max_steps` rounds or MAX_STATES states) cut the search while new states
    were still appearing, in which case the result is a lower bound.  Each
    state tries the edge ends at its vertex in (edge id, end index) order.
    The pool is checked against the edge index once, by one set difference.
    """
    g = oracle.g
    allowed = None if edge_ids is None else set(edge_ids)
    if allowed and allowed - g.edge_index.keys():
        g.edge(next(eid for eid in edge_ids if eid not in g.edge_index))   # raises UnknownId
    arcs = {}   # vertex -> its allowed (edge, end index) pairs, in order

    def arcs_at(vid):
        if vid not in arcs:
            arcs[vid] = [(e, i) for (e, i) in g.ends_at(vid)
                         if allowed is None or e.id in allowed]
        return arcs[vid]

    start = Placement(start_vertex, start_cls, ())
    seen = {(start_vertex, start_cls)}
    out = [start]
    frontier = [start]
    truncated = False
    steps = 0
    while frontier:
        if max_steps is not None and steps >= max_steps:
            truncated = True
            break
        steps += 1
        nxt = []
        for pl in frontier:
            for (e, i) in arcs_at(pl.vertex):
                cls2 = oracle.transport(e.id, i, pl.cls)
                if cls2 is None:
                    continue
                dest = e.ends[1 - i].vertex
                key = (dest, cls2)
                if key in seen:
                    continue
                if len(seen) >= MAX_STATES:
                    truncated = True
                    continue
                seen.add(key)
                pl2 = Placement(dest, cls2, pl.path + ((e.id, i),))
                out.append(pl2)
                nxt.append(pl2)
        frontier = nxt
    return ExploreResult(tuple(out), truncated)
