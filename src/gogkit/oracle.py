"""Commensurability oracles and transport of classes across edges.

An oracle answers coarse-containment questions about the commensurability
classes sitting at the vertices of a graph of groups: the class of each
edge-end image, the class of the vertex group itself, a preorder comparing
classes at a common vertex (conjugates included, which for abelian groups
degenerates to plain span comparison), and transport of a class across an
edge to the opposite vertex.

Transport through an edge entered at end eta with opposite end theta sends a
span V to image(M_theta, preimage(M_eta, V)).  When V lies inside the end
class this moves the commensurability class itself (an isomorphism is acting
underneath); otherwise it is the pushforward of the coarse intersection with
the edge class.  Walks that must preserve a class therefore only cross an
edge when the class sits below the entered end class; `explore` enforces
exactly that guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import RationalSubspace, contains, full_space, image, preimage
from .model import INFINITE, GraphOfGroups


class UnsupportedOracle(ValueError):
    """The requested analysis is not available for this oracle mode."""


class AbelianOracle:
    """Classes are rational spans at a vertex, compared by span inclusion."""

    mode = "abelian"

    def __init__(self, g: GraphOfGroups):
        self.g = g
        self._cls = {}
        self._moved = {}

    def top_class(self, vid: str) -> RationalSubspace:
        return full_space(self.g.vertex(vid).rank)

    def class_of(self, eid: str, end: int) -> RationalSubspace:
        key = (eid, end)
        if key not in self._cls:
            self._cls[key] = self.g.edge(eid).ends[end].matrix.column_span()
        return self._cls[key]

    def leq(self, vid: str, a: RationalSubspace, b: RationalSubspace) -> bool:
        return contains(b, a)

    def strictly_less(self, vid, a, b) -> bool:
        return contains(b, a) and not contains(a, b)

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
        key = (eid, entered_end, cls)
        if key not in self._moved:
            e = self.g.edge(eid)
            m_in = e.ends[entered_end].matrix
            m_out = e.ends[1 - entered_end].matrix
            self._moved[key] = image(m_out, preimage(m_in, cls))
        return self._moved[key]

    def render(self, cls: RationalSubspace) -> str:
        return repr(cls)


class TableOracle:
    """Classes are declared labels; order, transport and indices are tables."""

    mode = "table"

    def __init__(self, g: GraphOfGroups):
        if g.table is None:
            raise UnsupportedOracle("graph carries no table data")
        self.g = g
        self.t = g.table

    def top_class(self, vid: str) -> str:
        return self.t.top[vid]

    def class_of(self, eid: str, end: int) -> str:
        return self.g.edge(eid).ends[end].class_label

    def leq(self, vid: str, a: str, b: str) -> bool:
        return a == b or (a, b) in set(self.t.order.get(vid, ()))

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
        return self.t.transport.get(eid, ({}, {}))[entered_end].get(cls)

    def render(self, cls: str) -> str:
        return cls


@dataclass(frozen=True)
class Placement:
    """A class seen at a vertex, with the transport path that produced it."""

    vertex: str
    cls: object
    path: tuple  # of (edge id, entered end index)


@dataclass(frozen=True)
class ExploreResult:
    placements: tuple[Placement, ...]
    truncated: bool


def explore(oracle, start_vertex, start_cls, *, edge_ids=None, max_steps=None,
            max_states=20000) -> ExploreResult:
    """All placements reachable from (vertex, class) by class-preserving walks.

    A walk may cross an edge only while the carried class sits below the
    entered end class, so every step moves the commensurability class by the
    isomorphism underlying the edge.  States are deduplicated on
    (vertex, class); `truncated` reports that a cap cut the search while new
    states were still appearing, in which case the result is a lower bound.
    Each state tries the edge ends at its vertex in (edge id, end index) order.
    """
    g = oracle.g
    # g.edge raises KeyError on an id the graph does not have.
    allowed = None if edge_ids is None else {g.edge(eid).id for eid in edge_ids}
    arcs = {}   # vertex -> its allowed (edge, end index) pairs, in order

    def arcs_at(vid):
        if vid not in arcs:
            arcs[vid] = sorted(((e, i) for (e, i) in g.ends_at(vid)
                                if allowed is None or e.id in allowed),
                               key=lambda p: (p[0].id, p[1]))
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
                if not oracle.leq(pl.vertex, pl.cls, oracle.class_of(e.id, i)):
                    continue
                cls2 = oracle.transport(e.id, i, pl.cls)
                if cls2 is None:
                    continue
                dest = e.ends[1 - i].vertex
                key = (dest, cls2)
                if key in seen:
                    continue
                if len(seen) >= max_states:
                    truncated = True
                    continue
                seen.add(key)
                pl2 = Placement(dest, cls2, pl.path + ((e.id, i),))
                out.append(pl2)
                nxt.append(pl2)
        frontier = nxt
    return ExploreResult(tuple(out), truncated)
