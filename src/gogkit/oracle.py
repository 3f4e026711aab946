"""Commensurability oracles and transport of classes across edges.

An oracle answers coarse-containment questions about the commensurability
classes sitting at the vertices of a graph of groups: the class of each
edge-end image, the class of the vertex group itself, a preorder comparing
classes at a common vertex (conjugates included, which for abelian groups
degenerates to plain span comparison), and transport of a class across an
edge to the opposite vertex.

Transport is guarded: a class crosses an edge only when it sits below the
class of the end it enters, and the step returns None otherwise.  Through
an edge entered at end eta with opposite end theta, a span V inside the
entered end class goes to image(M_theta, preimage(M_eta, V)), which moves the
commensurability class itself (an isomorphism is acting underneath).  Each
oracle lists the arcs at a vertex (`arcs`), one per incident edge end in
`ends_at` order, and takes one guarded step across an arc (`step`); every
walk in the package crosses edges through it, and `transport(eid, end, cls)`
is that step on one arc.

The abelian guard, in `AbelianOracle.step` only, looks at dimensions first.
Edge maps are injective, so a span at least as large as the entered end
class crosses only when it is that class, and then lands on the opposite
end class with no elimination.  Only a smaller span is tested, by
`exactlin._inside` (dot products with the end class's cached normals), and
it crosses by `carry`: M_eta's cached left inverse solves M_eta X = V, and
M_theta maps X over, two small matrix-vector products per basis row of V.
A refused arc costs a few dot products, stores nothing and asks the
`contains` cache nothing.

Caches.  End classes, indices and left inverses are read off the edge
matrices, which cache them.  The abelian oracle is one per graph
(`GraphOfGroups.oracle`) and its caches live as long as the graph:
- `_moved` holds each class that `carry` moved, under (edge, entered end,
  class), together with the way back: W entering at the opposite end goes
  to V.  The edge map is an isomorphism between the two end classes and
  canonical forms are unique, so this is exactly what the reverse guard and
  `carry` would compute, and a walk that tries the arc back (every `explore`
  does) pays one `carry` per pair.  It holds carries only: an end class and
  a refusal cost a comparison or a few dot products to find again.  `_moved`
  is not bounded; it grows with the distinct crossings the graph's walks make.
- `_arcs` holds one arc table per vertex asked: (edge, entered end, end
  class) per edge end there, so a walk's step makes no id lookup.
- `_finite` holds, per (edge, end) asked, whether that end has finite index.
Table transports are not cached; their arcs can be one-way.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactlin import RationalSubspace, _check_same_ambient, _inside, carry, contains, full_space
from .model import INFINITE, GraphOfGroups


class UnsupportedOracle(ValueError):
    """The requested analysis is not available for this oracle mode."""


class AbelianOracle:
    """Classes are rational spans at a vertex, compared by span inclusion."""

    def __init__(self, g: GraphOfGroups):
        self.g = g
        self._moved = {}
        self._arcs = {}
        self._finite = {}   # (edge id, end) -> whether that end has finite index

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
        flag = self._finite.get((eid, end))
        if flag is None:
            e = self.g.edge(eid)
            flag = self._finite[eid, end] = e.rank == self.g.vertex(e.ends[end].vertex).rank
        return flag

    def index_value(self, eid: str, end: int) -> int:
        if not self.finite_index_end(eid, end):
            raise ValueError(f"edge {eid} end {end} has infinite index image")
        return abs(int(self.g.edge(eid).ends[end].matrix.det()))

    def transport(self, eid: str, entered_end: int, cls: RationalSubspace):
        """cls carried across the edge, or None when it is not below the entered end class."""
        moved = self._moved.get((eid, entered_end, cls))
        if moved is not None:
            return moved
        e = self.g.edge(eid)
        return self.step((e, entered_end, e.ends[entered_end].matrix.column_span()), cls)

    def arcs(self, vid: str):
        """The arc table of a vertex: (edge, entered end, end class) for each
        incident edge end, in `ends_at` order."""
        table = self._arcs.get(vid)
        if table is None:
            table = self._arcs[vid] = [(e, i, e.ends[i].matrix.column_span())
                                       for (e, i) in self.g.ends_at(vid)]
        return table

    def step(self, arc, cls: RationalSubspace):
        """The class cls crosses `arc` to, or None when it is not below the
        arc's end class; the one abelian guard (see the module docstring)."""
        e, i, end = arc
        if end.ambient_dim != cls.ambient_dim:
            _check_same_ambient(end, cls)   # raises DimensionMismatch
        if len(cls.basis) >= len(end.basis):
            return e.ends[1 - i].matrix.column_span() if cls == end else None
        if not _inside(end, cls):
            return None
        moved = self._moved.get((e.id, i, cls))
        if moved is None:
            moved = self._moved[e.id, i, cls] = carry(e.ends[i].matrix, e.ends[1 - i].matrix, cls)
            self._moved[e.id, 1 - i, moved] = cls   # the way back
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

    def arcs(self, vid: str):
        """The (edge, entered end) pairs at a vertex, in `ends_at` order."""
        return self.g.ends_at(vid)

    def step(self, arc, cls: str):
        """`transport` across the arc (edge, entered end)."""
        return self.transport(arc[0].id, arc[1], cls)


class Placement(NamedTuple):
    """A class seen at a vertex, with the transport path that produced it."""

    vertex: str
    cls: object
    path: tuple  # of (edge id, entered end index)


class ExploreResult(NamedTuple):
    placements: tuple[Placement, ...]
    truncated: bool


MAX_STATES = 20000   # distinct (vertex, class) states one `explore` may hold


class EdgePool(frozenset):
    """Edge ids a walk may cross, checked against the graph once, and each
    vertex's arcs among them, filtered once for every `explore` given it."""

    def __new__(cls, oracle, edge_ids):
        pool = super().__new__(cls, edge_ids)
        index = oracle.g.edge_index
        if not index.keys() >= pool:
            oracle.g.edge(next(eid for eid in edge_ids if eid not in index))   # raises UnknownId
        pool.oracle, pool.arcs = oracle, {}
        return pool

    def arcs_at(self, vid):
        """The oracle's arcs at `vid` whose edge is in the pool, in order."""
        arcs = self.arcs.get(vid)
        if arcs is None:
            arcs = self.arcs[vid] = [a for a in self.oracle.arcs(vid) if a[0].id in self]
        return arcs


def explore(oracle, start_vertex, start_cls, *, edge_ids=None,
            max_steps=None) -> ExploreResult:
    """All placements reachable from (vertex, class) by class-preserving walks.

    Each step is the oracle's one guarded `step` across an arc, so every step
    moves the commensurability class by the isomorphism underlying the edge.
    States are deduplicated on (vertex, class); `truncated` reports that a cap
    (`max_steps` rounds or MAX_STATES states) cut the search while new states
    were still appearing, in which case the result is a lower bound.  Each
    state tries the edge ends at its vertex in (edge id, end index) order.
    `edge_ids` becomes an `EdgePool` unless it is one (of this oracle), so a
    walk costs O(states x degree) and a pool's checks are paid once per pool.
    """
    if edge_ids is not None and not (type(edge_ids) is EdgePool and edge_ids.oracle is oracle):
        edge_ids = EdgePool(oracle, edge_ids)
    arcs_at = oracle.arcs if edge_ids is None else edge_ids.arcs_at
    step = oracle.step

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
            for arc in arcs_at(pl.vertex):
                cls2 = step(arc, pl.cls)
                if cls2 is None:
                    continue
                e, i = arc[0], arc[1]
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
