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
opposite end class with no elimination.  Only a smaller span is tested, by
dot products with the end class's cached normals, inline rather than through
the cached `contains`, and it crosses by `carry`: M_eta's cached left inverse
solves M_eta X = V, and M_theta maps X over, two small matrix-vector
products per basis row of V.

Caches.  End classes, indices and left inverses are read off the edge
matrices, which cache them.  The abelian oracle is one per graph
(`GraphOfGroups.oracle`) and its caches live as long as the graph:
- `_moved` holds each class that `carry` moved, under (edge, entered end,
  class), together with the way back: W entering at the opposite end goes
  to V.  The edge map is an isomorphism between the two end classes and
  canonical forms are unique, so this is exactly what the reverse guard and
  `carry` would compute, and a walk that tries the arc back (every `explore`
  does) pays one `carry` per pair.  A direct `transport` of an end class
  also stores the opposite end class it lands on.  A refusal is never
  stored: it costs a few dot products to find again.  `_moved` is not
  bounded; it grows with the distinct crossings the graph's walks make.
- `_arcs` holds one arc table per vertex asked, one row per edge end there.
- `_finite` holds, per (edge, end) asked, whether that end has finite index.
Table transports are not cached; their arcs can be one-way.

`explore` asks its oracle for the arcs at a vertex (`arcs`) and for the
ones a class crosses (`crossings`).  The abelian oracle's arc table holds,
per incident edge end, (edge, entered end, end class, its dimension,
opposite end class), and `crossings` settles every guard from it without a
call: an end class of lower dimension, or of equal dimension and another
span, refuses the class, and an equal one hands over its opposite end
class; a larger end class refuses it unless every dot product of its
normals with the class's basis vanishes.  Only an arc the class crosses
into a larger end class, or one from another ambient space (where
`transport` raises), goes through `transport`, so a refused arc stores
nothing and asks `contains` nothing (`carry` still asks it once, on the
first crossing of an arc).  The table oracle asks `transport` on every arc.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .exactlin import RationalSubspace, _check_same_ambient, carry, contains, full_space
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
        end_cls = self.class_of(eid, entered_end)
        _check_same_ambient(end_cls, cls)
        if cls.dim < end_cls.dim:
            if any(sum(map(mul, u, row)) for u in end_cls._normals for row in cls.basis):
                return None
            ends = self.g.edge(eid).ends
            moved = self._moved[eid, entered_end, cls] = carry(
                ends[entered_end].matrix, ends[1 - entered_end].matrix, cls)
            self._moved[eid, 1 - entered_end, moved] = cls   # the way back
        elif cls == end_cls:
            moved = self._moved[eid, entered_end, cls] = self.class_of(eid, 1 - entered_end)
        return moved

    def arcs(self, vid: str):
        """The arc table of a vertex: (edge, entered end, end class, its dimension,
        opposite end class) for each incident edge end, in `ends_at` order."""
        table = self._arcs.get(vid)
        if table is None:
            table = self._arcs[vid] = [
                (e, i, end, end.dim, e.ends[1 - i].matrix.column_span())
                for (e, i) in self.g.ends_at(vid) for end in (e.ends[i].matrix.column_span(),)]
        return table

    def crossings(self, arcs, cls: RationalSubspace):
        """(edge, entered end, moved class) for each of `arcs` that cls crosses,
        in order.  The guard is settled from the arc table, so a refused arc
        costs dot products and stores nothing; an arc from another ambient
        space goes to `transport`, which raises."""
        out = []
        dim, ambient, basis = cls.dim, cls.ambient_dim, cls.basis
        for (e, i, end, end_dim, opposite) in arcs:
            if end.ambient_dim != ambient:
                self.transport(e.id, i, cls)   # raises DimensionMismatch
            elif end_dim > dim:
                if not any(sum(map(mul, u, row)) for u in end._normals for row in basis):
                    out.append((e, i, self.transport(e.id, i, cls)))
            elif end_dim == dim and end == cls:
                out.append((e, i, opposite))
        return out


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

    def crossings(self, arcs, cls: str):
        """(edge, entered end, moved class) for each of `arcs` that cls crosses, in order."""
        out = []
        for (e, i) in arcs:
            moved = self.transport(e.id, i, cls)
            if moved is not None:
                out.append((e, i, moved))
        return out


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

    Each step is one guarded `transport`, or the oracle's `crossings`
    settling it from the arc table with the same result, so every step moves
    the commensurability class by the isomorphism underlying the edge.  States
    are deduplicated on (vertex, class); `truncated` reports that a cap
    (`max_steps` rounds or MAX_STATES states) cut the search while new states
    were still appearing, in which case the result is a lower bound.  Each
    state tries the edge ends at its vertex in (edge id, end index) order.
    `edge_ids` becomes an `EdgePool` unless it is one (of this oracle), so a
    walk costs O(states x degree) and a pool's checks are paid once per pool.
    """
    if edge_ids is not None and not (type(edge_ids) is EdgePool and edge_ids.oracle is oracle):
        edge_ids = EdgePool(oracle, edge_ids)
    arcs_at = oracle.arcs if edge_ids is None else edge_ids.arcs_at

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
            for (e, i, cls2) in oracle.crossings(arcs_at(pl.vertex), pl.cls):
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
