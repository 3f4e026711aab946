"""Depth filtration of a graph of groups: rafts, flotillas, and verdicts.

Vertex and edge spaces of the Bass-Serre tree are partially ordered by
coarse inclusion; the depth of an orbit is the longest strictly increasing
chain above it.  Depth-zero rafts are the components on which every internal
edge inclusion has finite index.  Higher depths are computed by the staged
oracle algorithm: collapse the current flotillas to fat vertices, defer every
incident edge whose class is strictly below another incident class, and give
the survivors (and the positive-depth vertices coarsely equivalent to them)
the next depth.  Each level files every edge end under the (vertex, class)
placements its flotilla walk meets, compares the distinct classes at each
vertex, and groups survivors filed under one class or equivalent classes
into rafts with the level's one union-find.  Each flotilla's walks share one
`EdgePool`, so a level costs its walks plus its pool sizes, not their product;
the flotillas grow in one union-find kept across levels.  In abelian mode the
classes at a vertex are filed by dimension and a span is tested only against
larger ones; table mode compares each pair of classes once.  A level makes at most
MAX_COMPARISONS comparisons: past that, the remaining pairs count as not
compared, the level goes on, and the verdict becomes Unknown.  A raft holds the
previous level's `Flotilla` records it absorbs, not copies of their members.
Level 0's flotillas are its rafts' cores: each depth-zero raft is one
component of the depth-0 subgraph, and the rafts come in least-vertex order.

A graph of finitely generated abelian groups never gets an Infinite verdict:
a strict coarse inclusion of abelian subgroups drops rank, so chains are
bounded.  Table-mode graphs can be Infinite (an edge class strictly inside a
translate of itself); abelian transport keeps dimension, so the scan for such
a self-comparison runs for the table oracle only.  Either mode can come back
Unknown when a bounded transport walk (in abelian mode, a flotilla reach walk)
was cut while new classes were still appearing, or when a level ran out of
comparisons.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .exactlin import _inside
from .oracle import EdgePool, explore
from .reduce import reducible_edges
from .unionfind import UnionFind


class MustReduceFirst(ValueError):
    """Depth needs an irreducible graph; collapse reducible edges first.
    `edges` holds the refusing scan's sorted reducible (edge id, end) pairs."""

    def __init__(self, msg, edges=()):
        super().__init__(msg)
        self.edges = edges


class WrongRaftLevel(ValueError):
    pass


class Flotilla(NamedTuple):
    level: int
    members: tuple[str, ...]


class Raft(NamedTuple):
    level: int
    core: tuple[str, ...]            # sorted orbits whose depth equals the level
    absorbed: tuple[Flotilla, ...]   # the previous level's flotillas it absorbs, in index order
    kind: str | None = None          # point | line | bushy, level 0 only

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.core).union(*(f.members for f in self.absorbed))))


class Level(NamedTuple):
    level: int
    rafts: tuple[Raft, ...]
    flotillas: tuple[Flotilla, ...]


class WitnessStep(NamedTuple):
    orbit: str
    cls: str
    strict: bool          # strictly contains the previous step's class
    via: tuple = ()       # transport path (edge id, entered end) pairs


class Verdict(NamedTuple):
    kind: str                                # finite | infinite | unknown
    depth: int | None = None
    witness: tuple[WitnessStep, ...] = ()
    horizon: int | None = None

    def render(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.depth})"
        if self.kind == "infinite":
            return "Infinite"
        return f"Unknown({self.horizon})"


class DepthAssignment(NamedTuple):
    depth: dict
    verdict: Verdict
    levels: tuple[Level, ...]


def _ff_edges(g, orc):
    """Edges whose inclusions have finite index at both ends."""
    return [e for e in g.edges
            if orc.finite_index_end(e.id, 0) and orc.finite_index_end(e.id, 1)]


def _components(uf, edges):
    """(vertex ids, edge ids) of each class of `uf`, a union-find of vertex ids,
    once joined along `edges` (joins made before stay), by least vertex id."""
    for e in edges:
        uf.union(e.ends[0].vertex, e.ends[1].vertex)
    comps = {root: (list(members), []) for root, members in uf.classes().items()}
    for e in edges:
        comps[uf.find(e.ends[0].vertex)][1].append(e.id)
    return [comps[root] for root in sorted(comps)]


def depth_zero_rafts(g) -> list[Raft]:
    """Maximal subgraphs whose internal edge inclusions all have finite index.

    A component of the finite-index-both-ends subgraph qualifies unless one
    of its vertices has a finite-index incident end from an edge outside it;
    such vertices are coarsely equivalent to an edge space that sits strictly
    inside somewhere else, so they have positive depth and no raft.  Each raft
    carries its `raft_kind`.
    """
    orc = g.oracle()
    ff = _ff_edges(g, orc)
    ff_ids = {e.id for e in ff}
    deeper = {e.ends[i].vertex for e in g.edges if e.id not in ff_ids
              for i in (0, 1) if orc.finite_index_end(e.id, i)}   # found once, not per component
    rafts = []
    for vids, eids in _components(UnionFind(v.id for v in g.vertices), ff):
        if deeper.isdisjoint(vids):
            raft = Raft(0, tuple(sorted(vids + eids)), ())
            rafts.append(raft._replace(kind=raft_kind(g, raft)))
    return rafts


def raft_kind(g, raft: Raft) -> str:
    """Point / line / bushy trichotomy of a depth-zero raft.

    The Bass-Serre valence of a raft vertex is the sum of the coset counts of
    the incident raft edge ends; a raft with edges is a line exactly when
    every valence is 2, and irreducibility rules valence 1 out.
    """
    if raft.level != 0:
        raise WrongRaftLevel("kind is defined for depth-zero rafts only")
    orc = g.oracle()
    members, edges = set(raft.core), g.edge_index
    if not any(m in edges for m in raft.core):
        return "point"
    for vid in (m for m in raft.core if m not in edges):
        if sum(orc.index_value(e.id, i) for (e, i) in g.ends_at(vid) if e.id in members) != 2:
            return "bushy"
    return "line"


def _self_strict_scan(g, orc, horizon):
    """Look for an edge class strictly comparable to a translate of itself.

    Returns (witness steps or None, truncated flag).  Such a hit certifies an
    infinite strictly increasing chain of edge spaces.
    """
    truncated = False
    for e in sorted(g.edges, key=lambda e: e.id):
        base = [(e.ends[i].vertex, orc.class_of(e.id, i)) for i in (0, 1)]
        for (vid, cls) in base:
            res = explore(orc, vid, cls, max_steps=horizon)
            truncated = truncated or res.truncated
            for pl in res.placements:
                for (bv, bcls) in base:
                    if pl.vertex != bv:
                        continue
                    for lo, hi in ((pl.cls, bcls), (bcls, pl.cls)):
                        if orc.strictly_less(bv, lo, hi):
                            return (WitnessStep(e.id, str(lo), False, pl.path),
                                    WitnessStep(e.id, str(hi), True)), truncated
    return None, truncated


def _no_raft_witness(g, orc):
    """Ascend through strictly increasing vertex classes until an orbit repeats."""
    ff_ids = {e.id for e in _ff_edges(g, orc)}
    steps, seen = [], []
    vid = min(v.id for v in g.vertices)
    while vid not in seen:
        seen.append(vid)
        steps.append(WitnessStep(vid, str(orc.top_class(vid)), True))
        hop = None
        frontier, visited = [vid], {vid}
        while frontier and hop is None:
            x = frontier.pop(0)
            for (e, i) in g.ends_at(x):
                if e.id not in ff_ids and orc.finite_index_end(e.id, i):
                    hop = e.ends[1 - i].vertex
                    break
                if e.id in ff_ids:
                    other = e.ends[1 - i].vertex
                    if other not in visited:
                        visited.add(other)
                        frontier.append(other)
        assert hop is not None
        vid = hop
    steps.append(WitnessStep(vid, str(orc.top_class(vid)), True))
    return tuple(steps)


MAX_COMPARISONS = 10 ** 6   # class comparisons one level may make


def _compare_classes(orc, buckets, counts=None):
    """Compare distinct classes at each vertex, bar pairs one item alone reaches.

    `buckets` maps a vertex to {class: [(edge id, end) items reaching it]}.
    An item under a strictly lower class is deferred by any other item under
    the higher one, the other end of its own edge included.  Returns `below`
    (edge id -> lower class, higher class, dominating edge id, first found)
    and the item groups to join: each bucket, and each equivalent pair.
    A level makes at most MAX_COMPARISONS comparisons; the pairs left after
    that count as not compared.  `counts`, when given, receives the number
    made ("comparisons") and whether pairs were left ("cut").
    """
    below, joins = {}, []
    left = MAX_COMPARISONS
    compare = _compare_spans if orc.g.oracle_mode == "abelian" else _compare_labels
    for z, by_cls in buckets.items():
        joins += [items for items in by_cls.values() if len(items) > 1]
        if left >= 0 and len(by_cls) > 1:    # one class at z: nothing to compare
            left = compare(orc, z, by_cls, below, joins, left)
    if counts is not None:
        counts["comparisons"], counts["cut"] = MAX_COMPARISONS - max(left, 0), left < 0
    return below, joins


def _defer(below, by_cls, lo, hi):
    """Defer each item under class lo by another item under the higher class hi."""
    for x in by_cls[lo]:
        y = next((y for y in by_cls[hi] if y != x), None)
        if y is not None:
            below.setdefault(x[0], (lo, hi, y[0]))


def _compare_labels(orc, z, by_cls, below, joins, left):
    """Compare each pair of distinct classes at z once, through the oracle's
    preorder; returns the budget left, or -1 when pairs were left over."""
    groups = {}    # classes one item alone reaches can neither defer nor join each other
    for c, items in by_cls.items():
        groups.setdefault(items[0] if len(items) == 1 else (c,), []).append(c)
    for lo, hi in (p for g, h in combinations(groups.values(), 2) for p in product(g, h)):
        if not left:
            return -1
        left -= 1
        if orc.strictly_less(z, hi, lo):
            lo, hi = hi, lo
        elif not orc.strictly_less(z, lo, hi):
            if orc.equivalent(z, lo, hi):
                joins.append(by_cls[lo] + by_cls[hi])
            continue
        _defer(below, by_cls, lo, hi)
    return left


def _compare_spans(orc, z, by_cls, below, joins, left):
    """Test each span at z against the larger ones, largest first, by the
    larger span's cached normals, until every item under it is deferred;
    returns the budget left, or -1.  Distinct spans of one dimension are
    never comparable, and no item reaches two spans of different dimension,
    since transport keeps dimension.  Only a deferral changes whether every
    item under a span is deferred, so that is tested again only after one."""
    by_dim = {}
    for c in by_cls:
        by_dim.setdefault(c.dim, []).append(c)
    dims = sorted(by_dim, reverse=True)
    for k in range(1, len(dims)):    # none at one dimension
        higher = [hi for d in dims[:k] for hi in by_dim[d]]
        for lo in by_dim[dims[k]]:
            items = by_cls[lo]
            done = all(x[0] in below for x in items)
            for hi in higher:
                if done:
                    break
                if not left:
                    return -1
                left -= 1
                if _inside(hi, lo):
                    _defer(below, by_cls, lo, hi)
                    done = all(x[0] in below for x in items)
    return left


def _refuse_reducible(g):
    """Depth, and with it every raft, is defined on irreducible graphs only."""
    red = reducible_edges(g)
    if red:
        raise MustReduceFirst("graph has reducible edges; apply complete_reduce first", red)


def depth_filtration(g, horizon: int | None = None) -> DepthAssignment:
    """Assign a depth to every vertex and edge orbit of an irreducible graph.

    `horizon` bounds every transport walk, in rounds of `explore`; the
    default is twice the edge count.
    """
    _refuse_reducible(g)
    orc = g.oracle()
    if horizon is None:
        horizon = 2 * max(1, len(g.edges))
    truncated = False
    # Abelian transport keeps dimension and a strict inclusion drops it, so
    # no abelian edge class is strictly comparable to a translate of itself.
    if g.oracle_mode == "table":
        hit, truncated = _self_strict_scan(g, orc, horizon)
        if hit is not None:
            return DepthAssignment({}, Verdict("infinite", witness=hit, horizon=horizon), ())

    rafts0 = depth_zero_rafts(g)
    if not rafts0:
        return DepthAssignment(
            {}, Verdict("infinite", witness=_no_raft_witness(g, orc), horizon=horizon), ())

    depth = {m: 0 for r in rafts0 for m in r.core}
    flotillas = [Flotilla(0, r.core) for r in rafts0]    # each raft is one depth-0 component
    levels = [Level(0, tuple(rafts0), tuple(flotillas))]
    edges = sorted(g.edges, key=lambda e: e.id)
    end_classes = {e.id: (orc.class_of(e.id, 0), orc.class_of(e.id, 1)) for e in edges}
    comps = UnionFind(v.id for v in g.vertices)   # joined along assigned edges, level by level

    n = 0
    while True:
        unassigned = [e for e in edges if e.id not in depth]
        if not unassigned:
            break
        n += 1

        flot_of = {m: fi for fi, fl in enumerate(flotillas) for m in fl.members}
        # One pool per flotilla with edges, which every walk from that flotilla reuses.
        pools = [EdgePool(orc, eids) if eids else None for eids in (
            [m for m in fl.members if m in g.edge_index] for fl in flotillas)]

        # One item per unassigned edge end, filed under every (vertex, class)
        # placement its walk through its quotient node meets.
        buckets = {}    # vertex -> {class: [items]}, in explore order
        for e in unassigned:
            for i in (0, 1):
                x, cls = e.ends[i].vertex, end_classes[e.id][i]
                pool = pools[flot_of[x]] if x in flot_of else None
                spots = ((x, cls, ()),)    # no edge to cross: the start placement alone
                if pool:
                    res = explore(orc, x, cls, edge_ids=pool, max_steps=horizon)
                    truncated, spots = truncated or res.truncated, res.placements
                for z, c, _ in spots:
                    buckets.setdefault(z, {}).setdefault(c, []).append((e.id, i))

        counts = {}
        below, joins = _compare_classes(orc, buckets, counts)
        truncated = truncated or counts["cut"]
        survivors = [e.id for e in g.edges if e.id not in depth and e.id not in below]
        if not survivors:
            # Every remaining edge is strictly below another: the strictness
            # pointers must close a cycle, which certifies an infinite chain.
            chain = [min(below)]
            while chain[-1] not in chain[:-1]:
                chain.append(below[chain[-1]][2])
            steps = tuple(step for eid in chain[:-1] for step in (
                WitnessStep(eid, str(below[eid][0]), False),
                WitnessStep(below[eid][2], str(below[eid][1]), True)))
            return DepthAssignment(
                dict(depth), Verdict("infinite", witness=steps, horizon=horizon),
                tuple(levels))

        for eid in survivors:
            depth[eid] = n

        # Rafts at this level: survivor classes plus their incident flotillas.
        # A vertex not yet assigned joins this level, and the raft of the
        # first survivor whose end there has finite index.
        classes = UnionFind(survivors)
        for items in joins:
            alive = [eid for (eid, _) in items if eid in classes]
            for eid in alive[1:]:
                classes.union(alive[0], eid)
        raft_groups = classes.classes()
        for v in g.vertices:
            if v.id in depth:
                continue
            for (e, i) in g.ends_at(v.id):
                if e.id in classes and orc.finite_index_end(e.id, i):
                    depth[v.id] = n
                    raft_groups[classes.find(e.id)].add(v.id)
                    break

        # Each raft absorbs the flotillas its edges end in; the others stay
        # rafts of their own with an empty core.
        new_rafts = []
        unabsorbed = set(range(len(flotillas)))
        for root in sorted(raft_groups):
            core = raft_groups[root]
            fis = {flot_of[end.vertex] for eid in core & g.edge_index.keys()
                   for end in g.edge(eid).ends if end.vertex in flot_of}
            unabsorbed -= fis
            new_rafts.append(Raft(n, tuple(sorted(core)),
                                  tuple(flotillas[fi] for fi in sorted(fis))))
        new_rafts += [Raft(n, (), (flotillas[fi],)) for fi in sorted(unabsorbed)]

        # Every assigned orbit has depth <= n: the level's flotillas are their components.
        flotillas = [Flotilla(n, tuple(sorted(vids + eids))) for vids, eids in _components(
            comps, [e for e in g.edges if e.id in depth]) if vids[0] in depth]
        levels.append(Level(n, tuple(new_rafts), tuple(flotillas)))

    for v in g.vertices:
        assert v.id in depth, f"vertex {v.id} left unassigned"
    d = max(depth.values())
    assert d <= len(g.edges) or d == 0
    verdict = Verdict("unknown", horizon=horizon) if truncated else Verdict("finite", depth=d)
    return DepthAssignment(dict(depth), verdict, tuple(levels))
