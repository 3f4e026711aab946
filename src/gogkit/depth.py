"""Depth filtration of a graph of groups: rafts, flotillas, and verdicts.

Vertex and edge spaces of the Bass-Serre tree are partially ordered by
coarse inclusion; the depth of an orbit is the longest strictly increasing
chain above it.  Depth-zero rafts are the components on which every internal
edge inclusion has finite index.  Higher depths are computed by the staged
oracle algorithm: collapse the current flotillas to fat vertices, defer every
incident edge whose class is strictly below another incident class, and give
the survivors (and the positive-depth vertices coarsely equivalent to them)
the next depth.

A graph of finitely generated abelian groups always gets a Finite verdict:
a strict coarse inclusion of abelian subgroups drops rank, so chains are
bounded.  Table-mode graphs can be Infinite (an edge class strictly inside a
translate of itself) and either mode can come back Unknown when the bounded
transport horizon was exhausted while new classes were still appearing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .oracle import explore
from .reduce import reducible_edges
from .unionfind import UnionFind


class MustReduceFirst(ValueError):
    """Depth needs an irreducible graph; collapse reducible edges first."""


class WrongRaftLevel(ValueError):
    pass


@dataclass(frozen=True)
class DepthConfig:
    loop_bound: int = 3          # transport crossings budgeted per edge
    horizon: int | None = None   # total transport steps; default 2 * #edges


@dataclass(frozen=True)
class Raft:
    level: int
    core: tuple[str, ...]        # orbits whose depth equals the level
    absorbed: tuple[str, ...]    # members of absorbed lower flotillas
    kind: str | None = None      # point | line | bushy, level 0 only

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.core) | set(self.absorbed)))


@dataclass(frozen=True)
class Flotilla:
    level: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class Level:
    level: int
    rafts: tuple[Raft, ...]
    flotillas: tuple[Flotilla, ...]


@dataclass(frozen=True)
class WitnessStep:
    orbit: str
    cls: str
    strict: bool          # strictly contained in the next step's class
    via: tuple = ()       # transport path (edge id, entered end) pairs


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class DepthAssignment:
    depth: dict
    verdict: Verdict
    levels: tuple[Level, ...]


def depth_zero_rafts(g) -> list[Raft]:
    """Maximal subgraphs whose internal edge inclusions all have finite index.

    A component of the finite-index-both-ends subgraph qualifies unless one
    of its vertices has a finite-index incident end from an edge outside it;
    such vertices are coarsely equivalent to an edge space that sits strictly
    inside somewhere else, so they have positive depth and no raft.
    """
    orc = g.oracle()
    ff = [e for e in g.edges
          if orc.finite_index_end(e.id, 0) and orc.finite_index_end(e.id, 1)]
    ff_ids = {e.id for e in ff}
    uf = UnionFind(v.id for v in g.vertices)
    for e in ff:
        uf.union(e.ends[0].vertex, e.ends[1].vertex)
    comps = uf.classes()

    rafts = []
    for root in sorted(comps):
        members = comps[root]
        ok = True
        for vid in members:
            for (e, i) in g.ends_at(vid):
                if e.id not in ff_ids and orc.finite_index_end(e.id, i):
                    ok = False
        if ok:
            core = sorted(members) + sorted(e.id for e in ff
                                            if e.ends[0].vertex in members)
            rafts.append(Raft(0, tuple(sorted(core)), ()))
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
    members = set(raft.core)
    edge_ids = set(g.edge_ids())
    if not members & edge_ids:
        return "point"
    for vid in raft.core:
        if vid in edge_ids:
            continue
        valence = 0
        for (e, i) in g.ends_at(vid):
            if e.id in members:
                valence += orc.index_value(e.id, i)
        if valence != 2:
            return "bushy"
    return "line"


def _flotilla_components(g, depth, level):
    """Components of the subgraph of orbits with depth <= level."""
    vs = [v.id for v in g.vertices if depth.get(v.id, None) is not None
          and depth[v.id] <= level]
    es = [e for e in g.edges if depth.get(e.id, None) is not None
          and depth[e.id] <= level]
    uf = UnionFind(vs)
    for e in es:
        uf.union(e.ends[0].vertex, e.ends[1].vertex)
    comps = uf.classes()
    for e in es:
        comps[uf.find(e.ends[0].vertex)].add(e.id)
    return [Flotilla(level, tuple(sorted(m))) for _, m in sorted(comps.items())]


def _self_strict_scan(g, orc, horizon):
    """Look for an edge class strictly comparable to a translate of itself.

    Returns (witness steps or None, truncated flag).  Such a hit certifies an
    infinite strictly increasing chain of edge spaces.
    """
    truncated = False
    for e in sorted(g.edges, key=lambda e: e.id):
        base = [(e.ends[i].vertex, orc.class_of(e.id, i), i) for i in (0, 1)]
        for (vid, cls, i) in base:
            res = explore(orc, vid, cls, max_steps=horizon)
            truncated = truncated or res.truncated
            for pl in res.placements:
                for (bv, bcls, bi) in base:
                    if pl.vertex != bv:
                        continue
                    if orc.strictly_less(bv, pl.cls, bcls):
                        lo, hi, via = pl.cls, bcls, pl.path
                    elif orc.strictly_less(bv, bcls, pl.cls):
                        lo, hi, via = bcls, pl.cls, pl.path
                    else:
                        continue
                    steps = (WitnessStep(e.id, orc.render(lo), False, via),
                             WitnessStep(e.id, orc.render(hi), True))
                    return steps, truncated
    return None, truncated


def _no_raft_witness(g, orc):
    """Ascend through strictly increasing vertex classes until an orbit repeats."""
    raftless = depth_zero_rafts(g)
    assert not raftless
    ff_ids = {e.id for e in g.edges
              if orc.finite_index_end(e.id, 0) and orc.finite_index_end(e.id, 1)}
    steps = []
    seen = []
    vid = min(v.id for v in g.vertices)
    while vid not in seen:
        seen.append(vid)
        steps.append(WitnessStep(vid, orc.render(orc.top_class(vid)), True))
        hop = None
        frontier, visited = [vid], {vid}
        while frontier and hop is None:
            x = frontier.pop(0)
            for (e, i) in sorted(g.ends_at(x), key=lambda p: (p[0].id, p[1])):
                if e.id not in ff_ids and orc.finite_index_end(e.id, i):
                    hop = (e, i)
                    break
                if e.id in ff_ids:
                    other = e.ends[1 - i].vertex
                    if other not in visited:
                        visited.add(other)
                        frontier.append(other)
        assert hop is not None
        e, i = hop
        vid = e.ends[1 - i].vertex
    steps.append(WitnessStep(vid, orc.render(orc.top_class(vid)), True))
    return tuple(steps)


def _reach(orc, item_vertex, cls, flotilla_edges, loop_bound):
    if not flotilla_edges:
        return {(item_vertex, cls)}, False
    res = explore(orc, item_vertex, cls, edge_ids=flotilla_edges,
                  max_steps=max(1, loop_bound * len(flotilla_edges)))
    return {(p.vertex, p.cls) for p in res.placements}, res.truncated


def depth_filtration(g, config: DepthConfig | None = None) -> DepthAssignment:
    """Assign a depth to every vertex and edge orbit of an irreducible graph."""
    if reducible_edges(g):
        raise MustReduceFirst("graph has reducible edges; apply complete_reduce first")
    cfg = config or DepthConfig()
    orc = g.oracle()
    horizon = cfg.horizon if cfg.horizon is not None else 2 * max(1, len(g.edges))
    truncated = False

    hit, trunc = _self_strict_scan(g, orc, horizon)
    truncated = truncated or trunc
    if hit is not None:
        return DepthAssignment({}, Verdict("infinite", witness=hit, horizon=horizon), ())

    rafts0 = depth_zero_rafts(g)
    if not rafts0:
        return DepthAssignment(
            {}, Verdict("infinite", witness=_no_raft_witness(g, orc), horizon=horizon), ())
    rafts0 = [replace(r, kind=raft_kind(g, r)) for r in rafts0]

    depth = {}
    for r in rafts0:
        for m in r.core:
            depth[m] = 0
    flotillas = _flotilla_components(g, depth, 0)
    levels = [Level(0, tuple(rafts0), tuple(flotillas))]

    all_edge_ids = set(g.edge_ids())
    n = 0
    while True:
        unassigned_edges = [e for e in g.edges if e.id not in depth]
        if not unassigned_edges:
            break
        n += 1

        flot_of = {}
        for fi, fl in enumerate(flotillas):
            for m in fl.members:
                flot_of[m] = fi
        flot_edge_ids = [sorted(m for m in fl.members if m in all_edge_ids)
                         for fl in flotillas]

        # One item per unassigned edge end, grouped by quotient node.
        nodes = {}
        items = {}
        for e in sorted(unassigned_edges, key=lambda e: e.id):
            for i in (0, 1):
                x = e.ends[i].vertex
                node = ("F", flot_of[x]) if x in flot_of else ("p", x)
                cls = orc.class_of(e.id, i)
                edge_pool = flot_edge_ids[node[1]] if node[0] == "F" else []
                reach, trunc = _reach(orc, x, cls, edge_pool, cfg.loop_bound)
                truncated = truncated or trunc
                items[(e.id, i)] = (node, cls, reach)
                nodes.setdefault(node, []).append((e.id, i))

        below = {}     # edge id -> (its class, dominating edge id, dominating class)
        equiv_pairs = set()
        for node, members in nodes.items():
            for a in members:
                for b in members:
                    if a >= b:
                        continue
                    _, _, ra = items[a]
                    _, _, rb = items[b]
                    spots_a = {}
                    for (z, c) in ra:
                        spots_a.setdefault(z, set()).add(c)
                    for (z, cb) in rb:
                        for ca in spots_a.get(z, ()):
                            if orc.strictly_less(z, ca, cb):
                                below.setdefault(a[0], (orc.render(ca), b[0], orc.render(cb)))
                            elif orc.strictly_less(z, cb, ca):
                                below.setdefault(b[0], (orc.render(cb), a[0], orc.render(ca)))
                            elif orc.equivalent(z, ca, cb):
                                equiv_pairs.add((a[0], b[0]))

        survivors = [e.id for e in unassigned_edges if e.id not in below]
        if not survivors:
            # Every remaining edge is strictly below another: the strictness
            # pointers must close a cycle, which certifies an infinite chain.
            chain = [min(below)]
            while True:
                nxt = below[chain[-1]][1]
                if nxt in chain:
                    chain.append(nxt)
                    break
                chain.append(nxt)
            steps = tuple(
                WitnessStep(eid, below[eid][0] if eid in below else "", True)
                for eid in chain)
            return DepthAssignment(
                dict(depth), Verdict("infinite", witness=steps, horizon=horizon),
                tuple(levels))

        for eid in survivors:
            depth[eid] = n
        newly_vertices = []
        for v in g.vertices:
            if v.id in depth:
                continue
            for (e, i) in g.ends_at(v.id):
                if e.id in depth and depth[e.id] == n and orc.finite_index_end(e.id, i):
                    depth[v.id] = n
                    newly_vertices.append(v.id)
                    break

        # Rafts at this level: survivor classes plus their incident flotillas.
        classes = UnionFind(survivors)
        for (a, b) in equiv_pairs:
            if a in classes and b in classes:
                classes.union(a, b)
        raft_groups = classes.classes()
        for vid in newly_vertices:
            for (e, i) in g.ends_at(vid):
                if e.id in classes and orc.finite_index_end(e.id, i):
                    raft_groups[classes.find(e.id)].add(vid)
                    break

        new_rafts = []
        absorbed_flotillas = set()
        for root in sorted(raft_groups):
            core = raft_groups[root]
            absorbed = set()
            for eid in sorted(core & all_edge_ids):
                e = g.edge(eid)
                for end in e.ends:
                    if end.vertex in flot_of:
                        fi = flot_of[end.vertex]
                        absorbed.update(flotillas[fi].members)
                        absorbed_flotillas.add(fi)
            new_rafts.append(Raft(n, tuple(sorted(core)), tuple(sorted(absorbed))))
        for fi, fl in enumerate(flotillas):
            if fi not in absorbed_flotillas:
                new_rafts.append(Raft(n, (), fl.members))

        flotillas = _flotilla_components(g, depth, n)
        levels.append(Level(n, tuple(new_rafts), tuple(flotillas)))

    for v in g.vertices:
        assert v.id in depth, f"vertex {v.id} left unassigned"
    d = max(depth.values())
    assert d <= len(g.edges) or d == 0
    if truncated:
        verdict = Verdict("unknown", horizon=horizon)
    else:
        verdict = Verdict("finite", depth=d)
    return DepthAssignment(dict(depth), verdict, tuple(levels))
