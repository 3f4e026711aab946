"""Depth filtration, rafts, and the point/line/bushy trichotomy."""

import pytest

from gogkit import (GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec, depth_filtration,
                    depth_zero_rafts, raft_kind, reducible_edges, validate)
from gogkit.depth import MustReduceFirst, Raft, WrongRaftLevel
from gogkit.exactlin import RatMatrix

from conftest import NO_RAFT_TABLE, _random_irreducible_graph, _star_graph, flag_graph


def members(raft):
    return set(raft.core)


def test_worked_example_three_point_rafts(graph):
    g = graph("arc3")
    rafts = depth_zero_rafts(g)
    assert [members(r) for r in rafts] == [{"u"}, {"v"}, {"w"}]
    assert [raft_kind(g, r) for r in rafts] == ["point"] * 3


def test_identity_loop_raft_contains_the_loop():
    g = GraphOfGroups(
        (VertexSpec("v", 2),),
        (EdgeSpec("t", 2, (EdgeEnd("v", RatMatrix.identity(2)),
                           EdgeEnd("v", RatMatrix.identity(2)))),),
    )
    assert validate(g).ok
    (raft,) = depth_zero_rafts(g)
    assert members(raft) == {"v", "t"}


def test_infinite_index_loop_left_out_of_raft(graph):
    g = graph("f2xz")
    (raft,) = depth_zero_rafts(g)
    assert members(raft) == {"v"}


def test_raft_kinds(graph):
    g = graph("z2hnn")
    (raft,) = depth_zero_rafts(g)
    assert raft_kind(g, raft) == "line"
    g = graph("bs22")
    (raft,) = depth_zero_rafts(g)
    assert raft_kind(g, raft) == "bushy"


def test_raft_kind_rejects_positive_level(graph):
    g = graph("z2hnn")
    with pytest.raises(WrongRaftLevel):
        raft_kind(g, Raft(1, ("v",), ()))


def test_worked_example_filtration(graph):
    g = graph("arc3")
    da = depth_filtration(g)
    assert da.verdict.kind == "finite" and da.verdict.depth == 2
    assert da.depth == {"u": 0, "v": 0, "w": 0, "e": 1, "f": 2}
    level1 = {r.members for r in da.levels[1].rafts}
    assert ("e", "u", "v") in level1
    (raft2,) = da.levels[2].rafts
    assert raft2.members == ("e", "f", "u", "v", "w")
    assert raft2.core == ("f",)


def test_homogeneous_graph_depth_zero(graph):
    for name in ("z2hnn", "bs22"):
        da = depth_filtration(graph(name))
        assert da.verdict.kind == "finite" and da.verdict.depth == 0
        assert set(da.depth.values()) == {0}


def test_nonexample_infinite_with_strict_witness(graph):
    da = depth_filtration(graph("nonex"))
    assert da.verdict.kind == "infinite"
    assert da.verdict.witness
    assert any(step.strict for step in da.verdict.witness)
    assert all(step.orbit == "e" for step in da.verdict.witness)


def test_reducible_input_rejected(graph):
    with pytest.raises(MustReduceFirst):
        depth_filtration(graph("heis"))


def test_unbounded_transport_family_gives_unknown(graph):
    g = graph("shear_unknown")
    da = depth_filtration(g)
    assert da.verdict.kind == "unknown"
    assert da.verdict.horizon == 4
    # labels are still produced, only the certificate is withheld
    assert da.depth == {"v": 0, "s": 0, "e": 1, "w": 1}


def test_edge_depth_dominates_endpoints(graph):
    for name in ("arc3", "thm14", "f2xz", "z2hnn", "bs22"):
        g = graph(name)
        da = depth_filtration(g)
        for e in g.edges:
            for end in e.ends:
                assert da.depth[e.id] >= da.depth[end.vertex]
        if da.verdict.kind == "finite":
            assert da.verdict.depth == max(da.depth.values())
            assert da.verdict.depth <= max(1, len(g.edges))


def test_depth_constant_on_raft_cores(graph):
    da = depth_filtration(graph("arc3"))
    for level in da.levels:
        for raft in level.rafts:
            for orbit in raft.core:
                assert da.depth[orbit] == level.level


def test_rafts_are_disjoint_and_cover_ff_edges(graph):
    for name in ("arc3", "thm14", "f2xz", "z2hnn", "bs22"):
        g = graph(name)
        rafts = depth_zero_rafts(g)
        seen = set()
        for r in rafts:
            assert not (members(r) & seen)
            seen |= members(r)
        orc = g.oracle()
        for e in g.edges:
            if orc.finite_index_end(e.id, 0) and orc.finite_index_end(e.id, 1):
                assert sum(e.id in members(r) for r in rafts) == 1


def test_filtration_matches_ball_chains_on_random_graphs():
    """Filtration depths equal exhaustive tree-level chain depths.

    Ball chains are genuine strict chains, so they can never exceed the
    filtration's label; taking the max over all roots realizes the witnesses
    for graphs this small, giving exact agreement.
    """
    import random

    from gogkit import ball_chain_depths, build_ball

    rng = random.Random(90125)
    tested = 0
    while tested < 40:
        g = _random_irreducible_graph(rng)
        if g is None:
            continue
        da = depth_filtration(g)
        if da.verdict.kind != "finite":
            continue
        best = {}
        usable = False
        for root in g.vertex_ids():
            ball = build_ball(g, root, 3, branch_cap=2)
            if len(ball.nodes) > 90:
                continue
            usable = True
            for orbit, d in ball_chain_depths(ball, g).items():
                assert d <= da.depth[orbit], (orbit, d, da.depth)
                best[orbit] = max(best.get(orbit, 0), d)
        if not usable:
            continue
        tested += 1
        assert best == da.depth, (da.depth, best)


def test_no_depth_zero_rafts_is_infinite():
    from gogkit import graph_from_dict, validate
    g = graph_from_dict(NO_RAFT_TABLE)
    assert validate(g).ok, validate(g).violations
    assert depth_zero_rafts(g) == []
    # a long horizon finds the strict transport cycle directly
    da = depth_filtration(g)
    assert da.verdict.kind == "infinite"
    assert all(s.orbit.startswith("e") for s in da.verdict.witness)
    # a horizon too short for the cycle still concludes from the empty rafts,
    # ascending through strictly increasing vertex classes instead
    da = depth_filtration(g, horizon=1)
    assert da.verdict.kind == "infinite"
    assert any(s.strict for s in da.verdict.witness)
    assert [s.orbit for s in da.verdict.witness] == ["v", "w", "x", "v"]


def test_depth_three_chain(graph):
    g = graph("arc4")
    da = depth_filtration(g)
    assert da.verdict.kind == "finite" and da.verdict.depth == 3
    assert da.depth == {"x": 0, "y": 0, "z": 0, "w": 0, "g": 1, "e": 2, "f": 3}
    assert ("g", "x", "y") in {r.members for r in da.levels[1].rafts}
    assert ("e", "g", "x", "y", "z") in {r.members for r in da.levels[2].rafts}
    (top,) = da.levels[3].rafts
    assert top.members == ("e", "f", "g", "w", "x", "y", "z")


def test_parallel_equivalent_edges_share_a_raft():
    span_u = [[1, 0], [0, 1], [0, 0]]
    g = GraphOfGroups(
        (VertexSpec("u", 3), VertexSpec("v", 3)),
        (EdgeSpec("e1", 2, (EdgeEnd("u", RatMatrix.from_rows(span_u)),
                            EdgeEnd("v", RatMatrix.from_rows(span_u)))),
         EdgeSpec("e2", 2, (EdgeEnd("u", RatMatrix.from_rows(span_u)),
                            EdgeEnd("v", RatMatrix.from_rows(span_u)))),),
    )
    assert validate(g).ok
    da = depth_filtration(g)
    assert da.depth == {"u": 0, "v": 0, "e1": 1, "e2": 1}
    (raft,) = da.levels[1].rafts
    assert raft.core == ("e1", "e2")
    assert raft.members == ("e1", "e2", "u", "v")


def test_equivalence_found_through_flotilla_transport(graph):
    # a second rank-1 edge hangs off the far side of the depth-1 flotilla;
    # its class matches the first one only after transport through the raft
    base = graph("arc3")
    extra_vertex = VertexSpec("w2", 2)
    extra = EdgeSpec("f2", 1, (EdgeEnd("u", RatMatrix.from_rows([[1], [0], [0]])),
                               EdgeEnd("w2", RatMatrix.from_rows([[1], [0]]))))
    g = GraphOfGroups(base.vertices + (extra_vertex,), base.edges + (extra,))
    assert validate(g).ok
    da = depth_filtration(g)
    assert da.depth["f"] == da.depth["f2"] == 2
    (raft,) = da.levels[2].rafts
    assert raft.core == ("f", "f2")


def test_deeper_vertex_backfills_through_shared_vertex():
    # A positive-depth vertex whose two incident edges are strictly ordered:
    # the smaller edge has to wait for the stage after its dominator.
    g = GraphOfGroups(
        (VertexSpec("z", 3), VertexSpec("x", 2)),
        (EdgeSpec("g", 2, (EdgeEnd("x", RatMatrix.from_rows([[2, 0], [0, 2]])),
                           EdgeEnd("z", RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])))),
         EdgeSpec("h", 1, (EdgeEnd("x", RatMatrix.from_rows([[1], [0]])),
                           EdgeEnd("x", RatMatrix.from_rows([[1], [0]])))),),
    )
    assert validate(g).ok
    da = depth_filtration(g)
    assert da.verdict.kind == "finite"
    assert da.depth == {"z": 0, "g": 1, "x": 1, "h": 2}


def _level_items(g, da):
    """(vertex, class, flotilla edge pool) of each item the level loop builds, in order."""
    orc = g.oracle()
    edge_ids = set(g.edge_ids())
    out = []
    for n, level in enumerate(da.levels, start=1):
        unassigned = [e for e in sorted(g.edges, key=lambda e: e.id)
                      if da.depth.get(e.id, n) >= n]
        if not unassigned:
            break
        for e in unassigned:
            for i in (0, 1):
                x = e.ends[i].vertex
                pool = next((sorted(m for m in fl.members if m in edge_ids)
                             for fl in level.flotillas if x in fl.members), [])
                out.append((x, orc.class_of(e.id, i), pool))
    return out


def test_empty_flotilla_pools_skip_explore(graph, monkeypatch):
    """Only items with flotilla edges are explored; the rest are their own reach.

    Each skipped walk would have returned the start placement alone,
    untruncated, so the assignment is the one that exploring every item gives.
    """
    import random

    import gogkit.depth as depth_module
    from gogkit import graph_from_dict
    from gogkit.oracle import ExploreResult, Placement, explore

    graphs = [graph(name) for name in ("arc3", "arc4", "thm14", "f2xz", "bs22", "z2hnn",
                                       "nonex", "shear_unknown")]
    graphs.append(graph_from_dict(NO_RAFT_TABLE))
    rng = random.Random(3317)
    while len(graphs) < 40:
        g = _random_irreducible_graph(rng)
        if g is not None:
            graphs.append(g)

    calls = []
    monkeypatch.setattr(depth_module, "explore",
                        lambda orc, vid, cls, **kw: calls.append((vid, cls, kw))
                        or explore(orc, vid, cls, **kw))
    skipped = 0
    for g in graphs:
        calls.clear()
        da = depth_filtration(g)
        horizon = 2 * max(1, len(g.edges))
        items = _level_items(g, da)
        assert [(vid, cls, sorted(kw["edge_ids"])) for vid, cls, kw in calls
                if "edge_ids" in kw] == [item for item in items if item[2]]
        for x, cls, pool in items:
            if not pool:
                skipped += 1
                assert explore(g.oracle(), x, cls, edge_ids=pool, max_steps=horizon) == \
                    ExploreResult((Placement(x, cls, ()),), False)
    assert skipped


def _rank3_graph(rng, n_edges):
    """Irreducible: rank-3 vertices on a random spanning tree plus extra edges,
    about one in five a loop, each of rank 1 or 2 with random injective maps."""
    from gogkit import graph_from_dict

    nv = n_edges // 2
    pairs = [(rng.randrange(i), i) for i in range(1, nv)]
    while len(pairs) < n_edges:
        a = rng.randrange(nv)
        pairs.append((a, a if rng.random() < 0.2 else rng.randrange(nv)))

    def injective(r):
        while True:
            m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
            if RatMatrix.from_rows(m).rank() == r:
                return m

    edges = []
    for k, (a, b) in enumerate(pairs):
        r = rng.randint(1, 2)
        edges.append({"id": f"e{k}", "rank": r, "ends": [
            {"vertex": f"v{a}", "matrix": injective(r)}, {"vertex": f"v{b}", "matrix": injective(r)}]})
    return graph_from_dict({"oracle": "abelian", "edges": edges,
                            "vertices": [{"id": f"v{i}", "rank": 3} for i in range(nv)]})


def test_each_level_builds_one_edge_pool_per_flotilla(monkeypatch):
    """A level checks each flotilla's edge ids against the edge index, and
    filters its arcs, once, however many walks start in it: one `EdgePool` per
    flotilla with edges, in flotilla order, and every walk from a flotilla is
    handed that flotilla's pool.  So a level copies each edge id at most once."""
    import random

    import gogkit.depth as depth_module
    from gogkit.oracle import EdgePool, explore

    g = _rank3_graph(random.Random(3), 512)
    events, real_compare = [], depth_module._compare_classes

    def build(orc, ids):
        events.append(("pool", EdgePool(orc, ids)))
        return events[-1][1]

    def walk(orc, vid, cls, **kw):
        events.append(("walk", kw["edge_ids"]))
        return explore(orc, vid, cls, **kw)

    def compare(*args, **kw):    # once per level, after its walks
        events.append(("level", None))
        return real_compare(*args, **kw)

    monkeypatch.setattr(depth_module, "EdgePool", build)
    monkeypatch.setattr(depth_module, "explore", walk)
    monkeypatch.setattr(depth_module, "_compare_classes", compare)
    da = depth_filtration(g)
    assert da.verdict.kind == "finite"

    per_level, current = [], []
    for kind, pool in events:
        if kind == "level":
            per_level.append(current)
            current = []
        else:
            current.append((kind, pool))
    assert current == [] and len(per_level) == len(da.levels) - 1
    big_level, edge_ids = False, set(g.edge_ids())
    for level, happened in zip(da.levels, per_level):    # the walks of the next level
        pools = [pool for kind, pool in happened if kind == "pool"]
        walks = [pool for kind, pool in happened if kind == "walk"]
        assert [sorted(pool) for pool in pools] == [
            edges for edges in ([m for m in f.members if m in edge_ids]
                                for f in level.flotillas) if edges]
        assert sum(map(len, pools)) <= len(g.edges)
        assert all(any(w is pool for pool in pools) for w in walks)
        big_level = big_level or (len(walks) > 4 * len(pools) and max(map(len, pools)) > 100)
    assert big_level    # many walks through a pool of many edges ran


def test_abelian_filtration_runs_no_self_strict_scan(graph, monkeypatch):
    """Abelian transport keeps dimension, so only flotilla reach walks run.

    The table oracle keeps the unrestricted scan: it finds nonex's witness.
    """
    import random

    import gogkit.depth as depth_module
    from gogkit.oracle import explore

    graphs = [graph(name) for name in ("arc3", "arc4", "thm14", "f2xz", "bs22", "z2hnn",
                                       "shear_unknown")]
    rng = random.Random(3317)
    while len(graphs) < 40:
        g = _random_irreducible_graph(rng)
        if g is not None:
            graphs.append(g)

    unrestricted = []

    def counting(orc, vid, cls, **kw):
        if "edge_ids" not in kw:
            unrestricted.append(vid)
        return explore(orc, vid, cls, **kw)

    monkeypatch.setattr(depth_module, "explore", counting)
    for g in graphs:
        assert g.oracle_mode == "abelian"
        depth_filtration(g)
    assert unrestricted == []

    da = depth_filtration(graph("nonex"))
    assert da.verdict.kind == "infinite"
    assert unrestricted


def test_no_raft_witness_crosses_a_finite_index_edge():
    """The ascent walks v -> w over f, finite index at both ends, to leave by e1."""
    from gogkit import graph_from_dict, validate
    labels = {v: {"labels": [f"T{v}", f"C{v}"], "top": f"T{v}"} for v in "vwx"}
    doc = {
        "oracle": "table",
        "vertices": [{"id": v, "rank": 3} for v in "vwx"],
        "edges": [
            {"id": "f", "rank": 3, "ends": [
                {"vertex": "v", "class": "Tv"}, {"vertex": "w", "class": "Tw"}]},
            {"id": "e1", "rank": 3, "ends": [
                {"vertex": "w", "class": "Tw"}, {"vertex": "x", "class": "Cx"}]},
            {"id": "e2", "rank": 3, "ends": [
                {"vertex": "x", "class": "Tx"}, {"vertex": "v", "class": "Cv"}]},
        ],
        "classes": labels,
        "order": {v: [[f"C{v}", f"T{v}"]] for v in "vwx"},
        "transport": {
            "f": [{"Tv": "Tw", "Cv": "Cw"}, {"Tw": "Tv", "Cw": "Cv"}],
            "e1": [{"Tw": "Cx", "Cw": "Cx"}, {"Cx": "Tw"}],
            "e2": [{"Tx": "Cv", "Cx": "Cv"}, {"Cv": "Tx"}],
        },
        "indices": {"f": [2, 2], "e1": [2, "inf"], "e2": [2, "inf"]},
    }
    g = graph_from_dict(doc)
    assert validate(g).ok, validate(g).violations
    assert depth_zero_rafts(g) == []
    da = depth_filtration(g, 1)
    assert da.verdict.kind == "infinite"
    assert [(s.orbit, s.cls) for s in da.verdict.witness] == [
        ("v", "Tv"), ("x", "Tx"), ("v", "Tv")]


def _pair_loop_reference(orc, nodes, reach):
    """The level comparison before class buckets, kept verbatim: every item pair."""
    from itertools import combinations
    below = {}     # edge id -> (a class it reaches, dominating edge id)
    equiv_pairs = set()
    for members in nodes.values():
        for a, b in combinations(members, 2):
            spots_a = reach[a]
            for z, cbs in reach[b].items():
                for cb in cbs:
                    for ca in spots_a.get(z, ()):
                        if orc.strictly_less(z, ca, cb):
                            below.setdefault(a[0], (ca, b[0]))
                        elif orc.strictly_less(z, cb, ca):
                            below.setdefault(b[0], (cb, a[0]))
                        elif orc.equivalent(z, ca, cb):
                            equiv_pairs.add((a[0], b[0]))
    return below, equiv_pairs


def _partition(survivors, pairs):
    from gogkit.unionfind import UnionFind
    uf = UnionFind(survivors)
    for group in pairs:
        alive = [eid for eid in group if eid in uf]
        for eid in alive[1:]:
            uf.union(alive[0], eid)
    return sorted(sorted(c) for c in uf.classes().values())


def _random_level(rng, classes_at):
    """Quotient nodes and item reaches for one level, drawn at random.

    Each node owns its vertices, as a flotilla does.  Both ends of an edge
    may land in one node, and an item may reach several classes, comparable
    ones included, at one vertex.
    """
    node_vertices = [[f"n{k}v{j}" for j in range(rng.randint(1, 3))]
                     for k in range(rng.randint(1, 3))]
    nodes, reach = {}, {}
    for j in range(rng.randint(1, 6)):
        for i in (0, 1):
            item, k = (f"e{j}", i), rng.randrange(len(node_vertices))
            spots = {}
            for _ in range(rng.randint(1, 4)):
                z = rng.choice(node_vertices[k])
                cls = rng.choice(classes_at(z))
                if cls not in spots.get(z, ()):
                    spots.setdefault(z, []).append(cls)
            nodes.setdefault(k, []).append(item)
            reach[item] = spots
    return nodes, reach


def _abelian_draws(rng):
    from gogkit.exactlin import zero_space
    from gogkit.oracle import AbelianOracle
    pool = [zero_space(3)]
    for _ in range(5):
        cols = rng.randint(1, 3)
        pool.append(RatMatrix.from_rows(
            [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(3)]).column_span())
    g = GraphOfGroups((VertexSpec("v", 3),), ())
    return AbelianOracle(g), lambda z: pool


def _table_draws(rng):
    """Labels under a random preorder at each vertex, cycles (equivalent labels) included."""
    from gogkit.model import TableData
    from gogkit.oracle import TableOracle
    labels = [f"c{k}" for k in range(5)]
    order = {}
    for z in (f"n{k}v{j}" for k in range(3) for j in range(3)):
        rel = {(a, b) for a in labels for b in labels if a != b and rng.random() < 0.2}
        while True:
            more = {(a, d) for (a, b) in rel for (c, d) in rel if b == c and a != d} - rel
            if not more:
                break
            rel |= more
        order[z] = tuple(sorted(rel))
    g = GraphOfGroups((VertexSpec("v", 1),), (), "table",
                      TableData({}, {}, order, {}, {}, {}))
    return TableOracle(g), lambda z: labels


@pytest.mark.parametrize("draws", [_abelian_draws, _table_draws], ids=["abelian", "table"])
def test_class_buckets_match_the_item_pair_loop(draws):
    """Per-class comparison defers the same edges and joins the same survivors."""
    import random

    from gogkit.depth import _compare_classes

    rng = random.Random(3601)
    deferred = 0
    for _ in range(300):
        orc, classes_at = draws(rng)
        nodes, reach = _random_level(rng, classes_at)
        buckets = {}
        for item in sorted(reach):
            for z, clss in reach[item].items():
                for cls in clss:
                    buckets.setdefault(z, {}).setdefault(cls, []).append(item)
        below, joins = _compare_classes(orc, buckets)
        ref_below, equiv_pairs = _pair_loop_reference(orc, nodes, reach)
        assert set(below) == set(ref_below)
        survivors = sorted({eid for (eid, _) in reach} - set(below))
        assert _partition(survivors, [[eid for (eid, _) in items] for items in joins]) == \
            _partition(survivors, equiv_pairs)
        for eid, (lo, hi, dom) in below.items():
            assert any(orc.strictly_less(z, lo, hi) and lo in by_cls and hi in by_cls
                       and (eid, i) in by_cls[lo]
                       and any(y != (eid, i) and y[0] == dom for y in by_cls[hi])
                       for z, by_cls in buckets.items() for i in (0, 1))
        deferred += len(below)
    assert deferred


# e0 is a loop at v1 whose two end classes are incomparable there; walked
# across e1 they land on v0c2 and v0c1 < v0c2, so e0 is strictly below itself
# and only the level loop (not the self-comparison scan) sees it.
SELF_BELOW_LOOP = {
    "oracle": "table",
    "vertices": [{"id": "v0", "rank": 2}, {"id": "v1", "rank": 2}],
    "edges": [
        {"id": "e0", "rank": 1, "ends": [{"vertex": "v1", "class": "v1c0"},
                                         {"vertex": "v1", "class": "v1c1"}]},
        {"id": "e1", "rank": 2, "ends": [{"vertex": "v0", "class": "v0T"},
                                         {"vertex": "v1", "class": "v1T"}]},
    ],
    "classes": {"v0": {"labels": ["v0T", "v0c1", "v0c2"], "top": "v0T"},
                "v1": {"labels": ["v1T", "v1c0", "v1c1"], "top": "v1T"}},
    "order": {"v0": [["v0c1", "v0c2"], ["v0c2", "v0T"], ["v0c1", "v0T"]],
              "v1": [["v1c0", "v1T"], ["v1c1", "v1T"]]},
    "transport": {
        "e0": [{"v1c0": "v1c1"}, {"v1c1": "v1c0"}],
        "e1": [{"v0T": "v1T", "v0c1": "v1c1", "v0c2": "v1c1"},
               {"v1T": "v0T", "v1c0": "v0c2", "v1c1": "v0c1"}],
    },
    "indices": {"e0": ["inf", "inf"], "e1": [2, 2]},
}

# Two loops a, b at v1 whose ends walk across f to two chains p1 < p2 and
# q1 < q2 at v0: a reaches p2 and q1, b reaches q2 and p1, so each is
# strictly below the other and the strictness pointers close a 2-cycle.
MUTUALLY_BELOW_LOOPS = {
    "oracle": "table",
    "vertices": [{"id": "v0", "rank": 2}, {"id": "v1", "rank": 2}],
    "edges": [
        {"id": "a", "rank": 1, "ends": [{"vertex": "v1", "class": "a0"},
                                        {"vertex": "v1", "class": "a1"}]},
        {"id": "b", "rank": 1, "ends": [{"vertex": "v1", "class": "b0"},
                                        {"vertex": "v1", "class": "b1"}]},
        {"id": "f", "rank": 2, "ends": [{"vertex": "v0", "class": "T0"},
                                        {"vertex": "v1", "class": "T1"}]},
    ],
    "classes": {"v0": {"labels": ["T0", "p1", "p2", "q1", "q2", "s"], "top": "T0"},
                "v1": {"labels": ["T1", "a0", "a1", "b0", "b1", "d"], "top": "T1"}},
    "order": {"v0": [["p1", "p2"], ["q1", "q2"]] + [[c, "T0"] for c in ("p1", "p2", "q1", "q2", "s")],
              "v1": [[c, "T1"] for c in ("a0", "a1", "b0", "b1", "d")]},
    "transport": {
        "a": [{"a0": "a1"}, {"a1": "a0"}],
        "b": [{"b0": "b1"}, {"b1": "b0"}],
        "f": [{"T0": "T1", "p1": "d", "p2": "d", "q1": "d", "q2": "d", "s": "d"},
              {"T1": "T0", "a0": "p2", "a1": "q1", "b0": "q2", "b1": "p1", "d": "s"}],
    },
    "indices": {"a": ["inf", "inf"], "b": ["inf", "inf"], "f": [2, 2]},
}


@pytest.mark.parametrize("doc, chain, lines", [
    (SELF_BELOW_LOOP, "e0:v0c1 < e0:v0c2",
     ["witness: e0 class v0c1", "witness: e0 class v0c2 (strict)"]),
    (MUTUALLY_BELOW_LOOPS, "a:q1 < b:q2, b:p1 < a:p2",
     ["witness: a class q1", "witness: b class q2 (strict)",
      "witness: b class p1", "witness: a class p2 (strict)"]),
], ids=["self", "two-cycle"])
def test_level_loop_witness_names_both_classes_of_each_link(capsys, tmp_path, doc, chain, lines):
    """Each strictness link is a lower step and a strict upper step; links join with ", "."""
    import json

    from gogkit import cli, graph_from_dict

    g = graph_from_dict(doc)
    assert validate(g).ok, validate(g).violations
    steps = depth_filtration(g).verdict.witness
    assert [s.strict for s in steps] == [False, True] * (len(steps) // 2)
    orc = g.oracle()
    for lo, hi in zip(steps[::2], steps[1::2]):
        assert any(orc.strictly_less(v, lo.cls, hi.cls) for v in g.vertex_ids())

    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["depth", str(path)]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: Infinite"
    assert [line for line in out if line.startswith("witness")] == lines
    cli.main(["check", str(path)])
    assert f"FAIL - infinite depth: {chain}\n" in capsys.readouterr().out


GRAPH_FIXTURES = ("arc3", "arc4", "bs22", "f2xz", "heis", "nonex", "shear_unknown", "thm14",
                  "z2hnn")


def _components_up_to(g, depth, n):
    """Member sets of the components of the orbits of depth <= n, by a plain search."""
    vs = {v for v in g.vertex_ids() if depth.get(v, n + 1) <= n}
    es = [e for e in g.edges if depth.get(e.id, n + 1) <= n]
    comps = []
    while vs:
        comp, todo = set(), [min(vs)]
        while todo:
            x = todo.pop()
            if x in comp:
                continue
            comp.add(x)
            for e in es:
                ends = {end.vertex for end in e.ends}
                if x in ends:
                    comp.add(e.id)
                    todo += list(ends - comp)
        vs -= comp
        comps.append(frozenset(comp))
    return comps


def test_rafts_point_at_the_flotillas_they_absorb(graph):
    """Each raft holds the previous level's own `Flotilla` records, in index order.

    Recomputed from the depths alone: every level's flotillas, the last
    level's included, are the components of the orbits of depth at most the
    level, in least-vertex order; a raft with a core absorbs the components
    of the previous level that its core edges end in, a raft with an empty
    core is one component no other raft absorbs, and `members` is the core
    together with the members of the absorbed components.
    """
    import random

    from gogkit import complete_reduce, graph_from_dict

    graphs = [graph(name) for name in GRAPH_FIXTURES]
    graphs += [graph_from_dict(NO_RAFT_TABLE), _star_graph(6)]
    rng = random.Random(1237)
    draws = 0
    while draws < 40:
        g = _random_irreducible_graph(rng)
        if g is not None:
            graphs.append(g)
            draws += 1
    absorbing = 0
    for g in graphs:
        g = complete_reduce(g) if reducible_edges(g) else g
        da = depth_filtration(g)
        edge_ids = set(g.edge_ids())
        assert all(r.absorbed == () for r in (da.levels[0].rafts if da.levels else ()))
        comps_at = {}
        for level in da.levels:    # the last level's flotillas too, level 0's on depth-0 graphs
            comps_at[level.level] = comps = _components_up_to(g, da.depth, level.level)
            assert sorted(map(sorted, comps)) == sorted(list(f.members) for f in level.flotillas)
            least = [min(m for m in f.members if m not in edge_ids) for f in level.flotillas]
            assert least == sorted(least)
        for prev, level in zip(da.levels, da.levels[1:]):
            comps = comps_at[prev.level]
            cored = set()
            for raft in level.rafts:
                assert all(f in prev.flotillas for f in raft.absorbed)
                index = [prev.flotillas.index(f) for f in raft.absorbed]
                assert index == sorted(set(index))
                if raft.core:
                    ends = {end.vertex for eid in raft.core if eid in edge_ids
                            for end in g.edge(eid).ends}
                    expected = {c for c in comps if c & ends}
                    cored |= expected
                else:
                    assert len(raft.absorbed) == 1
                    expected = {frozenset(raft.absorbed[0].members)}
                assert {frozenset(f.members) for f in raft.absorbed} == expected
                assert raft.members == tuple(sorted(set(raft.core).union(*expected)))
                absorbing += bool(raft.absorbed)
            empty = {frozenset(r.absorbed[0].members) for r in level.rafts if not r.core}
            assert empty == set(comps) - cored
    assert absorbing >= 30


@pytest.mark.parametrize("name, needed", [("arc3", 1), ("arc4", 2)])
def test_comparison_budget_cuts_a_level_to_unknown(graph, monkeypatch, name, needed):
    """A level that runs out of comparisons leaves the rest uncompared and goes on:
    every orbit still gets a depth, and the verdict is Unknown at the horizon.
    A budget the level exactly spends cuts nothing."""
    from gogkit import depth

    g = graph(name)
    full = depth_filtration(g)
    assert full.verdict.kind == "finite"
    monkeypatch.setattr(depth, "MAX_COMPARISONS", needed)
    assert depth_filtration(g) == full
    monkeypatch.setattr(depth, "MAX_COMPARISONS", needed - 1)
    cut = depth_filtration(g)
    assert cut.verdict.render() == f"Unknown({2 * len(g.edges)})"
    assert set(cut.depth) == set(full.depth)
    assert max(cut.depth.values()) < max(full.depth.values())


def test_comparison_budget_cuts_the_table_pair_loop(monkeypatch):
    """With no comparison allowed, the two loops that are each strictly below
    the other are not compared, so no infinite chain is found and both get depth 1."""
    from gogkit import depth, graph_from_dict

    g = graph_from_dict(MUTUALLY_BELOW_LOOPS)
    assert depth_filtration(g).verdict.kind == "infinite"
    monkeypatch.setattr(depth, "MAX_COMPARISONS", 0)
    cut = depth_filtration(g)
    assert cut.verdict.render() == "Unknown(6)"
    assert cut.depth == {"f": 0, "v0": 0, "v1": 0, "a": 1, "b": 1}


def test_each_level_reports_its_comparison_count(graph, monkeypatch):
    """`_compare_classes` reports the comparisons a level made, and no cut under the budget."""
    from gogkit import depth

    seen = []
    compare = depth._compare_classes

    def counted(orc, buckets, counts=None):
        out = compare(orc, buckets, counts)
        seen.append(dict(counts))
        return out

    monkeypatch.setattr(depth, "_compare_classes", counted)
    depth_filtration(graph("arc4"))
    assert seen == [{"comparisons": 2, "cut": False}, {"comparisons": 1, "cut": False},
                    {"comparisons": 0, "cut": False}]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("n_edges", [16, 24, 48])
def test_finite_flag_graphs_have_their_planted_depth(n, n_edges):
    """Coordinate flags with finite orbits: the chain F_1 < ... < F_{n-1} of end
    classes gives Finite(n - 1) on valid, irreducible draws with every rank."""
    import random

    for seed in range(3):
        g = flag_graph(random.Random(seed), n_edges, n, True)
        assert validate(g).ok and not reducible_edges(g)
        assert {e.rank for e in g.edges} == set(range(1, n))
        assert depth_filtration(g).verdict.render() == f"Finite({n - 1})"


def test_infinite_flag_graph_stays_unknown_and_small():
    """Coordinate flags with infinite orbits, E = 8: line walks are cut at the
    horizon, so the verdict is Unknown, and the walks store a few hundred
    transports (larger draws store hundreds of thousands; ROADMAP item 21)."""
    import random

    g = flag_graph(random.Random(3), 8, 3, False)
    assert validate(g).ok and not reducible_edges(g)
    assert depth_filtration(g).verdict.render() == "Unknown(16)"
    assert len(g.oracle()._moved) < 1000
