"""Depth filtration, rafts, and the point/line/bushy trichotomy."""

import pytest

from gogkit import (GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec, depth_filtration,
                    depth_zero_rafts, raft_kind, reducible_edges, validate)
from gogkit.depth import MustReduceFirst, Raft, WrongRaftLevel
from gogkit.exactlin import RatMatrix

from conftest import NO_RAFT_TABLE


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


def _random_injective(rng, rows, cols):
    for _ in range(60):
        m = RatMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        if m.rank() == cols:
            return m
    return None


def _random_irreducible_graph(rng):
    nv = rng.randint(1, 3)
    ranks = [rng.randint(1, 3) for _ in range(nv)]
    vertices = tuple(VertexSpec(f"v{i}", ranks[i]) for i in range(nv))
    edges = []
    for k in range(rng.randint(1, 2)):
        if k < nv - 1:
            a, b = k, k + 1
        elif nv == 1:
            a = b = 0
        else:
            a, b = rng.randrange(nv), rng.randrange(nv)
        r = rng.randint(1, min(ranks[a], ranks[b]))
        ma = _random_injective(rng, ranks[a], r)
        mb = _random_injective(rng, ranks[b], r)
        if ma is None or mb is None:
            return None
        if a != b:
            for m, rk in ((ma, ranks[a]), (mb, ranks[b])):
                if r == rk and abs(m.det()) == 1:
                    return None   # reducible
        edges.append(EdgeSpec(f"e{k}", r,
                              (EdgeEnd(f"v{a}", ma), EdgeEnd(f"v{b}", mb))))
    if len(edges) < nv - 1:
        return None
    g = GraphOfGroups(vertices, tuple(edges))
    if not validate(g).ok or reducible_edges(g):
        return None
    return g


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
        assert [(vid, cls, kw["edge_ids"]) for vid, cls, kw in calls
                if "edge_ids" in kw] == [item for item in items if item[2]]
        for x, cls, pool in items:
            if not pool:
                skipped += 1
                assert explore(g.oracle(), x, cls, edge_ids=pool, max_steps=horizon) == \
                    ExploreResult((Placement(x, cls, ()),), False)
    assert skipped


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
