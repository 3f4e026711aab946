"""Tree balls: Smith-form cosets, valences, crossing, chain depths, DOT."""

import random

import pytest

from conftest import RANK0_PROBE
from gogkit import (BallEdge, BallNode, LabelsNotMonotone, LinearPattern, annotate_depth, ball_chain_depths,
                    ball_crossing_check, build_ball, canonicalize, check_hypotheses, coarse_le,
                    crossing_graph, depth_filtration, explore, graph_from_dict, reducible_edges,
                    rigidity_check, slope_invariant, smith_normal_form, to_dot, validate)
from gogkit.exactlin import RatMatrix, contains
from gogkit.oracle import UnsupportedOracle
from gogkit import crossing, depth, exactlin, model, oracle, patterns, treeball
from gogkit.treeball import CosetSystem, TreeBall
from test_depth import _random_irreducible_graph


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@pytest.mark.parametrize("mat", [
    [[2]],
    [[1, 0], [0, 1]],
    [[2, 0], [0, 3]],
    [[4, 6], [2, 8]],
    [[1, 2], [3, 4], [5, 6]],
    [[0, 0], [0, 5]],
])
def test_smith_normal_form_diagonalizes(mat):
    u, d, v = smith_normal_form(mat)
    assert matmul(matmul(u, mat), v) == d
    n, m = len(mat), len(mat[0])
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(n, m))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
    assert abs(round(RatMatrix.from_rows(u).det())) == 1
    assert abs(round(RatMatrix.from_rows(v).det())) == 1


def test_coset_system_counts_by_determinant():
    sys = CosetSystem(RatMatrix.from_rows([[2, 0], [0, 3]]))
    assert sys.finite and sys.count == 6
    assert len(sys.labels()) == 6
    assert len(set(sys.labels())) == 6


def test_coset_system_infinite_enumeration_deterministic():
    sys = CosetSystem(RatMatrix.from_rows([[1], [0]]))
    assert not sys.finite
    first = sys.labels(cap=5)
    again = sys.labels(cap=5)
    assert first == again and len(first) == 5
    assert len(set(first)) == 5


def test_line_ball_seven_node_path(graph):
    ball = build_ball(graph("z2hnn"), "v", 3)
    assert len(ball.nodes) == 7
    assert len(ball.edges) == 6
    assert all(n.true_valence == 2 for n in ball.nodes.values())
    assert not any(n.truncated for n in ball.nodes.values())
    # interior nodes have exactly two neighbours
    for addr, node in ball.nodes.items():
        if node.expanded:
            neighbours = len(ball.children(addr)) + (0 if addr == () else 1)
            assert neighbours == 2


def test_line_ball_radius_four(graph):
    ball = build_ball(graph("z2hnn"), "v", 4)
    assert len(ball.nodes) == 9
    for addr, node in ball.nodes.items():
        if node.expanded:
            assert len(ball.children(addr)) + (0 if addr == () else 1) == 2


def test_bushy_root_valence_from_coset_count(graph):
    g = graph("bs22")
    ball = build_ball(g, "v", 1)
    root = ball.node(())
    assert root.true_valence == 4
    assert len(ball.children(())) == 4
    assert not root.truncated


def test_truncated_infinite_index_ball(graph):
    g = graph("f2xz")
    ball = build_ball(g, "v", 1, branch_cap=5)
    root = ball.node(())
    assert len(ball.children(())) == 10
    assert root.truncated
    assert root.true_valence is None


def test_realized_valence_matches_determinant_sum(graph):
    for name in ("z2hnn", "bs22", "arc3"):
        g = graph(name)
        orc = g.oracle()
        ball = build_ball(g, sorted(g.vertex_ids())[0], 2)
        for addr, node in ball.nodes.items():
            if not node.expanded or node.truncated:
                continue
            realized = len(ball.children(addr)) + (0 if addr == () else 1)
            expected = sum(orc.index_value(e.id, i) for (e, i) in g.ends_at(node.vertex))
            assert realized == expected == node.true_valence


def test_children_match_address_scan(graph):
    for name, vid in (("bs22", "v"), ("arc3", "u"), ("f2xz", "v")):
        ball = build_ball(graph(name), vid, 2)
        for addr in ball.nodes:
            scan = sorted(a for a in ball.nodes
                          if a[:-1] == addr and len(a) == len(addr) + 1)
            assert ball.children(addr) == scan, (name, addr)


def test_ball_built_from_its_public_fields_rebuilds_parent_ids(graph):
    for name, vid in (("arc3", "u"), ("thm14", "a"), ("f2xz", "v"), ("bs22", "v")):
        g = graph(name)
        da = depth_filtration(g)
        ball = build_ball(g, vid, 3, branch_cap=2)
        bare = TreeBall(ball.root_vertex, ball.radius, ball.branch_cap, ball.nodes, ball.edges)
        assert bare == ball and bare.parent_ids == ball.parent_ids, name
        assert ball_chain_depths(bare, g) == ball_chain_depths(ball, g), name
        labelled = annotate_depth(bare, da)
        assert labelled == annotate_depth(ball, da) and labelled.parent_ids == ball.parent_ids
        assert all(bare.children(a) == ball.children(a) for a in ball.nodes), name
        copy = ball._replace(parent_ids=None)   # a copy runs the same check
        assert type(copy) is TreeBall and copy.parent_ids == ball.parent_ids, name
    shuffled = dict(reversed(ball.nodes.items()))
    for nodes, edges in ((shuffled, ball.edges), (ball.nodes, ball.edges[:-1])):
        with pytest.raises(ValueError, match="must lead to node"):
            TreeBall(ball.root_vertex, ball.radius, ball.branch_cap, nodes, edges)
        with pytest.raises(ValueError, match="must lead to node"):
            ball._replace(nodes=nodes, edges=edges, parent_ids=None)
        with pytest.raises(ValueError, match="must lead to node"):
            ball._replace(nodes=nodes, edges=edges)     # new edges never keep the old ids
    pruned = ball._replace(nodes=dict(list(ball.nodes.items())[:-1]), edges=ball.edges[:-1])
    assert pruned.parent_ids == ball.parent_ids[:-1] and len(pruned.nodes) == len(ball.nodes) - 1


# Generated by the frozen-dataclass records; the tuple records must print the same.
ARC3_NODE_REPR = ("BallNode(address=(('e', 0, (0, 0, 0)),), vertex='v', expanded=False, "
                  "truncated=False, true_valence=None, depth_label=None)")
ARC3_EDGE_REPR = ("BallEdge(parent=(), child=(('e', 0, (0, 0, 0)),), edge='e', end_at_parent=0, "
                  "local_span=<(1,0,0),(0,1,0)> in Q^3, root_span=<(1,0,0),(0,1,0)> in Q^3, "
                  "depth_label=None)")


def test_ball_records_print_as_before(graph):
    ball = build_ball(graph("arc3"), "u", 1)
    address = (("e", 0, (0, 0, 0)),)
    node = ball.node(address)
    edge = next(e for e in ball.edges if e.child == address)
    assert repr(node) == ARC3_NODE_REPR and repr(edge) == ARC3_EDGE_REPR
    labelled = edge._replace(depth_label=2)
    assert type(labelled) is BallEdge and labelled.depth_label == 2 and edge.depth_label is None
    assert hash(node) == hash(ball.node(address)) and node != edge


def _one_of_each_record(graph):
    """Record class name -> one instance, mostly from analyses of the fixtures."""
    g = graph("arc3")
    da, report = depth_filtration(g), check_hypotheses(g)
    verdict = depth_filtration(graph("nonex")).verdict
    walk = explore(g.oracle(), "u", g.oracle().class_of("e", 0))
    ball = build_ball(g, "u", 1)
    lines = LinearPattern.of([canonicalize([r]) for r in ((1, 0), (0, 1), (1, 1), (1, 2))])
    cg = crossing_graph(g, "u", da)
    level = da.levels[0]
    return {"VertexSpec": g.vertices[0], "EdgeSpec": g.edges[0], "EdgeEnd": g.edges[0].ends[0],
            "GraphOfGroups": g, "TableData": graph("heis").table, "ValidationReport": validate(g),
            "RatMatrix": g.edges[0].ends[0].matrix, "RationalSubspace": walk.placements[0].cls,
            "Placement": walk.placements[0], "ExploreResult": walk, "DepthAssignment": da,
            "Level": level, "Raft": level.rafts[0], "Flotilla": level.flotillas[0],
            "Verdict": verdict, "WitnessStep": verdict.witness[0],
            "CrossingGraph": cg, "CrossingNode": cg.nodes[0],
            "HypothesisReport": report, "HypothesisStatus": report.entries[0],
            "LinearPattern": lines, "RigidityVerdict": rigidity_check(lines),
            "SlopeInvariant": slope_invariant(lines), "TreeBall": ball,
            "BallNode": ball.node(()), "BallEdge": ball.edges[0]}


RECORDS = ["VertexSpec", "EdgeSpec", "EdgeEnd", "GraphOfGroups", "TableData", "ValidationReport",
           "RatMatrix", "RationalSubspace", "Placement", "ExploreResult", "DepthAssignment",
           "Level", "Raft", "Flotilla", "Verdict", "WitnessStep", "CrossingGraph", "CrossingNode",
           "HypothesisReport", "HypothesisStatus", "LinearPattern", "RigidityVerdict",
           "SlopeInvariant", "TreeBall", "BallNode", "BallEdge"]
CACHES = {"GraphOfGroups": ("_index", "_oracle"), "RatMatrix": ("_span", "_left_inverse"),
          "RationalSubspace": ("_normals",), "TreeBall": ("_children",)}


def test_every_record_class_is_listed():
    found = {name for mod in (exactlin, model, oracle, depth, crossing, patterns, treeball)
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
             and obj.__module__ == mod.__name__ and not name.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_is_an_immutable_tuple(graph, name):
    record = _one_of_each_record(graph)[name]
    cls = type(record)
    assert cls.__name__ == name and tuple(record) == tuple(getattr(record, f) for f in cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    copy = record._replace()
    assert type(copy) is cls and copy == record and copy is not record
    if "__repr__" not in vars(cls):    # a RationalSubspace prints as a span
        assert repr(record) == f"{name}(" + ", ".join(
            f"{f}={getattr(record, f)!r}" for f in cls._fields) + ")"
    if name not in CACHES:
        assert not hasattr(record, "__dict__")
        return
    fresh, shown = cls._make(record), repr(record)
    cached = {attr: getattr(record, attr) for attr in CACHES[name]}
    assert vars(record) == cached and vars(fresh) == vars(copy) == {}
    assert record == fresh == copy and repr(record) == repr(fresh) == shown
    assert vars(record._replace()) == {}


def test_sibling_cosets_distinct(graph):
    ball = build_ball(graph("bs22"), "v", 2)
    for addr in ball.nodes:
        kids = ball.children(addr)
        assert len(kids) == len(set(kids))


def test_orbit_label_depends_only_on_quotient_vertex(graph):
    g = graph("arc3")
    ball = build_ball(g, "u", 3)
    for addr, node in ball.nodes.items():
        if addr:
            eid, i, _ = addr[-1]
            assert node.vertex == g.edge(eid).ends[1 - i].vertex


def test_table_oracle_unsupported(graph):
    with pytest.raises(UnsupportedOracle):
        build_ball(graph("heis"), "v", 1)


def test_bad_bounds_rejected(graph):
    with pytest.raises(ValueError):
        build_ball(graph("bs22"), "v", -1)
    with pytest.raises(ValueError):
        build_ball(graph("bs22"), "v", 1, branch_cap=0)


def test_ball_crossing_matches_quotient_criterion(graph):
    cases = [("thm14", "a"), ("f2xz", "v"), ("arc3", "u"), ("arc3", "v"), ("arc3", "w")]
    for name, vid in cases:
        g = graph(name)
        da = depth_filtration(g)
        quotient = crossing_graph(g, vid, da).verdict
        ball = build_ball(g, vid, 2, branch_cap=3)
        assert ball_crossing_check(ball, g) == quotient, (name, vid)


def test_ball_crossing_needs_radius(graph):
    ball = build_ball(graph("thm14"), "a", 0)
    with pytest.raises(ValueError):
        ball_crossing_check(ball, graph("thm14"))


def test_ball_crossing_empty_without_corank_one():
    from gogkit import GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec
    g = GraphOfGroups(
        (VertexSpec("a", 3),),
        (EdgeSpec("e", 1, (EdgeEnd("a", RatMatrix.from_rows([[1], [0], [0]])),
                           EdgeEnd("a", RatMatrix.from_rows([[0], [0], [1]])))),),
    )
    assert ball_crossing_check(build_ball(g, "a", 1), g) == "empty"


def test_annotate_homogeneous_all_zero(graph):
    g = graph("bs22")
    ball = annotate_depth(build_ball(g, "v", 2), depth_filtration(g))
    assert {n.depth_label for n in ball.nodes.values()} == {0}
    assert {e.depth_label for e in ball.edges} == {0}


def test_coarse_le_along_paths(graph):
    g = graph("arc3")
    ball = build_ball(g, "u", 3)
    root = ball.node(())
    f_edges = [e for e in ball.edges if e.edge == "f"]
    e_edges = [e for e in ball.edges if e.edge == "e"]
    assert f_edges and e_edges
    assert coarse_le(ball, g, f_edges[0], e_edges[0])
    assert not coarse_le(ball, g, e_edges[0], f_edges[0])
    assert coarse_le(ball, g, e_edges[0], root)


def test_chain_depths_match_filtration(graph):
    for name in ("arc3", "arc4", "thm14", "f2xz", "z2hnn", "bs22"):
        g = graph(name)
        da = depth_filtration(g)
        assert da.verdict.kind == "finite"
        ball = build_ball(g, sorted(g.vertex_ids())[0], 3, branch_cap=3)
        assert ball_chain_depths(ball, g) == da.depth, name


def _pairwise_chain_depths(ball, g):
    """Reference: `coarse_le` on every ordered pair of ball objects, then the
    memoised longest-strict-chain search over that N x N matrix."""
    objs = list(ball.nodes.values()) + list(ball.edges)
    le = [[coarse_le(ball, g, a, b) for b in objs] for a in objs]
    memo = {}

    def depth_of(i):
        if i not in memo:
            memo[i] = 0
            memo[i] = max((depth_of(j) + 1 for j in range(len(objs))
                           if i != j and le[i][j] and not le[j][i]), default=0)
        return memo[i]

    out = {}
    for i, obj in enumerate(objs):
        orbit = obj.vertex if isinstance(obj, BallNode) else obj.edge
        out[orbit] = max(out.get(orbit, 0), depth_of(i))
    return out


@pytest.mark.parametrize("name", ["arc3", "arc4", "thm14", "f2xz", "z2hnn", "bs22"])
def test_chain_depths_match_pairwise_coarse_le(graph, name):
    g = graph(name)
    ball = build_ball(g, sorted(g.vertex_ids())[0], 3, branch_cap=3)
    assert ball_chain_depths(ball, g) == _pairwise_chain_depths(ball, g)


@pytest.mark.parametrize("root", ["v0", "v1"])
def test_chain_depths_match_pairwise_coarse_le_on_rank0_probe(root):
    g = graph_from_dict(RANK0_PROBE)
    for radius in (2, 3):
        ball = build_ball(g, root, radius, branch_cap=2)
        assert ball_chain_depths(ball, g) == _pairwise_chain_depths(ball, g), radius


def _injective_rows(rng, rows, cols):
    for _ in range(60):
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        if cols == 0 or RatMatrix.from_rows(m).rank() == cols:
            return m
    return None


def _mixed_rank_graph(rng):
    """1-3 vertices of rank 0-3 joined by a spanning tree plus one or two extra
    edges; edges of rank 0 and loops occur, as in the ROADMAP 2a probe."""
    nv = rng.randint(1, 3)
    ranks = [rng.randint(0, 3) for _ in range(nv)]
    pairs = [(rng.randrange(k), k) for k in range(1, nv)]
    pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 2))]
    edges = []
    for k, (a, b) in enumerate(pairs):
        r = rng.randint(0, min(ranks[a], ranks[b]))
        ma, mb = _injective_rows(rng, ranks[a], r), _injective_rows(rng, ranks[b], r)
        if ma is None or mb is None:
            return None
        edges.append({"id": f"e{k}", "rank": r,
                      "ends": [{"vertex": f"v{a}", "matrix": ma}, {"vertex": f"v{b}", "matrix": mb}]})
    return graph_from_dict({"oracle": "abelian", "edges": edges,
                            "vertices": [{"id": f"v{i}", "rank": n} for i, n in enumerate(ranks)]})


def test_chain_depths_match_pairwise_coarse_le_on_random_graphs():
    rng = random.Random(4711)
    shapes = set()
    for draw in (_random_irreducible_graph, _mixed_rank_graph):
        tested = 0
        while tested < 30:
            g = draw(rng)
            if g is None:
                continue
            ball = build_ball(g, rng.choice(g.vertex_ids()), 3, branch_cap=2)
            if len(ball.nodes) > 90:
                continue
            assert ball_chain_depths(ball, g) == _pairwise_chain_depths(ball, g), \
                (draw.__name__, ball.root_vertex)
            tested += 1
            if draw is _mixed_rank_graph:
                for e in g.edges:
                    if e.rank == 0 and g.vertex(e.ends[0].vertex).rank > 0:
                        shapes.add("rank-0 edge at a vertex of positive rank")
                    if e.ends[0].vertex == e.ends[1].vertex:
                        shapes.add("loop")
    assert len(shapes) == 2, shapes


def test_annotate_depth_names_first_violation_on_rank0_probe():
    g = graph_from_dict(RANK0_PROBE)
    with pytest.raises(ValueError) as err:
        annotate_depth(build_ball(g, "v0", 3, branch_cap=2), depth_filtration(g))
    assert str(err.value) == "depth labels not monotone: e0 (depth 1) sits strictly inside e2 (depth 1)"


def test_rank0_probe_violation_is_labels_not_monotone():
    g = graph_from_dict(RANK0_PROBE)
    with pytest.raises(LabelsNotMonotone) as err:
        annotate_depth(build_ball(g, "v0", 3, branch_cap=2), depth_filtration(g))
    assert isinstance(err.value, ValueError)
    assert str(err.value) == "depth labels not monotone: e0 (depth 1) sits strictly inside e2 (depth 1)"


def _first_violation(ball, depth):
    """Reference: the message of the first violating pair in the loop over all
    ordered pairs of ball edges, or None when the labels are monotone."""
    for a in ball.edges:
        for b in ball.edges:
            if a.root_span is None or b.root_span is None:
                continue
            strict = contains(b.root_span, a.root_span) and not contains(a.root_span, b.root_span)
            if strict and depth[a.edge] <= depth[b.edge]:
                return (f"depth labels not monotone: {a.edge} (depth {depth[a.edge]}) "
                        f"sits strictly inside {b.edge} (depth {depth[b.edge]})")
    return None


def _relabelled(ball, depth):
    """Reference: the labelled ball rebuilt field by field, one record at a time."""
    nodes = {a: BallNode(n.address, n.vertex, n.expanded, n.truncated, n.true_valence,
                         depth[n.vertex]) for a, n in ball.nodes.items()}
    edges = tuple(BallEdge(e.parent, e.child, e.edge, e.end_at_parent, e.local_span,
                           e.root_span, depth[e.edge]) for e in ball.edges)
    return TreeBall(ball.root_vertex, ball.radius, ball.branch_cap, nodes, edges)


def _assert_annotate_matches_pair_loop(ball, da):
    expected = _first_violation(ball, da.depth)
    if expected is None:
        labelled = annotate_depth(ball, da)
        reference = _relabelled(ball, da.depth)
        assert labelled == reference and labelled.parent_ids == reference.parent_ids
        assert list(labelled.nodes) == list(reference.nodes)
        assert all(type(n) is BallNode for n in labelled.nodes.values())
        assert all(type(e) is BallEdge for e in labelled.edges)
    else:
        with pytest.raises(ValueError) as err:
            annotate_depth(ball, da)
        assert str(err.value) == expected
    return expected is not None


def test_annotate_depth_matches_pair_loop_on_fixtures_and_perturbed_labels(graph):
    rng = random.Random(1717)
    draws = []
    while len(draws) < 40:
        g = (_mixed_rank_graph if len(draws) % 2 else _random_irreducible_graph)(rng)
        if g is not None:
            draws.append((g, 2))
    fixed = [(graph(name), 3) for name in ("arc3", "arc4", "thm14", "f2xz", "z2hnn", "bs22")]
    outcomes = []
    for g, radius in fixed + [(graph_from_dict(RANK0_PROBE), 3)] + draws:
        if reducible_edges(g):
            continue
        da = depth_filtration(g)
        if da.verdict.kind == "infinite":
            continue
        for root in g.vertex_ids():
            ball = build_ball(g, root, radius, branch_cap=2)
            if len(ball.nodes) > 120:
                continue
            outcomes.append(_assert_annotate_matches_pair_loop(ball, da))
            for _ in range(3):
                labels = {o: max(0, d + rng.randint(-1, 1)) for o, d in da.depth.items()}
                perturbed = da._replace(depth=labels)
                outcomes.append(_assert_annotate_matches_pair_loop(ball, perturbed))
    # Both answers must occur for the comparison to mean anything.
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20, outcomes.count(True)


def test_build_ball_lists_coset_labels_at_most_twice_per_edge_end(graph, monkeypatch):
    calls = {}
    labels = CosetSystem.labels

    def counted(self, *args, **kwargs):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return labels(self, *args, **kwargs)

    monkeypatch.setattr(CosetSystem, "labels", counted)
    for name, vid in (("bs22", "v"), ("f2xz", "v"), ("thm14", "a"), ("arc4", "x")):
        calls.clear()
        ball = build_ball(graph(name), vid, 3, branch_cap=2)
        expanded = sum(n.expanded for n in ball.nodes.values())
        assert expanded > 2 and max(calls.values()) <= 2, (name, calls)


def test_build_ball_transports_each_expanded_edge_end_once(graph, monkeypatch):
    calls = []
    to_root = treeball._to_root_span
    monkeypatch.setattr(treeball, "_to_root_span",
                        lambda *args: calls.append(args) or to_root(*args))
    shared = 0
    for name, vid in (("bs22", "v"), ("f2xz", "v"), ("thm14", "a"), ("arc4", "x")):
        calls.clear()
        ball = build_ball(graph(name), vid, 3, branch_cap=2)
        ends = {(e.parent, e.edge, e.end_at_parent) for e in ball.edges}
        assert len(calls) == len(ends), name
        shared += len(ball.edges) - len(ends)
    assert shared > 0    # some (node, edge end) has several cosets


def test_annotate_depth_and_reject_mismatch(graph):
    g = graph("arc3")
    da = depth_filtration(g)
    ball = annotate_depth(build_ball(g, "u", 2), da)
    assert ball.node(()).depth_label == 0
    assert {e.depth_label for e in ball.edges} == {1, 2}
    other = graph("thm14")
    da2 = depth_filtration(other)
    with pytest.raises(ValueError, match="different graph"):
        annotate_depth(build_ball(g, "u", 1), da2)


def test_annotate_depth_rejects_infinite(graph):
    g = graph("nonex")
    da = depth_filtration(g)
    with pytest.raises(ValueError, match="infinite"):
        annotate_depth(build_ball(graph("arc3"), "u", 1), da)


def test_dot_single_node(graph):
    ball = build_ball(graph("z2hnn"), "v", 0)
    dot = to_dot(ball)
    assert dot.startswith("graph {")
    assert '"root:v"' in dot
    assert " -- " not in dot


def test_dot_line_ball_counts(graph):
    dot = to_dot(build_ball(graph("z2hnn"), "v", 3))
    assert dot.count(";") == 13          # 7 nodes + 6 edges
    assert dot.count(" -- ") == 6


def test_dot_truncation_attribute(graph):
    dot = to_dot(build_ball(graph("f2xz"), "v", 1))
    assert "truncated=true" in dot


def test_dot_deterministic(graph):
    g = graph("arc3")
    assert to_dot(build_ball(g, "u", 2)) == to_dot(build_ball(g, "u", 2))
