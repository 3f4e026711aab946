"""Crossing graphs and the five-hypothesis checklist."""

import json

import pytest

from gogkit import check_hypotheses, crossing_graph, depth_filtration, graph_from_dict
from gogkit.crossing import WrongVertex
from gogkit.exactlin import canonicalize, contains
from gogkit.oracle import UnsupportedOracle

from conftest import fixture_path


def test_two_spanning_hyperplanes_connected(graph):
    g = graph("thm14")
    cg = crossing_graph(g, "a", depth_filtration(g))
    assert cg.verdict == "connected"
    assert len(cg.nodes) == 2
    assert {n.span for n in cg.nodes} == {
        canonicalize([(1, 0, 0), (0, 1, 0)]), canonicalize([(0, 1, 0), (0, 0, 1)])}
    assert cg.adjacency[0][1] and cg.adjacency[1][0]
    assert cg.witness is None


def test_repeated_hyperplane_disconnected(graph):
    g = graph("f2xz")
    cg = crossing_graph(g, "v", depth_filtration(g))
    assert cg.verdict == "disconnected"
    assert len(cg.nodes) == 1
    assert cg.nodes[0].ends == (("t", 0), ("t", 1))
    assert cg.witness == canonicalize([(1, 0)])
    assert not cg.adjacency[0][0]


def test_no_corank_one_span_empty():
    from gogkit import GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec
    from gogkit.exactlin import RatMatrix
    g = GraphOfGroups(
        (VertexSpec("a", 3),),
        (EdgeSpec("e", 1, (EdgeEnd("a", RatMatrix.from_rows([[1], [0], [0]])),
                           EdgeEnd("a", RatMatrix.from_rows([[0], [0], [1]])))),),
    )
    cg = crossing_graph(g, "a", depth_filtration(g))
    assert cg.verdict == "empty"
    assert not cg.nodes


def test_witness_contains_every_incident_span(graph):
    g = graph("arc3")
    da = depth_filtration(g)
    orc = g.oracle()
    for vid in ("u", "v", "w"):
        cg = crossing_graph(g, vid, da)
        assert cg.verdict == "disconnected"
        assert cg.witness.dim == g.vertex(vid).rank - 1
        for (e, i) in g.ends_at(vid):
            assert contains(cg.witness, orc.class_of(e.id, i))


def test_wrong_vertex_rejected(graph):
    g = graph("z2hnn")   # its only raft is not a one-vertex raft
    da = depth_filtration(g)
    with pytest.raises(WrongVertex):
        crossing_graph(g, "v", da)


def test_table_oracle_unsupported(graph):
    g = graph("nonex")
    da = depth_filtration(g)
    with pytest.raises(UnsupportedOracle):
        crossing_graph(g, "v", da)


def statuses(report):
    return {e.number: e.status for e in report.entries}


def test_all_pass_instance(graph):
    report = check_hypotheses(graph("thm14"))
    assert statuses(report) == {n: "pass" for n in range(1, 6)}
    assert report.all_pass


def test_line_raft_fails_exactly_hypothesis_two(graph):
    report = check_hypotheses(graph("z2hnn"))
    assert statuses(report) == {1: "pass", 2: "fail", 3: "pass", 4: "pass", 5: "pass"}
    assert "line raft" in report.entry(2).detail


def test_disconnected_crossing_fails_exactly_hypothesis_four(graph):
    report = check_hypotheses(graph("f2xz"))
    assert statuses(report) == {1: "pass", 2: "pass", 3: "pass", 4: "fail", 5: "pass"}
    assert "disconnected at v" in report.entry(4).detail


def test_infinite_depth_fails_hypothesis_one(graph):
    report = check_hypotheses(graph("nonex"))
    assert report.entry(1).status == "fail"
    assert "infinite depth" in report.entry(1).detail


def test_reducible_input_fails_hypothesis_one_and_reduces(graph):
    report = check_hypotheses(graph("heis"))
    assert report.entry(1).status == "fail"
    assert "reducible" in report.entry(1).detail
    assert report.reduced


@pytest.mark.parametrize("declared, status, detail", [
    (False, "fail", "vertex w declared not coarse PD"),
    (None, "unknown", "no PD declaration for vertex w"),
], ids=["declared-not-pd", "undeclared"])
def test_hypothesis_three_reads_table_pd_declarations(declared, status, detail):
    doc = json.loads(fixture_path("heis").read_text())
    if declared is None:
        del doc["pd_flags"]
    else:
        for flags in doc["pd_flags"].values():
            flags["is_coarse_pd"] = declared
    report = check_hypotheses(graph_from_dict(doc))
    assert (report.entry(3).status, report.entry(3).detail) == (status, detail)


def test_unknown_propagates(graph):
    report = check_hypotheses(graph("shear_unknown"))
    assert report.entry(1).status == "unknown"
    assert not report.all_pass


def test_quotient_criterion_matches_ball_on_random_loops():
    """Span-sum connectivity agrees with the realized tree-level check."""
    import random

    from gogkit import GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec, validate
    from gogkit.exactlin import RatMatrix
    from gogkit.treeball import ball_crossing_check, build_ball

    rng = random.Random(61803)
    tested = 0
    while tested < 40:
        n = rng.randint(2, 3)
        edges = []
        for k in range(rng.randint(1, 2)):
            r = rng.randint(1, n - 1)
            ends = []
            for _ in range(2):
                for _ in range(40):
                    m = RatMatrix.from_rows(
                        [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
                    if m.rank() == r:
                        break
                else:
                    m = None
                ends.append(m)
            if None in ends:
                break
            edges.append(EdgeSpec(f"e{k}", r, (EdgeEnd("v", ends[0]),
                                               EdgeEnd("v", ends[1]))))
        else:
            g = GraphOfGroups((VertexSpec("v", n),), tuple(edges))
            if not validate(g).ok:
                continue
            da = depth_filtration(g)
            if da.verdict.kind != "finite":
                continue
            quotient = crossing_graph(g, "v", da).verdict
            ball = build_ball(g, "v", 2, branch_cap=3)
            assert ball_crossing_check(ball, g) == quotient
            tested += 1
