"""Crossing graphs and the five-hypothesis checklist."""

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gogkit import (check_hypotheses, complete_reduce, crossing_graph, depth_filtration,
                    graph_from_dict, raft_kind, reducible_edges, validate)
from gogkit import exactlin
from gogkit.crossing import CrossingGraph, CrossingNode, WrongVertex
from gogkit.depth import MustReduceFirst
from gogkit.exactlin import (canonicalize, contains, full_space, kernel_vectors, subspace_sum,
                             zero_space)
from gogkit.oracle import UnsupportedOracle

from conftest import _mixed_rank_graph, fixture_path


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


def _old_crossing_graph(g, vid):
    """The crossing graph by the fold-and-scan rule: the verdict from the sum of
    every incident span, and each adjacency entry from its own scan."""
    n = g.vertex(vid).rank
    orc = g.oracle()
    spans = [(orc.class_of(e.id, i), (e.id, i)) for (e, i) in g.ends_at(vid)]
    by_span = {}
    for span, end in spans:
        if span.dim == n - 1:
            by_span.setdefault(span, []).append(end)
    nodes = tuple(CrossingNode(s, tuple(sorted(by_span[s])))
                  for s in sorted(by_span, key=lambda s: s.basis))
    if not nodes:
        return CrossingGraph(vid, (), (), "empty", None)
    total = zero_space(n)
    for span, _ in spans:
        total = subspace_sum(total, span)
    verdict, witness = ("connected", None) if total.is_full() else ("disconnected", total)
    adj = tuple(tuple(a.span != b.span or any(not contains(a.span, s) for s, _ in spans)
                      for b in nodes) for a in nodes)
    return CrossingGraph(vid, nodes, adj, verdict, witness)


def _raft_at(vid):
    """A depth assignment whose one depth-zero raft is the vertex alone;
    `crossing_graph` reads nothing else of it."""
    return SimpleNamespace(levels=(SimpleNamespace(rafts=(SimpleNamespace(core=(vid,)),)),))


def _hyperplane(normal):
    return canonicalize(kernel_vectors([normal], len(normal)), len(normal))


@st.composite
def _matrix_for(draw, span):
    """An integer matrix with column span `span`: its basis mixed by an
    upper-triangular matrix with a nonzero diagonal."""
    k, n = span.dim, span.ambient_dim
    mix = [[draw(st.sampled_from([-2, -1, 1, 2])) if i == j else
            draw(st.integers(-2, 2)) if i < j else 0 for j in range(k)] for i in range(k)]
    return [[sum(mix[i][j] * span.basis[i][r] for i in range(k)) for j in range(k)]
            for r in range(n)]


FAMILIES = {   # family -> (smallest rank it exists in, verdicts it may reach)
    "repeated": (1, {"disconnected"}),
    "crossed": (1, {"connected", "disconnected"}),
    "two": (2, {"connected"}),
    "finite": (1, {"connected"}),
    "rank0": (1, {"disconnected"}),
    "empty": (1, {"empty"}),
}


@st.composite
def star_vertices(draw, family):
    """A rank-n vertex v (n = 1..4) joined to one leaf per incident span.

    Each leaf has the edge's rank and an identity end, so v's incident spans
    are exactly the drawn ones: copies of one hyperplane H, plus per family a
    line inside H or anywhere, a second hyperplane, a finite-index end or a
    rank-0 end; the empty family draws no span of corank one.
    """
    n = draw(st.integers(FAMILIES[family][0], 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    h = _hyperplane(draw(vec))
    spans = [h] * draw(st.integers(1, 3))
    if family == "crossed":
        inside = [sum(c * b[r] for c, b in zip(draw(st.lists(
            st.integers(-2, 2), min_size=h.dim, max_size=h.dim)), h.basis)) for r in range(n)]
        line = draw(st.sampled_from([inside, draw(vec)]))
        assume(any(line))
        spans.append(canonicalize([line], n))
    elif family == "two":
        other = _hyperplane(draw(vec))
        assume(other != h)
        spans.append(other)
    elif family == "finite":
        spans.append(full_space(n))
    elif family == "rank0":
        spans.append(zero_space(n))
    elif family == "empty":
        dims = [d for d in range(n + 1) if d != n - 1]
        spans = [canonicalize(draw(st.lists(vec, min_size=d, max_size=d)), n)
                 for d in draw(st.lists(st.sampled_from(dims), max_size=3))]
        assume(all(s.dim != n - 1 for s in spans))
    spans = draw(st.permutations(spans))
    vertices = [{"id": "v", "rank": n}]
    edges = []
    for k, span in enumerate(spans):
        d = span.dim
        vertices.append({"id": f"w{k}", "rank": d})
        leaf = [[int(i == j) for j in range(d)] for i in range(d)]
        edges.append({"id": f"e{k}", "rank": d, "ends": [
            {"vertex": "v", "matrix": draw(_matrix_for(span))},
            {"vertex": f"w{k}", "matrix": leaf}]})
    g = graph_from_dict({"oracle": "abelian", "vertices": vertices, "edges": edges})
    assert validate(g).ok, validate(g).violations
    return g


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_hyperplane_criterion_matches_fold_and_scan(family, data):
    g = data.draw(star_vertices(family))
    cg = crossing_graph(g, "v", _raft_at("v"))
    assert cg == _old_crossing_graph(g, "v")
    assert cg.verdict in FAMILIES[family][1]


def test_one_hyperplane_crossed_by_a_line_is_connected():
    g = graph_from_dict({"oracle": "abelian", "vertices": [
        {"id": "v", "rank": 3}, {"id": "a", "rank": 2}, {"id": "b", "rank": 1}], "edges": [
        {"id": "h", "rank": 2, "ends": [{"vertex": "v", "matrix": [[1, 0], [0, 1], [0, 0]]},
                                        {"vertex": "a", "matrix": [[1, 0], [0, 1]]}]},
        {"id": "l", "rank": 1, "ends": [{"vertex": "v", "matrix": [[1], [1], [1]]},
                                        {"vertex": "b", "matrix": [[1]]}]}]})
    cg = crossing_graph(g, "v", _raft_at("v"))
    assert (cg.verdict, cg.adjacency, cg.witness) == ("connected", ((True,),), None)
    assert cg.nodes == (CrossingNode(canonicalize([(1, 0, 0), (0, 1, 0)]), (("h", 0),)),)
    assert cg == _old_crossing_graph(g, "v")


def test_two_hyperplanes_need_no_elimination_once_classes_are_warm(graph, monkeypatch):
    g = graph("thm14")
    da = depth_filtration(g)
    orc = g.oracle()
    for (e, i) in g.ends_at("a"):
        orc.class_of(e.id, i)
    calls = []
    real = exactlin._echelon
    monkeypatch.setattr(exactlin, "_echelon", lambda rows: calls.append(rows) or real(rows))
    cg = crossing_graph(g, "a", da)
    assert (cg.verdict, len(cg.nodes)) == ("connected", 2)
    assert calls == []


def _old_raft_kind(g, raft):
    """raft_kind as it was, with a fresh set of every edge id per raft."""
    orc = g.oracle()
    members = set(raft.core)
    edge_ids = set(g.edge_ids())
    if not members & edge_ids:
        return "point"
    for vid in raft.core:
        if vid in edge_ids:
            continue
        valence = sum(orc.index_value(e.id, i) for (e, i) in g.ends_at(vid) if e.id in members)
        if valence != 2:
            return "bushy"
    return "line"


def _old_one_vertex_raft(da, vid):
    return any(set(raft.core) == {vid} for raft in (da.levels[0].rafts if da.levels else ()))


def test_raft_kind_and_crossing_graph_match_old_rules_on_mixed_rank_graphs():
    rng = random.Random(1414)
    kinds, verdicts, tested = set(), set(), 0
    while tested < 40:
        g = _mixed_rank_graph(rng)
        if g is None or not validate(g).ok:
            continue
        g = complete_reduce(g) if reducible_edges(g) else g
        da = depth_filtration(g)
        for raft in da.levels[0].rafts if da.levels else ():
            assert raft_kind(g, raft) == raft.kind == _old_raft_kind(g, raft)
            kinds.add(raft.kind)
        for vid in g.vertex_ids():
            if _old_one_vertex_raft(da, vid):
                cg = crossing_graph(g, vid, da)
                assert cg == _old_crossing_graph(g, vid)
                verdicts.add(cg.verdict)
            else:
                with pytest.raises(WrongVertex):
                    crossing_graph(g, vid, da)
        tested += 1
    assert kinds == {"point", "line", "bushy"}
    assert verdicts == {"empty", "connected", "disconnected"}


def _crossing_or_refusal(*args):
    try:
        return crossing_graph(*args)
    except WrongVertex as e:
        return str(e)


def test_crossing_graph_without_da_reads_the_same_rafts(graph):
    """Without `da`, `crossing_graph` finds the depth-zero rafts itself and answers the
    same, and it refuses a reducible graph as `depth_filtration` does."""
    graphs = [graph(name) for name in ("arc3", "arc4", "bs22", "f2xz", "shear_unknown",
                                       "thm14", "z2hnn")]
    rng = random.Random(3838)
    while len(graphs) < 50:
        g = _mixed_rank_graph(rng)
        if g is not None and validate(g).ok:
            graphs.append(g)
    reducible = 0
    for g in graphs:
        if reducible_edges(g):
            reducible += 1
            for call in (lambda: crossing_graph(g, g.vertex_ids()[0]),
                         lambda: depth_filtration(g)):
                with pytest.raises(MustReduceFirst, match="^graph has reducible edges; "
                                   "apply complete_reduce first$"):
                    call()
            g = complete_reduce(g)
        da = depth_filtration(g)
        for vid in g.vertex_ids():
            assert _crossing_or_refusal(g, vid) == _crossing_or_refusal(g, vid, da)
    assert reducible >= 5


def test_check_hypotheses_skips_the_raft_guard_and_keeps_its_details(monkeypatch):
    """`check_hypotheses` picks the one-vertex rafts itself, so it runs no guard scan.

    A direct `crossing_graph` call still runs the guard once, and hypothesis
    4's detail is the one the guarded calls give.
    """
    import gogkit.crossing as crossing_module
    from gogkit import load_graph

    calls = []
    guard = crossing_module._one_vertex_raft
    monkeypatch.setattr(crossing_module, "_one_vertex_raft",
                        lambda da, vid: calls.append(vid) or guard(da, vid))
    graphs = [load_graph(fixture_path(name))
              for name in ("arc3", "arc4", "bs22", "f2xz", "shear_unknown", "thm14", "z2hnn")]
    rng = random.Random(2718)
    while len(graphs) < 40:
        g = _mixed_rank_graph(rng)
        if g is not None and validate(g).ok:
            graphs.append(g)
    rafts = 0
    for g in graphs:
        detail = check_hypotheses(g).entry(4).detail
        assert calls == []
        work = complete_reduce(g) if reducible_edges(g) else g
        da = depth_filtration(work)
        vids = [r.core[0] for r in (da.levels[0].rafts if da.levels else ())
                if len(r.core) == 1 and r.core[0] in work.vertex_ids()]
        graphs_at = [crossing_graph(work, vid, da) for vid in vids]
        assert calls == vids
        calls.clear()
        bad = [cg for cg in graphs_at if cg.verdict == "disconnected"]
        assert detail == (
            f"disconnected at {bad[0].vertex}; every incident span lies in {bad[0].witness!r}"
            if bad else f"checked {len(vids)} one-vertex rafts")
        rafts += len(vids)
    assert rafts >= 20
