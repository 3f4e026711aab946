"""Collapse of reducible edges and invariance of the reduction fingerprint."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import (GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec, collapse,
                    comm_classes, complete_reduce, graph_from_dict, graph_to_dict,
                    reducible_edges, validate)
from gogkit.exactlin import RatMatrix
from gogkit.model import TableData
from gogkit.oracle import explore
from gogkit.reduce import NotReducible
from gogkit.unionfind import UnionFind

from conftest import _mixed_rank_graph, benchmark_inputs, class_name, table_twin


def abelian_graph(vertices, edges):
    vs = tuple(VertexSpec(i, r) for i, r in vertices)
    es = tuple(
        EdgeSpec(i, r, (EdgeEnd(v0, RatMatrix.from_rows(m0)),
                        EdgeEnd(v1, RatMatrix.from_rows(m1))))
        for (i, r, (v0, m0), (v1, m1)) in edges)
    g = GraphOfGroups(vs, es)
    assert validate(g).ok, validate(g).violations
    return g


def test_identity_edge_reducible_at_both_ends():
    g = abelian_graph(
        [("a", 2), ("b", 2)],
        [("e", 2, ("a", [[1, 0], [0, 1]]), ("b", [[1, 0], [0, 1]]))],
    )
    assert reducible_edges(g) == [("e", 0), ("e", 1)]


def test_worked_example_irreducible(graph):
    assert reducible_edges(graph("arc3")) == []


def test_unimodular_loop_not_reducible(graph):
    assert reducible_edges(graph("z2hnn")) == []


def test_collapse_identity_edge_keeps_other_matrices():
    m = [[1, 2], [0, 1], [3, 0]]
    g = abelian_graph(
        [("a", 2), ("b", 2), ("c", 3)],
        [("e", 2, ("a", [[1, 0], [0, 1]]), ("b", [[1, 0], [0, 1]])),
         ("f", 2, ("a", [[1, 0], [0, 1]]), ("c", m))],
    )
    out = collapse(g, "e", 0)
    assert sorted(out.vertex_ids()) == ["b", "c"]
    f = out.edge("f")
    assert f.ends[0].vertex == "b"
    assert f.ends[0].matrix == RatMatrix.identity(2)
    assert f.ends[1].matrix == RatMatrix.from_rows(m)
    assert validate(out).ok


def test_collapse_composes_one_by_one_matrices():
    g = abelian_graph(
        [("v", 1), ("w", 1), ("x", 1)],
        [("e", 1, ("v", [[1]]), ("w", [[3]])),
         ("f", 1, ("v", [[2]]), ("x", [[1]]))],
    )
    out = collapse(g, "e", 0)
    f = out.edge("f")
    # the (2) map transfers through the inverse of (1) and then (3)
    assert f.ends[0].vertex == "w"
    assert f.ends[0].matrix == RatMatrix.from_rows([[6]])


def test_collapse_requires_reducibility(graph):
    with pytest.raises(NotReducible):
        collapse(graph("arc3"), "e", 0)


def test_collapse_rejects_unknown_edge_and_bad_end():
    ident = [[1, 0], [0, 1]]
    g = abelian_graph([("a", 2), ("b", 2)], [("e", 2, ("a", ident), ("b", ident))])
    for eid, end in (("nope", 0), ("e", 2), ("e", -1)):
        with pytest.raises(NotReducible):
            collapse(g, eid, end)


def test_table_collapse_carries_untouched_entries(graph):
    """Table entries of edges that do not move, even under an id the graph
    lacks, are carried as they are; only the collapsed edge's go."""
    g = graph("heis")
    t = g.table
    index, maps = (1, 1), ({}, {})
    g = g._replace(table=t._replace(indices={**t.indices, "zz": index},
                                    transport={**t.transport, "zz": maps}))
    out = collapse(g, "f", 0)
    assert out.table.indices["zz"] is index and out.table.transport["zz"] is maps
    assert sorted(out.table.indices) == sorted(out.table.transport) == ["e", "zz"]


def _invalid_id_graphs():
    """Reducible graphs with a duplicate vertex id, a duplicate edge id, a
    dangling absorbed vertex, and a duplicate edge id whose first copy lies
    off the star of the first collapse (lex reduces that one to ['c'])."""
    one, two = RatMatrix.identity(1), RatMatrix.from_rows([[2]])

    def edge(eid, v0, m0, v1, m1):
        return EdgeSpec(eid, 1, (EdgeEnd(v0, m0), EdgeEnd(v1, m1)))

    a, b, c = VertexSpec("a", 1), VertexSpec("b", 1), VertexSpec("c", 1)
    duplicate_vertex = GraphOfGroups(
        (a, b, b), (edge("e", "a", one, "b", one), edge("f", "b", two, "a", one)))
    duplicate_edge = GraphOfGroups(
        (a, b), (edge("e", "a", one, "b", one), edge("f", "a", two, "b", one),
                 edge("f", "b", two, "a", one)))
    maps = ({"A": "A"}, {"A": "A"})
    dangling_absorbed = GraphOfGroups(
        (VertexSpec("v", 1),),
        (EdgeSpec("e", 1, (EdgeEnd("v", class_label="A"), EdgeEnd("ghost", class_label="A"))),
         EdgeSpec("f", 1, (EdgeEnd("ghost", class_label="A"), EdgeEnd("v", class_label="A")))),
        "table",
        TableData({"v": ("A",)}, {"v": "A"}, {}, {"e": maps, "f": maps},
                  {"e": (1, 1), "f": (1, 2)}, {}))
    first_copy_off_star = GraphOfGroups(
        (a, b, c), (edge("f", "b", one, "c", one), edge("e", "a", one, "b", one),
                    edge("f", "a", two, "c", one)))
    return {"duplicate_vertex": duplicate_vertex, "duplicate_edge": duplicate_edge,
            "dangling_absorbed": dangling_absorbed, "first_copy_off_star": first_copy_off_star}


INVALID_ID_GRAPHS = _invalid_id_graphs()


def test_complete_reduce_rejects_unknown_order(graph):
    for name in ("heis", "arc3"):
        for order in ("bogus", ["lex"], min):
            with pytest.raises(ValueError, match="unknown edge-selection policy"):
                complete_reduce(graph(name), order=order)


def chain_graph():
    ident = [[1, 0], [0, 1]]
    return abelian_graph(
        [("a", 2), ("b", 2), ("c", 2)],
        [("e", 2, ("a", ident), ("b", ident)), ("f", 2, ("b", ident), ("c", ident))])


@pytest.mark.parametrize("name", ["heis", "chain"])
@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_complete_reduce_scans_once_per_collapse(graph, monkeypatch, name, order):
    """One `reducible_edges` scan for the whole reduction, however many
    collapses follow: later steps recheck only the re-attached edges."""
    import gogkit.reduce as reduce_mod
    g = graph(name) if name == "heis" else chain_graph()
    calls = {"scan": 0, "collapse": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reduce_mod, "reducible_edges",
                        counted("scan", reduce_mod.reducible_edges))
    monkeypatch.setattr(reduce_mod, "collapse", counted("collapse", reduce_mod.collapse))
    complete_reduce(g, order=order)
    assert calls["collapse"] > 0
    assert calls["scan"] == 1


def test_complete_reduce_fixed_point(graph):
    g = graph("arc3")
    assert complete_reduce(g) == g


def test_chain_of_identity_edges_reduces_to_a_point():
    ident = [[1, 0], [0, 1]]
    g = abelian_graph(
        [("a", 2), ("b", 2), ("c", 2)],
        [("e", 2, ("a", ident), ("b", ident)),
         ("f", 2, ("b", ident), ("c", ident))],
    )
    out = complete_reduce(g)
    assert len(out.vertices) == 1 and not out.edges
    assert comm_classes(out) == [("rank", 2)]


def test_heisenberg_two_orders_same_classes_different_graphs(graph):
    g = graph("heis")
    r1 = complete_reduce(g, order="lex")
    r2 = complete_reduce(g, order="revlex")
    assert graph_to_dict(r1) != graph_to_dict(r2)
    assert comm_classes(r1) == comm_classes(r2)
    assert validate(r1).ok and validate(r2).ok


def test_heisenberg_collapse_gives_ascending_loop(graph):
    g = graph("heis")
    out = collapse(g, "f", 0)
    assert out.vertex_ids() == ["v"]
    (e,) = out.edges
    assert e.is_loop()
    assert sorted(out.table.indices[e.id]) == [1, 4]


def test_worked_example_class_fingerprint(graph):
    assert comm_classes(graph("arc3")) == [
        ("rank", 1), ("rank", 2), ("rank", 2), ("rank", 3), ("rank", 3)]


def test_single_vertex_fingerprint():
    g = GraphOfGroups((VertexSpec("v", 3),), ())
    assert comm_classes(g) == [("rank", 3)]


# -- randomized collapse-order invariance --------------------------------------


def _unimodular(rng, n):
    # product of a few elementary integer matrices: always determinant +-1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 4) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


@st.composite
def reducible_graphs(draw):
    """Small connected abelian graphs on a spanning tree plus up to three extra
    edges (loops, parallel copies, random pairs); ranks 0-3, edge ranks from 0
    up to the smaller end rank, most drawn at that maximum."""
    rng = draw(st.randoms(use_true_random=False))
    nv = draw(st.integers(2, 4))
    ranks = [draw(st.integers(0, 3)) for _ in range(nv)]
    vertices = [(f"v{i}", ranks[i]) for i in range(nv)]

    def edge(eid, a, b):
        r = min(ranks[a], ranks[b])
        if r and rng.random() < 0.25:
            r = rng.randrange(r)
        kinds = []
        for end_rank in (ranks[a], ranks[b]):
            rows = _unimodular(rng, end_rank)
            cols = [[rows[x][y] for y in range(r)] for x in range(end_rank)]
            if end_rank == r and r and rng.random() < 0.4:
                cols = [[2 * x if y == 0 else x for y, x in enumerate(row)]
                        for row in cols]
            kinds.append(cols)
        return (eid, r, (f"v{a}", kinds[0]), (f"v{b}", kinds[1]))

    pairs = [(i, rng.randrange(i)) for i in range(1, nv)]
    edges = [edge(f"e{i + 1}", a, b) for i, (a, b) in enumerate(pairs)]
    for k in range(draw(st.integers(0, 3))):
        kind = rng.choice(("loop", "parallel", "copy", "pair"))
        if kind == "copy":
            # the same maps again: once one copy collapses, the other is a loop
            _, r, end0, end1 = rng.choice(edges)
            edges.append((f"x{k}", r, end0, end1))
            continue
        a, b = {"loop": (rng.randrange(nv),) * 2, "parallel": rng.choice(pairs),
                "pair": (rng.randrange(nv), rng.randrange(nv))}[kind]
        edges.append(edge(f"x{k}", a, b))
    return abelian_graph(vertices, edges)


@st.composite
def policies(draw):
    salt = draw(st.integers(0, 10 ** 6))

    def pick(cands):
        return sorted(cands, key=lambda c: hash((salt, c)))[0]

    return pick


def _reduce_with(g, pick):
    while cands := reducible_edges(g):
        g = collapse(g, *pick(cands))
    return g


@given(reducible_graphs(), policies(), policies())
@settings(max_examples=60, deadline=None)
def test_collapse_order_does_not_change_fingerprint(g, p1, p2):
    r1 = _reduce_with(g, p1)
    r2 = _reduce_with(g, p2)
    assert validate(r1).ok and validate(r2).ok
    assert not reducible_edges(r1) and not reducible_edges(r2)
    assert comm_classes(r1) == comm_classes(r2)
    assert _reduce_with(r1, p2) == r1


def _check_full_rescan(g):
    """Equal graphs, vertex and edge order included, and the input's index untouched."""
    g.ends_at(g.vertices[0].id)   # the input's index is built
    for order, pick in (("lex", min), ("revlex", max)):
        assert complete_reduce(g, order) == _reduce_with(g, pick)
    assert g._index == GraphOfGroups(*g)._index


@given(reducible_graphs())
@settings(max_examples=200, deadline=None)
def test_complete_reduce_matches_full_rescan(g):
    _check_full_rescan(g)


@pytest.mark.parametrize("name", list(INVALID_ID_GRAPHS))
def test_complete_reduce_matches_full_rescan_with_invalid_ids(name):
    _check_full_rescan(INVALID_ID_GRAPHS[name])


@pytest.mark.parametrize("order, pick", [("lex", min), ("revlex", max)])
def test_complete_reduce_matches_full_rescan_on_table_graph(graph, order, pick):
    g = graph("heis")
    assert complete_reduce(g, order) == _reduce_with(g, pick)


def _end_data(g):
    """Per edge, in order: its id and each end's vertex, class label and index;
    an abelian class is labelled as its table twin labels it."""
    orc = g.oracle()
    name = class_name if g.oracle_mode == "abelian" else str
    return [(e.id, [(fe.vertex, name(orc.class_of(e.id, i)),
                     orc.index_value(e.id, i) if orc.finite_index_end(e.id, i) else "inf")
                    for i, fe in enumerate(e.ends)]) for e in g.edges]


def test_table_twins_reduce_like_their_abelian_graphs():
    """The reduction of each seeded draw's table twin, in both orders, is valid
    and has the abelian reduction's vertices, edges, end classes and indices,
    also where a collapsed edge has infinite index at its kept end."""
    rng, twins, reduced = random.Random(11), 0, 0
    for _ in range(300):
        g = _mixed_rank_graph(rng)
        twin = None if g is None or not validate(g).ok else table_twin(g)
        if twin is None:
            continue
        assert validate(twin).ok, validate(twin).violations
        twins += 1
        for order in ("lex", "revlex"):
            ra, rt = complete_reduce(g, order), complete_reduce(twin, order)
            assert validate(rt).ok, validate(rt).violations
            assert rt.vertex_ids() == ra.vertex_ids() and _end_data(rt) == _end_data(ra)
            reduced += len(rt.edges) < len(g.edges)
    assert twins > 250 and reduced > 200


def _collapse_inputs(g, order):
    """`complete_reduce(g, order)` and the (graph, edge id, end) of each `collapse` call."""
    import gogkit.reduce as reduce_mod
    real, calls = reduce_mod.collapse, []

    def spy(h, eid, end):
        calls.append((h, eid, end))
        return real(h, eid, end)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduce_mod, "collapse", spy)
        out = complete_reduce(g, order)
    return out, calls


def _big_reducible():
    return graph_from_dict(benchmark_inputs().reducible_graph(random.Random(3), 1024))


@pytest.mark.parametrize("name, order", [
    ("first_copy_off_star", "lex"), ("chain", "revlex"), ("heis", "lex"), ("heis", "revlex"),
    ("big", "lex"), ("big", "revlex")])
def test_complete_reduce_collapses_stars(graph, name, order):
    """Each `collapse` gets the edges with an end at the absorbed vertex plus
    the first copy of each of their ids, in edge order, and nothing more, in
    both oracle modes; over a reduction of a seeded E = 1024 benchmark-family
    draw they sum to at most 2E.  A full collapse after each step replays the
    reduction."""
    g = {"first_copy_off_star": lambda: INVALID_ID_GRAPHS[name], "chain": chain_graph,
         "heis": lambda: graph("heis"), "big": _big_reducible}[name]()
    if name == "first_copy_off_star":
        assert complete_reduce(g, order).vertex_ids() == ["c"]
    out, calls = _collapse_inputs(g, order)
    whole = g
    for h, eid, end in calls:
        gone = whole.edge(eid).ends[end].vertex
        star = [f for f in whole.edges if gone in (f.ends[0].vertex, f.ends[1].vertex)]
        wanted = {id(f) for f in star} | {id(whole.edge(f.id)) for f in star}
        assert h.edges == tuple(f for f in whole.edges if id(f) in wanted)
        whole = collapse(whole, eid, end)
    assert calls and out == whole
    if name == "big":
        assert sum(len(h.edges) for h, _, _ in calls) <= 2 * len(g.edges)


def test_parallel_identity_edges_leave_a_loop():
    ident = [[1, 0], [0, 1]]
    g = abelian_graph(
        [("a", 2), ("b", 2)],
        [("e", 2, ("a", ident), ("b", ident)), ("f", 2, ("a", ident), ("b", ident))])
    for order, pick, vid, loop in (("lex", min, "b", "f"), ("revlex", max, "a", "e")):
        out = complete_reduce(g, order)
        assert out.vertex_ids() == [vid] and out.edge_ids() == [loop]
        assert out.edge(loop).is_loop() and not reducible_edges(out)
        assert out == _reduce_with(g, pick)


@given(reducible_graphs())
@settings(max_examples=40, deadline=None)
def test_collapse_preserves_connectivity_and_counts(g):
    cands = reducible_edges(g)
    if not cands:
        return
    eid, end = cands[0]
    out = collapse(g, eid, end)
    assert len(out.vertices) == len(g.vertices) - 1
    assert len(out.edges) == len(g.edges) - 1
    assert validate(out).ok


def _comm_classes_by_pairs(g, loop_bound=3):
    """Class descriptors from the token-pair definition, joined by flood fill."""
    orc = g.oracle()
    base = {("v", v.id): [(v.id, orc.top_class(v.id))] for v in g.vertices}
    for e in g.edges:
        base[("e", e.id)] = [(e.ends[i].vertex, orc.class_of(e.id, i)) for i in (0, 1)]
    steps = max(1, loop_bound * max(1, len(g.edges)))
    reach = {t: {(p.vertex, p.cls) for (v, c) in b
                 for p in explore(orc, v, c, max_steps=steps).placements}
             for t, b in base.items()}
    linked = {t: {u for u in base if set(base[u]) & reach[t] or set(base[t]) & reach[u]}
              for t in base}
    out, done = [], set()
    for t in base:
        if t in done:
            continue
        group, stack = {t}, [t]
        while stack:
            for u in linked[stack.pop()] - group:
                group.add(u)
                stack.append(u)
        done |= group
        out.append(_descriptor(g, group))
    return sorted(out)


def _descriptor(g, group):
    """The `comm_classes` descriptor of one class of ("v" | "e", id) tokens."""
    if g.oracle_mode == "abelian":
        return ("rank", min(g.vertex(i).rank if k == "v" else g.edge(i).rank for k, i in group))
    return ("labels", tuple(sorted(
        {g.table.top[i] for k, i in group if k == "v"}
        | {end.class_label for k, i in group if k == "e" for end in g.edge(i).ends})))


@pytest.mark.parametrize("name", ["arc3", "arc4", "bs22", "f2xz", "heis", "nonex",
                                  "shear_unknown", "thm14", "z2hnn"])
def test_comm_classes_match_token_pairs(graph, name):
    g = complete_reduce(graph(name))
    assert comm_classes(g) == _comm_classes_by_pairs(g)


# -- one walk per abelian orbit ---------------------------------------------------


def _comm_classes_every_start(g, horizon=None):
    """`comm_classes` with one walk from every distinct base placement."""
    orc = g.oracle()
    owners = {}
    for v in g.vertices:
        owners.setdefault((v.id, orc.top_class(v.id)), []).append(("v", v.id))
    for e in g.edges:
        for i in (0, 1):
            owners.setdefault((e.ends[i].vertex, orc.class_of(e.id, i)), []).append(("e", e.id))
    classes = UnionFind([t for ts in owners.values() for t in ts])
    if horizon is None:
        horizon = 2 * max(1, len(g.edges))
    for (vid, cls), ts in owners.items():
        for p in explore(orc, vid, cls, max_steps=horizon).placements:
            for other in owners.get((p.vertex, p.cls), ()):
                classes.union(ts[0], other)
    return sorted(_descriptor(g, members) for members in classes.classes().values())


@given(reducible_graphs())
@settings(max_examples=100, deadline=None)
def test_orbit_skip_matches_every_start(g):
    """Short horizons cut walks, and a cut walk must not cover its orbit."""
    r = complete_reduce(g)
    for horizon in (None, 1, 2):
        assert comm_classes(r, horizon) == _comm_classes_every_start(r, horizon)


@pytest.mark.parametrize("name", ["heis", "nonex"])
@pytest.mark.parametrize("horizon", [None, 1, 2])
def test_orbit_skip_matches_every_start_on_tables(graph, name, horizon):
    r = complete_reduce(graph(name))
    assert comm_classes(r, horizon) == _comm_classes_every_start(r, horizon)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_comm_classes_walks_each_abelian_orbit_once(monkeypatch, k):
    """A path of k rank-1 vertices joined by index-2 edges: every vertex and
    edge sits in one finite orbit, based at k placements, and one walk
    covers it.  In table mode every distinct placement is still walked."""
    import gogkit.reduce as reduce_mod
    g = abelian_graph([(f"v{i}", 1) for i in range(k)],
                      [(f"e{i}", 1, (f"v{i}", [[2]]), (f"v{i + 1}", [[2]]))
                       for i in range(k - 1)])
    walks = []

    def counted(orc, vid, cls, **kw):
        walks.append(vid)
        return explore(orc, vid, cls, **kw)

    monkeypatch.setattr(reduce_mod, "explore", counted)
    assert comm_classes(g) == [("rank", 1)]
    assert walks == ["v0"]


def test_cut_walks_cover_no_orbit():
    """A path v0 - v1 - v2 - v3, declared v0, v3, v1, v2, at horizon 1: the
    cut walks from v0 and v3 reach v1 and v2, whose own walks alone join
    the two halves, so neither may be skipped."""
    g = abelian_graph([(f"v{i}", 1) for i in (0, 3, 1, 2)],
                      [(f"e{i}", 1, (f"v{i}", [[2]]), (f"v{i + 1}", [[2]])) for i in range(3)])
    assert comm_classes(g, 1) == _comm_classes_every_start(g, 1) == [("rank", 1)]


def test_comm_classes_walks_every_table_placement(graph, monkeypatch):
    import gogkit.reduce as reduce_mod
    g = graph("nonex")
    orc = g.oracle()
    starts = {(v.id, orc.top_class(v.id)) for v in g.vertices} | {
        (e.ends[i].vertex, orc.class_of(e.id, i)) for e in g.edges for i in (0, 1)}
    walks = []

    def counted(orc, vid, cls, **kw):
        walks.append((vid, cls))
        return explore(orc, vid, cls, **kw)

    monkeypatch.setattr(reduce_mod, "explore", counted)
    comm_classes(g)
    assert sorted(walks) == sorted(starts)
