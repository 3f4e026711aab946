"""Oracle laws, checked for both implementations."""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gogkit import (GraphOfGroups, VertexSpec, collapse, contains, explore, graph_from_dict,
                    validate)
from gogkit import exactlin, oracle
from gogkit.exactlin import DimensionMismatch, canonicalize, full_space, image, preimage
from gogkit.model import UnknownId

from conftest import NO_RAFT_TABLE, RANK0_PROBE


def spans_at(g, orc):
    out = []
    for v in g.vertices:
        out.append((v.id, orc.top_class(v.id)))
    for e in g.edges:
        for i in (0, 1):
            out.append((e.ends[i].vertex, orc.class_of(e.id, i)))
    return out


@pytest.mark.parametrize("name", ["arc3", "thm14", "f2xz", "bs22", "heis"])
def test_leq_is_a_preorder(graph, name):
    g = graph(name)
    orc = g.oracle()
    placed = spans_at(g, orc)
    for (v, a) in placed:
        assert orc.leq(v, a, a)
        for (v2, b) in placed:
            if v2 != v:
                continue
            for (v3, c) in placed:
                if v3 == v and orc.leq(v, a, b) and orc.leq(v, b, c):
                    assert orc.leq(v, a, c)
            assert orc.strictly_less(v, a, b) == (
                orc.leq(v, a, b) and not orc.leq(v, b, a))


@pytest.mark.parametrize("name", ["arc3", "thm14", "f2xz", "bs22", "z2hnn"])
def test_abelian_leq_is_span_containment(graph, name):
    g = graph(name)
    orc = g.oracle()
    placed = spans_at(g, orc)
    for (v, a) in placed:
        for (v2, b) in placed:
            if v2 == v:
                assert orc.leq(v, a, b) == contains(b, a)


@pytest.mark.parametrize("name,expected", [
    ("bs22", {("t", 0): 2, ("t", 1): 2}),
    ("z2hnn", {("t", 0): 1, ("t", 1): 1}),
    ("arc3", {}),
])
def test_abelian_index_is_absolute_determinant(graph, name, expected):
    g = graph(name)
    orc = g.oracle()
    for e in g.edges:
        for i in (0, 1):
            if orc.finite_index_end(e.id, i):
                m = e.ends[i].matrix
                assert orc.index_value(e.id, i) == abs(int(m.det()))
                assert orc.index_value(e.id, i) == expected.get((e.id, i))
            else:
                with pytest.raises(ValueError):
                    orc.index_value(e.id, i)


@pytest.mark.parametrize("name", ["arc3", "thm14", "f2xz", "bs22", "heis", "nonex"])
def test_finite_index_iff_end_class_is_top(graph, name):
    g = graph(name)
    orc = g.oracle()
    for e in g.edges:
        for i in (0, 1):
            is_top = orc.equivalent(e.ends[i].vertex, orc.class_of(e.id, i),
                                    orc.top_class(e.ends[i].vertex))
            assert orc.finite_index_end(e.id, i) == is_top


@pytest.mark.parametrize("name", ["arc3", "thm14", "f2xz", "bs22", "heis"])
def test_transport_round_trip(graph, name):
    g = graph(name)
    orc = g.oracle()
    for e in g.edges:
        for i in (0, 1):
            v = e.ends[i].vertex
            cls = orc.class_of(e.id, i)
            for sub in (cls,):
                assert orc.leq(v, sub, cls)
                there = orc.transport(e.id, i, sub)
                assert there is not None
                back = orc.transport(e.id, 1 - i, there)
                assert orc.equivalent(v, back, sub)


def test_abelian_transport_of_contained_line(graph):
    g = graph("arc3")
    orc = g.oracle()
    line = canonicalize([(1, 0, 0)])   # inside e's image at u
    moved = orc.transport("e", 0, line)
    assert moved == canonicalize([(1, 0, 0)])
    assert orc.transport("e", 1, moved) == line


def test_abelian_transport_refuses_spans_outside_the_end_class(graph):
    g = graph("arc3")
    orc = g.oracle()
    # e's image at u is <a1,a2>: a span with the third axis does not cross
    skew = canonicalize([(0, 0, 1), (1, 0, 0)])
    assert orc.transport("e", 0, skew) is None


def _old_transport(orc, eid, entered_end, cls):
    """Transport as a guard on `contains` followed by image(preimage(...))."""
    e = orc.g.edge(eid)
    m_in, m_out = e.ends[entered_end].matrix, e.ends[1 - entered_end].matrix
    if not contains(m_in.column_span(), cls):
        return None
    return image(m_out, preimage(m_in, cls))


@st.composite
def one_edge_graphs(draw):
    """A graph with one edge whose injective integer maps have rank k <= n <= 4.

    The edge is a loop or joins two vertices; rank-0 edges and square
    (finite-index) ends are both drawn.
    """
    loop = draw(st.booleans())
    ranks = [draw(st.integers(0, 4))]
    ranks.append(ranks[0] if loop else draw(st.integers(0, 4)))
    k = draw(st.integers(0, min(ranks)))
    ends = []
    for i, n in enumerate(ranks):
        m = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(n)]
        ends.append({"vertex": "v" if loop else f"v{i}", "matrix": m})
    vertices = [{"id": "v", "rank": ranks[0]}] if loop else \
        [{"id": f"v{i}", "rank": n} for i, n in enumerate(ranks)]
    g = graph_from_dict({"oracle": "abelian", "vertices": vertices,
                         "edges": [{"id": "e", "rank": k, "ends": ends}]})
    assume(validate(g).ok)
    return g


@st.composite
def classes_near(draw, end_cls):
    """The end class itself, a span inside it, or any span in its ambient space."""
    n = end_cls.ambient_dim
    kind = draw(st.sampled_from(["own", "inside", "any"]))
    if kind == "own":
        return end_cls
    if kind == "inside":
        mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=end_cls.dim,
                                       max_size=end_cls.dim), max_size=end_cls.dim))
        return canonicalize([[sum(c * b[j] for c, b in zip(cs, end_cls.basis))
                              for j in range(n)] for cs in mixes], n)
    vecs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         max_size=n))
    return canonicalize(vecs, n)


@given(one_edge_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_abelian_transport_matches_guarded_image_of_preimage(g, data):
    orc = g.oracle()
    for i in (0, 1):
        for _ in range(3):
            cls = data.draw(classes_near(orc.class_of("e", i)))
            assert orc.transport("e", i, cls) == _old_transport(orc, "e", i, cls)


@given(one_edge_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_carried_class_comes_back_from_the_cache(g, data):
    for i in (0, 1):
        orc = GraphOfGroups(g.vertices, g.edges).oracle()
        cls = data.draw(classes_near(orc.class_of("e", i)))
        moved = orc.transport("e", i, cls)
        if moved is None:
            continue
        fresh = GraphOfGroups(g.vertices, g.edges).oracle()
        assert fresh.transport("e", 1 - i, moved) == cls
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "carry", lambda *args: calls.append(args))
            assert orc.transport("e", 1 - i, moved) == cls
        assert calls == []


class _OneWayOracle(oracle.AbelianOracle):
    """The abelian oracle with steps cached one way only."""

    def step(self, arc, cls):
        e, i, end_cls = arc
        key = (e.id, i, cls)
        if key not in self._moved:
            moved = None
            if cls.dim < end_cls.dim and contains(end_cls, cls):
                moved = oracle.carry(e.ends[i].matrix, e.ends[1 - i].matrix, cls)
            elif cls == end_cls:
                moved = self.class_of(e.id, 1 - i)
            self._moved[key] = moved
        return self._moved[key]


@pytest.mark.parametrize("name", ["arc3", "arc4", "shear_unknown", "thm14"])
def test_recorded_way_back_keeps_explore_and_saves_carries(graph, monkeypatch, name):
    g = graph(name)
    starts = []
    for vid, cls in spans_at(g, g.oracle()):
        starts += [(vid, cls)] + [(vid, canonicalize([b], cls.ambient_dim)) for b in cls.basis]
    carries = _count_calls(monkeypatch, oracle, "carry")
    runs = []
    for orc in (_OneWayOracle(g), oracle.AbelianOracle(g)):
        carries.clear()
        runs.append(([explore(orc, vid, cls, max_steps=4) for vid, cls in starts],
                     len(carries)))
    (one_way, one_way_carries), (placed, two_way_carries) = runs
    assert placed == one_way
    assert 0 < two_way_carries < one_way_carries


def test_each_edge_matrix_builds_its_left_inverse_once(monkeypatch):
    ends = [[[1, 2, 0], [0, 1, 1], [3, 0, 1], [1, 1, 1]],
            [[2, 0, 1], [1, 1, 0], [0, 0, 1], [1, -1, 2]]]
    g = graph_from_dict({"oracle": "abelian",
                         "vertices": [{"id": "u", "rank": 4}, {"id": "v", "rank": 4}],
                         "edges": [{"id": "e", "rank": 3, "ends": [
                             {"vertex": "u", "matrix": ends[0]},
                             {"vertex": "v", "matrix": ends[1]}]}]})
    m = [end.matrix for end in g.edge("e").ends]
    mixes = [[(1, 0, 0)], [(0, 1, 0)], [(1, 1, -1)], [(2, -1, 3)],
             [(1, 0, 0), (0, 1, 0)], [(1, 1, -1), (0, 2, 1)]]
    inverses = _count_calls(monkeypatch, exactlin.RatMatrix, "inverse")
    for i in (0, 1):
        # a second oracle shares the graph's matrices but none of the first one's transports
        for orc in (g.oracle(), oracle.AbelianOracle(g)):
            for mix in mixes:
                cls = canonicalize([[sum(c * x for c, x in zip(cs, row)) for row in ends[i]]
                                    for cs in mix], 4)
                assert orc.transport("e", i, cls) == image(m[1 - i], preimage(m[i], cls))
        assert len(inverses) == i + 1


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["arc3", "bs22", "thm14", "f2xz", "z2hnn", "rank0_probe"])
def test_transport_of_an_end_class_runs_no_elimination(graph, monkeypatch, name):
    g = graph_from_dict(RANK0_PROBE) if name == "rank0_probe" else graph(name)
    orc = g.oracle()
    own = {(e.id, i): orc.class_of(e.id, i) for e in g.edges for i in (0, 1)}
    guards = _count_calls(monkeypatch, oracle, "contains")
    eliminations = _count_calls(monkeypatch, exactlin, "_echelon")
    for (eid, i), cls in own.items():
        assert orc.transport(eid, i, cls) == own[(eid, 1 - i)]
    assert guards == [] and eliminations == []


@pytest.mark.parametrize("name", ["arc3", "arc4", "bs22", "f2xz", "invalid_rank_deficient",
                                  "shear_unknown", "thm14", "z2hnn"])
def test_end_classes_reuse_the_elimination_of_validate(graph, monkeypatch, name):
    g = graph(name)
    validate(g)
    orc = g.oracle()
    eliminations = _count_calls(monkeypatch, exactlin, "_echelon")
    for e in g.edges:
        for i in (0, 1):
            orc.class_of(e.id, i)
    assert eliminations == []


def test_collapse_keeps_the_classes_of_edges_it_carries_over(monkeypatch):
    g = graph_from_dict({
        "vertices": [{"id": "a", "rank": 2}, {"id": "b", "rank": 2}, {"id": "c", "rank": 3}],
        "edges": [
            {"id": "e", "rank": 2, "ends": [{"vertex": "a", "matrix": [[1, 0], [0, 1]]},
                                            {"vertex": "b", "matrix": [[1, 1], [0, 1]]}]},
            {"id": "f", "rank": 2, "ends": [{"vertex": "b", "matrix": [[2, 0], [0, 1]]},
                                            {"vertex": "c", "matrix": [[1, 0], [0, 1], [1, 1]]}]},
        ],
    })
    orc = g.oracle()
    before = [orc.class_of("f", 0), orc.class_of("f", 1), orc.index_value("f", 0)]
    out = collapse(g, "e", 0)
    assert out.edge("f") is g.edge("f")
    eliminations = _count_calls(monkeypatch, exactlin, "_echelon")
    after = out.oracle()
    assert [after.class_of("f", 0), after.class_of("f", 1), after.index_value("f", 0)] == before
    assert eliminations == []


def test_transport_of_a_larger_class_makes_no_containment_test(graph, monkeypatch):
    orc = graph("arc3").oracle()
    orc.class_of("e", 0)
    guards = _count_calls(monkeypatch, oracle, "contains")
    assert orc.transport("e", 0, full_space(3)) is None
    assert guards == []


@pytest.mark.parametrize("cls", [full_space(2), canonicalize([(1, 0)]), full_space(4)])
def test_transport_rejects_a_class_from_another_ambient(graph, cls):
    orc = graph("arc3").oracle()   # e's end classes live in Q^3
    with pytest.raises(DimensionMismatch):
        orc.transport("e", 0, cls)
    with pytest.raises(DimensionMismatch):     # the arc table asks transport too
        explore(orc, "u", cls)


def test_table_transport_refuses_classes_above_the_end_class():
    table = copy.deepcopy(NO_RAFT_TABLE)
    # a map entry the table validates, but Tw is not below e1's end class Cw
    table["transport"]["e1"][1]["Tw"] = "Tv"
    g = graph_from_dict(table)
    assert validate(g).ok, validate(g).violations
    orc = g.oracle()
    assert orc.transport("e1", 1, "Tw") is None
    assert orc.transport("e1", 1, "Cw") == "Tv"
    plain = graph_from_dict(NO_RAFT_TABLE).oracle()
    assert explore(orc, "w", "Tw") == explore(plain, "w", "Tw")


def test_explore_guards_exactness(graph):
    g = graph("arc3")
    orc = g.oracle()
    res = explore(orc, "u", full_space(3))
    assert {(p.vertex, p.cls) for p in res.placements} == {("u", full_space(3))}
    assert not res.truncated


def test_explore_truncates_unbounded_families(graph):
    g = graph("shear_unknown")
    orc = g.oracle()
    res = explore(orc, "v", canonicalize([(0, 1)]), max_steps=4)
    assert res.truncated
    assert len(res.placements) > 4


def test_explore_stops_at_max_states(graph, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STATES", 50)
    g = graph("shear_unknown")
    orc = g.oracle()
    res = explore(orc, "v", orc.class_of("e", 0), max_steps=None)
    assert res.truncated
    assert len(res.placements) == 50


def _explore_by_scan(orc, vid, cls, edge_ids, max_steps):
    """Breadth-first search that scans every allowed edge at every state."""
    edges = [orc.g.edge(eid) for eid in sorted(edge_ids)]
    out, seen, frontier, steps = [(vid, cls, ())], {(vid, cls)}, [(vid, cls, ())], 0
    while frontier and steps < max_steps:
        steps += 1
        nxt = []
        for (v, c, path) in frontier:
            for e in edges:
                for i, end in enumerate(e.ends):
                    if end.vertex != v or not orc.leq(v, c, orc.class_of(e.id, i)):
                        continue
                    c2 = orc.transport(e.id, i, c)
                    key = (e.ends[1 - i].vertex, c2)
                    if c2 is not None and key not in seen:
                        seen.add(key)
                        out.append(key + (path + ((e.id, i),),))
                        nxt.append(out[-1])
        frontier = nxt
    return out


@pytest.mark.parametrize("name", ["arc3", "arc4", "shear_unknown", "heis", "nonex", "z2hnn"])
def test_explore_matches_edge_scan(graph, name):
    g = graph(name)
    orc = g.oracle()
    ids = sorted(g.edge_ids())
    for edge_ids in (ids, ids[::2]):
        for vid, cls in spans_at(g, orc):
            res = explore(orc, vid, cls, edge_ids=edge_ids, max_steps=4)
            assert [(p.vertex, p.cls, p.path) for p in res.placements] == \
                _explore_by_scan(orc, vid, cls, edge_ids, 4)


def _explore_by_transport(orc, vid, cls, edge_ids, max_steps):
    """`explore` without the arc table: a breadth-first walk that asks
    `transport` on every allowed arc of every state."""
    allowed = None if edge_ids is None else set(edge_ids)
    start = oracle.Placement(vid, cls, ())
    out, seen, frontier, steps, truncated = [start], {(vid, cls)}, [start], 0, False
    while frontier:
        if max_steps is not None and steps >= max_steps:
            truncated = True
            break
        steps += 1
        nxt = []
        for pl in frontier:
            for (e, i) in orc.g.ends_at(pl.vertex):
                if allowed is not None and e.id not in allowed:
                    continue
                moved = orc.transport(e.id, i, pl.cls)
                key = (e.ends[1 - i].vertex, moved)
                if moved is None or key in seen:
                    continue
                if len(seen) >= oracle.MAX_STATES:
                    truncated = True
                    continue
                seen.add(key)
                nxt.append(oracle.Placement(*key, pl.path + ((e.id, i),)))
        out += nxt
        frontier = nxt
    return oracle.ExploreResult(tuple(out), truncated)


def _arc_table_cases():
    """(graph, horizons) params, named: every valid abelian fixture, CLASS_STALL
    and seeded `_mixed_rank_graph` draws."""
    import json
    import random

    from conftest import CLASS_STALL, FIXTURES, _mixed_rank_graph

    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "vertices" in doc and doc.get("oracle", "abelian") == "abelian":
            cases.append((path.stem, graph_from_dict(doc), None))
    cases.append(("class_stall", graph_from_dict(CLASS_STALL), (1, 2, 3)))
    rng = random.Random(4101)
    for k in range(60):
        g = _mixed_rank_graph(rng)
        if g is not None:
            cases.append((f"mixed{k}", g, None))
    return [pytest.param(g, horizons or (1, 2, 2 * max(1, len(g.edges))), id=label)
            for label, g, horizons in cases if validate(g).ok]


@pytest.mark.parametrize("g, horizons", _arc_table_cases())
def test_explore_matches_a_walk_that_transports_every_arc(g, horizons):
    """The arc table's shortcuts change nothing: placements in order, their paths
    and `truncated` all equal a walk that calls `transport` on every arc."""
    ids = sorted(g.edge_ids())
    starts = []
    for vid, cls in spans_at(g, g.oracle()):
        starts += [(vid, cls)] + [(vid, canonicalize([b], cls.ambient_dim)) for b in cls.basis]
    for max_steps in horizons:
        for edge_ids in (None, ids[::2], ids[1:]):
            for vid, cls in starts:
                got = explore(oracle.AbelianOracle(g), vid, cls, edge_ids=edge_ids,
                              max_steps=max_steps)
                assert got == _explore_by_transport(oracle.AbelianOracle(g), vid, cls,
                                                    edge_ids, max_steps), (vid, cls, edge_ids)


def _walk_cases():
    """Graphs, named: the cases above, and both coordinate-flag variants at E = 8."""
    import random

    from conftest import flag_graph

    cases = [pytest.param(p.values[0], id=p.id) for p in _arc_table_cases()]
    for n, finite, seed in ((3, True, 3), (4, True, 3), (3, False, 3), (3, False, 0)):
        kind = "finite" if finite else "infinite"
        cases.append(pytest.param(flag_graph(random.Random(seed), 8, n, finite),
                                  id=f"flag_{kind}_n{n}_seed{seed}"))
    return cases


@pytest.mark.parametrize("g", _walk_cases())
def test_walk_agrees_with_the_per_arc_transport_loop(g):
    """At every state two rounds of `explore` reach, `step` on each arc, in arc
    order, returns what `transport` returns on that arc, and what the guard on
    `contains` followed by image(preimage(...)) gives.  A step asks `contains`
    nothing; a refused arc stores nothing in `_moved`, through `step` (which
    does not ask `transport` about it) and through `transport`; a class from
    another ambient space raises from both, and from `explore`."""
    orc = oracle.AbelianOracle(g)
    states = {}
    for vid, cls in spans_at(g, orc):
        for start in [cls] + [canonicalize([b], cls.ambient_dim) for b in cls.basis]:
            states.update(dict.fromkeys(
                (p.vertex, p.cls) for p in explore(orc, vid, start, max_steps=2).placements))
    for vid, cls in states:
        arcs = orc.arcs(vid)
        by_step = [(e, i, m) for (e, i, end) in arcs
                   for m in (orc.step((e, i, end), cls),) if m is not None]
        by_transport = [(e, i, m) for (e, i, _) in arcs
                        for m in (orc.transport(e.id, i, cls),) if m is not None]
        assert by_step == by_transport
        fresh = oracle.AbelianOracle(g)
        assert by_transport == [(e, i, m) for (e, i, _) in arcs
                                for m in (_old_transport(fresh, e.id, i, cls),) if m is not None]
        crossed = {(e.id, i) for e, i, _ in by_transport}
        for arc in arcs:
            cold, asked = oracle.AbelianOracle(g), []
            real = cold.transport
            cold.transport = lambda *args: asked.append(args) or real(*args)
            info = contains.cache_info()
            moved = cold.step(arc, cls)
            assert asked == [] and contains.cache_info() == info
            if (arc[0].id, arc[1]) in crossed:
                continue
            assert moved is None
            assert cold.transport(arc[0].id, arc[1], cls) is None
            assert cold._moved == {} and contains.cache_info() == info
    for v in g.vertices:
        arcs = orc.arcs(v.id)
        for cls in (full_space(v.rank + 1), canonicalize([[1] * (v.rank + 1)])):
            if arcs:
                with pytest.raises(DimensionMismatch):
                    explore(orc, v.id, cls, max_steps=1)
            for arc in arcs:
                with pytest.raises(DimensionMismatch):
                    orc.step(arc, cls)
                with pytest.raises(DimensionMismatch):
                    orc.transport(arc[0].id, arc[1], cls)


def test_explore_rejects_unknown_edge_ids(graph):
    orc = graph("arc3").oracle()
    with pytest.raises(KeyError, match="no edge 'nope'"):
        explore(orc, "u", full_space(3), edge_ids=["nope"])
    # the first unknown id in pool order is the one named
    with pytest.raises(UnknownId, match="no edge 'zz'"):
        explore(orc, "u", full_space(3), edge_ids=["e", "zz", "f", "aa"])


@pytest.mark.parametrize("name", ["arc4", "bs22", "thm14"])
def test_explore_edge_lookups_do_not_grow_with_the_pool(graph, monkeypatch, name):
    """An abelian walk reads its arcs off the oracle's arc table: one `ends_at`
    per vertex, however long the pool, and no `edge` lookup at all."""
    calls = []
    for method in ("edge", "ends_at"):
        def counted(self, key, _lookup=getattr(GraphOfGroups, method), _name=method):
            calls.append(_name)
            return _lookup(self, key)
        monkeypatch.setattr(GraphOfGroups, method, counted)
    counts = []
    for copies in (None, 1, 50):
        g = graph(name)     # a fresh graph, so the oracle's caches start cold
        cls = g.oracle().top_class(g.vertex_ids()[0])
        pool = None if copies is None else g.edge_ids() * copies
        calls.clear()
        res = explore(g.oracle(), g.vertex_ids()[0], cls, edge_ids=pool, max_steps=4)
        counts.append((calls.count("ends_at"), calls.count("edge"), res))
    assert counts[0][0] > 0
    assert counts[0][1] == 0
    assert counts[0] == counts[1] == counts[2]


@st.composite
def subspace_pairs(draw):
    """(a, b) in one Q^n, with a often inside b: a mixes b's spanning vectors."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    b_vecs = draw(st.lists(vec, max_size=n))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(b_vecs),
                                   max_size=len(b_vecs)), max_size=n))
    a_vecs = [tuple(sum(c * v[k] for c, v in zip(cs, b_vecs)) for k in range(n))
              for cs in mixes]
    a_vecs += draw(st.lists(vec, max_size=1))
    return canonicalize(a_vecs, n), canonicalize(b_vecs, n)


@given(subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_abelian_strictly_less_compares_dimensions_first(pair):
    import gogkit.oracle as oracle_module

    a, b = pair
    orc = GraphOfGroups((VertexSpec("v", a.ambient_dim),), ()).oracle()
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_module, "contains",
                   lambda x, y: calls.append((x, y)) or contains(x, y))
        got = orc.strictly_less("v", a, b)
    assert got == (contains(b, a) and not contains(a, b))
    if a.dim >= b.dim:
        assert calls == []
