"""Oracle laws, checked for both implementations."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import GraphOfGroups, VertexSpec, contains, explore, graph_from_dict, validate
from gogkit.exactlin import canonicalize, full_space

from conftest import NO_RAFT_TABLE


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


def test_explore_rejects_unknown_edge_ids(graph):
    orc = graph("arc3").oracle()
    with pytest.raises(KeyError, match="no edge 'nope'"):
        explore(orc, "u", full_space(3), edge_ids=["nope"])


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
