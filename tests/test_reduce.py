"""Collapse of reducible edges and invariance of the reduction fingerprint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import (GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec, collapse,
                    comm_classes, complete_reduce, graph_to_dict, reducible_edges,
                    validate)
from gogkit.exactlin import RatMatrix
from gogkit.oracle import explore
from gogkit.reduce import NotReducible


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
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


@st.composite
def reducible_graphs(draw):
    """Small connected abelian graphs with at least one reducible edge."""
    rng = draw(st.randoms(use_true_random=False))
    nv = draw(st.integers(2, 4))
    ranks = [draw(st.integers(1, 3)) for _ in range(nv)]
    vertices = [(f"v{i}", ranks[i]) for i in range(nv)]
    edges = []
    for i in range(1, nv):
        j = rng.randrange(i)
        r = min(ranks[i], ranks[j])
        kinds = []
        for end_rank in (ranks[i], ranks[j]):
            rows = _unimodular(rng, end_rank)
            cols = [[rows[a][b] for b in range(r)] for a in range(end_rank)]
            if end_rank == r and rng.random() < 0.4:
                cols = [[2 * x if b == 0 else x for b, x in enumerate(row)]
                        for row in cols]
            kinds.append(cols)
        edges.append((f"e{i}", r, (f"v{i}", kinds[0]), (f"v{j}", kinds[1])))
    g = abelian_graph(vertices, edges)
    return g


@st.composite
def policies(draw):
    salt = draw(st.integers(0, 10 ** 6))

    def pick(cands):
        return sorted(cands, key=lambda c: hash((salt, c)))[0]

    return pick


@given(reducible_graphs(), policies(), policies())
@settings(max_examples=60, deadline=None)
def test_collapse_order_does_not_change_fingerprint(g, p1, p2):
    r1 = complete_reduce(g, order=p1)
    r2 = complete_reduce(g, order=p2)
    assert validate(r1).ok and validate(r2).ok
    assert not reducible_edges(r1) and not reducible_edges(r2)
    assert comm_classes(r1) == comm_classes(r2)
    assert complete_reduce(r1, order=p2) == r1


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
        if g.oracle_mode == "abelian":
            out.append(("rank", min(g.vertex(i).rank if k == "v" else g.edge(i).rank
                                    for k, i in group)))
        else:
            out.append(("labels", tuple(sorted(
                {g.table.top[i] for k, i in group if k == "v"}
                | {end.class_label for k, i in group if k == "e" for end in g.edge(i).ends}))))
    return sorted(out)


@pytest.mark.parametrize("name", ["arc3", "arc4", "bs22", "f2xz", "heis", "nonex",
                                  "shear_unknown", "thm14", "z2hnn"])
def test_comm_classes_match_token_pairs(graph, name):
    g = complete_reduce(graph(name))
    assert comm_classes(g) == _comm_classes_by_pairs(g)
