import pathlib

import pytest

from gogkit import (EdgeEnd, EdgeSpec, GraphOfGroups, VertexSpec, graph_from_dict, load_graph,
                    reducible_edges, validate)
from gogkit.exactlin import RatMatrix

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ROADMAP 2a: rank-2 vertices, a rank-0 loop and a rank-0 edge at v1, and a
# rank-1 loop at v0.  The filtration gives e0 depth 1, tree-ball chains give 2.
RANK0_PROBE = {
    "oracle": "abelian",
    "vertices": [{"id": "v0", "rank": 2}, {"id": "v1", "rank": 2}],
    "edges": [
        {"id": "e0", "rank": 0, "ends": [{"vertex": "v1", "matrix": [[], []]},
                                         {"vertex": "v1", "matrix": [[], []]}]},
        {"id": "e1", "rank": 0, "ends": [{"vertex": "v0", "matrix": [[], []]},
                                         {"vertex": "v1", "matrix": [[], []]}]},
        {"id": "e2", "rank": 1, "ends": [{"vertex": "v0", "matrix": [[2], [0]]},
                                         {"vertex": "v0", "matrix": [[1], [1]]}]},
    ],
}


# Table oracle with no depth-zero raft: each edge class is the top class at one
# end and strictly below it at the other, so v, w, x climb around a cycle.
NO_RAFT_TABLE = {
    "oracle": "table",
    "vertices": [{"id": "v", "rank": 3}, {"id": "w", "rank": 3}, {"id": "x", "rank": 3}],
    "edges": [
        {"id": "e1", "rank": 3, "ends": [
            {"vertex": "v", "class": "Tv"}, {"vertex": "w", "class": "Cw"}]},
        {"id": "e2", "rank": 3, "ends": [
            {"vertex": "w", "class": "Tw"}, {"vertex": "x", "class": "Cx"}]},
        {"id": "e3", "rank": 3, "ends": [
            {"vertex": "x", "class": "Tx"}, {"vertex": "v", "class": "Cv"}]},
    ],
    "classes": {"v": {"labels": ["Tv", "Cv"], "top": "Tv"},
                "w": {"labels": ["Tw", "Cw"], "top": "Tw"},
                "x": {"labels": ["Tx", "Cx"], "top": "Tx"}},
    "order": {"v": [["Cv", "Tv"]], "w": [["Cw", "Tw"]], "x": [["Cx", "Tx"]]},
    "transport": {
        "e1": [{"Tv": "Cw", "Cv": "Cw"}, {"Cw": "Tv"}],
        "e2": [{"Tw": "Cx", "Cw": "Cx"}, {"Cx": "Tw"}],
        "e3": [{"Tx": "Cv", "Cx": "Cv"}, {"Cv": "Tx"}],
    },
    "indices": {"e1": [2, "inf"], "e2": [2, "inf"], "e3": [2, "inf"]},
}


# Valid and irreducible, but two finite-index rank-3 loops at v1 make its flotilla
# walks reach about 1457 classes each at horizon 6, and MAX_STATES at the default
# horizon, so its depth filtration takes seconds and ends Unknown.  Its depth-zero
# rafts need no walk; v2 is a point raft.
CLASS_STALL = {
    "oracle": "abelian",
    "vertices": [{"id": "v0", "rank": 2}, {"id": "v1", "rank": 3}, {"id": "v2", "rank": 1}],
    "edges": [
        {"id": "e0", "rank": 2, "ends": [
            {"vertex": "v0", "matrix": [[-1, -2], [-2, 2]]},
            {"vertex": "v1", "matrix": [[-2, 2], [2, 0], [1, 1]]}]},
        {"id": "e1", "rank": 0, "ends": [{"vertex": "v1", "matrix": [[], [], []]},
                                         {"vertex": "v2", "matrix": [[]]}]},
        {"id": "e2", "rank": 3, "ends": [
            {"vertex": "v1", "matrix": [[-1, -2, -2], [-2, 2, 1], [-1, -2, -1]]},
            {"vertex": "v1", "matrix": [[-2, 0, -2], [0, 2, -1], [-1, -2, 1]]}]},
        {"id": "e3", "rank": 3, "ends": [
            {"vertex": "v1", "matrix": [[-1, 2, -1], [0, 0, -2], [-1, 1, 0]]},
            {"vertex": "v1", "matrix": [[-1, -2, 2], [-2, 0, 0], [-1, 2, -1]]}]},
        {"id": "e4", "rank": 1, "ends": [{"vertex": "v1", "matrix": [[1], [-2], [2]]},
                                         {"vertex": "v0", "matrix": [[0], [2]]}]},
    ],
}


# Shared random and parametrised graph builders.  Each seeded test that uses
# one draws the same graphs from the same seed.

def _injective_rows(rng, rows, cols):
    """Integer rows of an injective rows x cols matrix, entries in -2..2, or None
    after 60 tries."""
    for _ in range(60):
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        if cols == 0 or RatMatrix.from_rows(m).rank() == cols:
            return m
    return None


def _random_irreducible_graph(rng):
    """1-3 vertices of rank 1-3 joined along a path by one or two edges of positive
    rank (a loop or an extra edge when the path needs fewer); None when the draw
    is invalid or reducible."""
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
        ma = _injective_rows(rng, ranks[a], r)
        mb = _injective_rows(rng, ranks[b], r)
        if ma is None or mb is None:
            return None
        ma, mb = RatMatrix.from_rows(ma), RatMatrix.from_rows(mb)
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


def _star_graph(m):
    """A rank-3 hub with an identity loop, and m rank-1 leaves on distinct lines of it.

    The hub and its loop are the one depth-zero raft and flotilla.  Each spoke
    is its own class at the hub, so m level-1 rafts absorb that one flotilla.
    """
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    edges = [{"id": "loop", "rank": 3, "ends": [{"vertex": "hub", "matrix": eye}] * 2}]
    edges += [{"id": f"spoke{k}", "rank": 1,
               "ends": [{"vertex": "hub", "matrix": [[1], [k], [k * k]]},
                        {"vertex": f"leaf{k}", "matrix": [[2]]}]} for k in range(m)]
    vertices = [{"id": "hub", "rank": 3}] + [{"id": f"leaf{k}", "rank": 1} for k in range(m)]
    return graph_from_dict({"oracle": "abelian", "vertices": vertices, "edges": edges})


def flag_graph(rng, n_edges, n, finite):
    """Irreducible coordinate-flag graph: E edges on max(2, E // 2) rank-n vertices.

    The edges are a random spanning tree plus extra pairs, about one in five
    a loop, each of rank r in 1..n-1.  Every end matrix is an r x r block over
    n - r zero rows, so every end class is the coordinate subspace
    span(e_1..e_r).  With `finite` the block is a signed permutation matrix
    with entries scaled by 1, 2 or 3: classes stay coordinate subspaces,
    orbits are finite, and the chain F_1 < ... < F_{n-1} plants the verdict
    Finite(n - 1) once every rank occurs.  Otherwise the block is a random
    nonsingular matrix with entries in -2..2, and lines inside the flags have
    infinite orbits, so walks get cut and the verdict is Unknown.
    """
    nv = max(2, n_edges // 2)
    pairs = [(rng.randrange(i), i) for i in range(1, nv)]
    while len(pairs) < n_edges:
        a = rng.randrange(nv)
        pairs.append((a, a if rng.random() < 0.2 else rng.randrange(nv)))
    rng.shuffle(pairs)

    def end(r):
        if finite:
            perm = rng.sample(range(r), r)
            block = [[rng.choice((-3, -2, -1, 1, 2, 3)) if j == perm[i] else 0
                      for j in range(r)] for i in range(r)]
        else:
            block = [[0]]
            while not RatMatrix.from_rows(block).det():
                block = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        return block + [[0] * r for _ in range(n - r)]

    edges = []
    for k, (a, b) in enumerate(pairs):
        r = rng.randint(1, n - 1)
        edges.append({"id": f"e{k}", "rank": r, "ends": [
            {"vertex": f"v{a}", "matrix": end(r)}, {"vertex": f"v{b}", "matrix": end(r)}]})
    return graph_from_dict({"oracle": "abelian", "edges": edges,
                            "vertices": [{"id": f"v{i}", "rank": n} for i in range(nv)]})


def fixture_path(name):
    return FIXTURES / f"{name}.json"


def graph_fixture_paths():
    """The fixtures that are valid graphs: no pattern, no invalid input."""
    return [p for p in sorted(FIXTURES.glob("*.json"))
            if not p.stem.startswith("pattern") and validate(load_graph(p)).ok]


@pytest.fixture
def graph():
    def _load(name):
        return load_graph(fixture_path(name))
    return _load
