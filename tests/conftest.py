import pathlib

import pytest

from gogkit import load_graph

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
# walks reach about 1457 classes each, so its depth filtration takes minutes at
# the default horizon.  Its depth-zero rafts need no walk; v2 is a point raft.
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


def fixture_path(name):
    return FIXTURES / f"{name}.json"


@pytest.fixture
def graph():
    def _load(name):
        return load_graph(fixture_path(name))
    return _load
