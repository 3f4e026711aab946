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


def fixture_path(name):
    return FIXTURES / f"{name}.json"


@pytest.fixture
def graph():
    def _load(name):
        return load_graph(fixture_path(name))
    return _load
