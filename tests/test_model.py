"""Graph model validation and the JSON wire format."""

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import (GraphLoadError, GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec,
                    graph_from_dict, graph_to_dict, load_graph, validate)
from gogkit.exactlin import RatMatrix
from gogkit.model import render_json

from conftest import FIXTURES


def test_worked_example_is_valid(graph):
    assert validate(graph("arc3")).ok


def test_single_vertex_no_edges_is_valid():
    g = GraphOfGroups((VertexSpec("v", 2),), ())
    assert validate(g).ok


def test_rank_deficient_matrix_reported(graph):
    report = validate(graph("invalid_rank_deficient"))
    assert any("non-injective" in v for v in report.violations)


def test_dangling_vertex_reference():
    g = GraphOfGroups(
        (VertexSpec("v", 1),),
        (EdgeSpec("e", 1, (EdgeEnd("v", RatMatrix.identity(1)),
                           EdgeEnd("ghost", RatMatrix.identity(1)))),),
    )
    assert any("dangling" in v for v in validate(g).violations)
    # a dangling id joins nothing: b, which touches no edge, stays unreached
    g = GraphOfGroups(
        (VertexSpec("a", 1), VertexSpec("b", 1)),
        (EdgeSpec("e", 1, (EdgeEnd("a", RatMatrix.identity(1)),
                           EdgeEnd("x", RatMatrix.identity(1)))),),
    )
    violations = validate(g).violations
    assert any("dangling" in v for v in violations)
    assert "underlying graph is not connected" in violations


def test_disconnected_graph_reported():
    g = GraphOfGroups((VertexSpec("a", 1), VertexSpec("b", 1)), ())
    assert any("not connected" in v for v in validate(g).violations)


def test_empty_graph_reported():
    assert not validate(GraphOfGroups((), ())).ok


def test_shape_mismatch_reported():
    g = GraphOfGroups(
        (VertexSpec("v", 2),),
        (EdgeSpec("e", 1, (EdgeEnd("v", RatMatrix.from_rows([[1], [0]])),
                           EdgeEnd("v", RatMatrix.from_rows([[1]])))),),
    )
    assert any("shape" in v for v in validate(g).violations)


def test_edge_vertex_id_collision_reported():
    g = GraphOfGroups(
        (VertexSpec("x", 1),),
        (EdgeSpec("x", 1, (EdgeEnd("x", RatMatrix.from_rows([[2]])),
                           EdgeEnd("x", RatMatrix.from_rows([[2]])))),),
    )
    assert any("collides" in v for v in validate(g).violations)


def test_floats_rejected(tmp_path):
    doc = {"oracle": "abelian",
           "vertices": [{"id": "v", "rank": 1}],
           "edges": [{"id": "e", "rank": 1,
                      "ends": [{"vertex": "v", "matrix": [[1.0]]},
                               {"vertex": "v", "matrix": [[1]]}]}]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphLoadError, match="exact integer"):
        load_graph(p)


def test_garbled_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"oracle": "abelian",\n  "vertices": [}')
    with pytest.raises(GraphLoadError, match=r"line 2, column"):
        load_graph(p)


def test_round_trip_abelian(graph):
    g = graph("arc3")
    assert graph_from_dict(graph_to_dict(g)) == g


def test_round_trip_table(graph):
    g = graph("heis")
    g2 = graph_from_dict(graph_to_dict(g))
    assert graph_to_dict(g2) == graph_to_dict(g)
    assert validate(g2).ok


def test_table_fixtures_valid(graph):
    assert validate(graph("heis")).ok
    assert validate(graph("nonex")).ok


def test_table_order_must_be_transitive(graph):
    doc = graph_to_dict(graph("nonex"))
    doc["order"]["v"] = [["F2", "F1"], ["F1", "top"]]   # F2<=top missing
    report = validate(graph_from_dict(doc))
    assert any("transitive" in v for v in report.violations)


def test_table_transport_totality_checked(graph):
    doc = graph_to_dict(graph("nonex"))
    doc["transport"]["e"][0].pop("F2")
    report = validate(graph_from_dict(doc))
    assert any("transport undefined" in v for v in report.violations)


def test_table_index_class_consistency(graph):
    doc = graph_to_dict(graph("heis"))
    doc["indices"]["e"] = ["inf", 2]   # index inf but class is the top
    report = validate(graph_from_dict(doc))
    assert any("finite index iff" in v for v in report.violations)


def test_table_transport_must_link_end_classes(graph):
    doc = graph_to_dict(graph("nonex"))
    doc["transport"]["e"][0]["F1"] = "F1"   # must land on the other end class F2
    report = validate(graph_from_dict(doc))
    assert any("opposite end class" in v for v in report.violations)


def _loop(eid, vid, m=1):
    return EdgeSpec(eid, 1, (EdgeEnd(vid, RatMatrix.from_rows([[m]])),
                             EdgeEnd(vid, RatMatrix.from_rows([[m]]))))


def test_lookup_duplicate_ids_first_match():
    g = GraphOfGroups((VertexSpec("v", 1), VertexSpec("v", 2)),
                      (_loop("e", "v", 2), _loop("e", "v", 3)))
    assert g.vertex("v") is g.vertices[0]
    assert g.edge("e") is g.edges[0]


def test_lookup_unknown_id_raises_key_error():
    g = GraphOfGroups((VertexSpec("v", 1),), (_loop("e", "v"),))
    with pytest.raises(KeyError, match="no vertex 'w'"):
        g.vertex("w")
    with pytest.raises(KeyError, match="no edge 'f'"):
        g.edge("f")


def test_ends_at_follows_edge_order_and_loops_give_both_ends():
    one = RatMatrix.from_rows([[1]])
    g = GraphOfGroups(
        (VertexSpec("u", 1), VertexSpec("v", 1)),
        (EdgeSpec("z", 1, (EdgeEnd("u", one), EdgeEnd("v", one))),
         _loop("a", "v"),
         EdgeSpec("m", 1, (EdgeEnd("v", one), EdgeEnd("u", one)))),
    )
    assert [(e.id, i) for e, i in g.ends_at("v")] == [("a", 0), ("a", 1), ("m", 0), ("z", 1)]
    assert [(e.id, i) for e, i in g.ends_at("u")] == [("m", 1), ("z", 0)]
    assert g.ends_at("nowhere") == []


def test_ends_at_result_is_a_copy():
    g = GraphOfGroups((VertexSpec("v", 1),), (_loop("e", "v"),))
    g.ends_at("v").clear()
    assert len(g.ends_at("v")) == 2


def test_index_is_not_part_of_the_value(graph):
    g, fresh = graph("arc3"), graph("arc3")
    g.edge("f")
    assert g == fresh and repr(g) == repr(fresh)
    assert graph_to_dict(g) == graph_to_dict(fresh)


@pytest.mark.parametrize("name", ["arc3", "heis"])
def test_one_oracle_per_graph(graph, name):
    g, fresh = graph(name), graph(name)
    orc = g.oracle()
    assert g.oracle() is orc and orc.g is g
    assert g == fresh and repr(g) == repr(fresh)
    copy = g._replace()
    assert copy == g and copy.oracle() is not orc and copy.oracle().g is copy


def test_validate_reports_bad_graphs_without_raising():
    one = RatMatrix.identity(1)
    dangling = GraphOfGroups(
        (VertexSpec("v", 1), VertexSpec("v", 1)),
        (EdgeSpec("e", 1, (EdgeEnd("v", one), EdgeEnd("ghost", one))),
         EdgeSpec("e", 1, (EdgeEnd("ghost", one), EdgeEnd("v", one)))),
    )
    report = validate(dangling)
    assert "duplicate vertex ids" in report.violations
    assert "duplicate edge ids" in report.violations
    assert any("dangling vertex reference 'ghost'" in v for v in report.violations)
    three = GraphOfGroups(
        (VertexSpec("v", 1),),
        (EdgeSpec("e", 1, (EdgeEnd("v", one),) * 3),),
    )
    assert "edge e: must have exactly two ends" in validate(three).violations


class _Pair(NamedTuple):
    a: object
    b: object


class _Text(str):
    pass


_text = st.text(st.sampled_from('"\\/\n\r\t\b\x00\x1f\x7f a\u00e9\u2028\ud800\U0001f600')
                | st.characters(), max_size=6)
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200)
            | st.integers(-2 ** 200, -2 ** 64) | st.floats() | _text | st.builds(_Text, _text))


def _containers(kids):
    return (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
            | st.builds(_Pair, kids, kids)
            | st.dictionaries(_text, kids, max_size=4)
            | st.dictionaries(st.integers(-3, 3) | st.booleans(), kids, max_size=4))


@given(st.recursive(_scalars, _containers, max_leaves=24))
@settings(max_examples=300, deadline=None)
def test_render_json_equals_the_indented_sorted_dump(doc):
    """Escapes, big ints, floats with nan and inf, tuples, empty containers,
    subclasses and int or bool keys all render as json.dumps renders them."""
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["arc3", "arc4", "bs22", "f2xz", "heis", "nonex",
                                  "shear_unknown", "thm14", "z2hnn"])
def test_reduce_output_graph_is_the_indented_sorted_dump(tmp_path, capsys, name):
    from gogkit import complete_reduce
    from gogkit.cli import main

    out = tmp_path / "reduced.json"
    assert main(["reduce", str(FIXTURES / f"{name}.json"), "-o", str(out)]) == 0
    reduced = complete_reduce(load_graph(FIXTURES / f"{name}.json"))
    assert out.read_text(encoding="utf-8") == \
        json.dumps(graph_to_dict(reduced), indent=2, sort_keys=True) + "\n"
