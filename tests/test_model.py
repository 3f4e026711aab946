"""Graph model validation and the JSON wire format."""

import ast
import enum
import json
import pathlib
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import (GraphLoadError, GraphOfGroups, EdgeEnd, EdgeSpec, VertexSpec,
                    graph_from_dict, graph_to_dict, load_graph, validate)
from gogkit import exactlin
from gogkit.exactlin import RatMatrix, RationalSubspace, canonicalize, cached
from gogkit.model import render_json

from conftest import FIXTURES, fixture_path


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


def _heis_with(edit):
    doc = graph_to_dict(load_graph(FIXTURES / "heis.json"))
    edit(doc)
    return doc


_JSON_VIOLATIONS = [   # (edit of heis.json, one exact violation it brings)
    (lambda d: d["classes"]["v"].update(labels=[]), "vertex v: no class labels declared"),
    (lambda d: d["indices"].pop("e"), "edge e: missing or malformed index pair"),
    (lambda d: d["indices"].update(e=[0, 2]),
     'edge e end 0: index must be a positive integer or "inf"'),
    (lambda d: d["transport"].pop("e"), "edge e: transport table must give one map per end"),
    (lambda d: d["vertices"][0].update(rank=-1), "vertex v: negative rank"),
    (lambda d: d["edges"][0].update(rank=-1), "edge e: negative rank"),
]


@pytest.mark.parametrize("edit, message", _JSON_VIOLATIONS,
                         ids=["empty_labels", "no_indices", "index_zero", "no_transport",
                              "negative_vertex_rank", "negative_edge_rank"])
def test_validate_names_each_json_violation(edit, message):
    assert message in validate(graph_from_dict(_heis_with(edit))).violations


def test_gog_validate_exits_one_on_a_json_violation(tmp_path, capsys):
    from gogkit.cli import main

    path = tmp_path / "g.json"
    path.write_text(json.dumps(_heis_with(lambda d: d["indices"].update(e=[0, 2]))))
    assert main(["validate", str(path)]) == 1
    assert 'edge e end 0: index must be a positive integer or "inf"' in capsys.readouterr().out


def _api_violations():
    """(graph, one exact violation) for inputs that no JSON document decodes to."""
    heis = load_graph(FIXTURES / "heis.json")
    e = heis.edges[0]
    one = RatMatrix.identity(1)
    v = (VertexSpec("v", 1),)
    return [
        (heis._replace(table=None), "table oracle selected but no table data present"),
        (heis._replace(edges=(e._replace(ends=(EdgeEnd("v"), e.ends[1])),) + heis.edges[1:]),
         "edge e end 0: no class label"),
        (GraphOfGroups(v, (EdgeSpec("e", 1, (EdgeEnd("v"), EdgeEnd("v", one))),)),
         "edge e end 0: abelian mode requires a matrix"),
        (GraphOfGroups(v, (EdgeSpec("e", 1, (EdgeEnd("v", one), EdgeEnd(
            "v", RatMatrix.from_rows([[Fraction(1, 2)]])))),)),
         "edge e end 1: matrix entries must be integers"),
        (GraphOfGroups(v, (), "free"), "unknown oracle mode 'free'"),
    ]


@pytest.mark.parametrize("g, message", _api_violations(),
                         ids=["no_table", "no_class", "no_matrix", "fraction_matrix",
                              "unknown_mode"])
def test_validate_names_each_api_only_violation(g, message):
    assert message in validate(g).violations


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


CACHED = [   # (owner class, attribute, a maker of fresh equal records)
    (RationalSubspace, "_normals", lambda: canonicalize([(2, 4, 0), (0, 0, 3)])),
    (RatMatrix, "_span", lambda: RatMatrix.from_rows([[1, 2], [0, -3], [4, 1]])),
    (RatMatrix, "_det", lambda: RatMatrix.from_rows([[2, 1], [1, Fraction(3, 2)]])),
    (RatMatrix, "_left_inverse", lambda: RatMatrix.from_rows([[1, 2], [0, -3], [4, 1]])),
    (GraphOfGroups, "_index", lambda: load_graph(fixture_path("arc3"))),
    (GraphOfGroups, "_oracle", lambda: load_graph(fixture_path("arc3"))),
]


@pytest.mark.parametrize("owner, name, make", CACHED, ids=[c[1] for c in CACHED])
def test_cached_attribute_contract(monkeypatch, owner, name, make):
    """Each cache is computed once per record and stored in its `__dict__`, takes
    no part in `==`, `hash` or `repr`, and a `_replace` copy computes its own."""
    attr = vars(owner)[name]
    assert isinstance(attr, cached) and getattr(owner, name) is attr
    calls = []
    monkeypatch.setattr(attr, "fn", lambda obj, fn=attr.fn: calls.append(obj) or fn(obj))
    x, fresh = make(), make()
    value = getattr(x, name)
    assert getattr(x, name) is value and vars(x)[name] is value
    assert len(calls) == 1 and calls[0] is x
    assert name not in vars(fresh)
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
    copy = x._replace()
    assert name not in vars(copy)
    own = getattr(copy, name)
    assert vars(copy)[name] is own and len(calls) == 2 and calls[1] is copy


def test_no_module_uses_cached_property():
    """`exactlin.cached` is the one cache idiom: on Python 3.10 and 3.11
    `functools.cached_property` takes a lock on every first read."""
    for path in sorted(pathlib.Path(exactlin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            assert "cached_property" not in names, path.name


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


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_LISTS = [list("abcd"), ["a\u00e9\n", '"q"', "\ud800", "", "x"], list(range(-2, 6)), [10 ** 30] * 5,
          [True, False, True, False], [1, True, 2, False], [0, 1, 2, False],
          [_Level.LOW, _Level.HIGH, 3, 4], [_Level.LOW] * 4, [1, 2, 3, _Level.HIGH],
          [_Text("a"), "b", "c", "d"], ["a", "b", "c", _Text("d")], [_Text("t")] * 4,
          [], (), ("a", "b", "c", "d", "e"), (1, 2, 3, 4), ["a"], [1], ["a", "b"], [1, 2, 3],
          [["a", "b", "c", "d"], [1, 2, 3, 4], [], ["x"]], [[[1, 2, 3, 4]] * 4] * 2,
          ["a", "b", "c", 1], [1, 2, 3, "d"], [1, 2, 3, 4.5], [1, 2, 3, None], ["a", "b", "c", None],
          [{"k": [1, 2, 3, 4]}, {"k": ("a", "b", "c", "d")}]]


@pytest.mark.parametrize("items", _LISTS + [{"nested": _LISTS}], ids=repr)
def test_render_json_lists_equal_the_dump(items):
    """Lists of only exact `str` or only exact `int` are written in one join;
    bools, an IntEnum, a `str` subclass, a float or None among the items, and
    short, empty, tuple and nested lists, all render as json.dumps does."""
    assert render_json(items) == json.dumps(items, indent=2, sort_keys=True)
    assert render_json({"x": [items]}) == json.dumps({"x": [items]}, indent=2, sort_keys=True)


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


# The reader as it was before its JSON paths were formatted lazily: every
# path is built eagerly, so its messages are the reference for the lazy one.

def _old_typed(x, kind, where):
    import reprlib
    kinds = {int: "an exact integer", str: "a string", bool: "true or false",
             list: "an array", dict: "an object"}
    if isinstance(x, kind) and not (kind is int and isinstance(x, bool)):
        return x
    raise GraphLoadError(f"{where}: expected {kinds[kind]}, got {reprlib.repr(x)}")


def _old_pair(x, where, of):
    if len(_old_typed(x, list, where)) != 2:
        raise GraphLoadError(f"{where}: need a pair of {of}")
    return x


def _old_int_rows(m, where):
    for i, r in enumerate(_old_typed(m, list, where)):
        for j, x in enumerate(_old_typed(r, list, f"{where}[{i}]")):
            _old_typed(x, int, f"{where}[{i}][{j}]")
    if len({*map(len, m)}) > 1:
        raise GraphLoadError(f"{where}: ragged matrix")
    return m


def _old_graph_from_dict(doc):
    import reprlib

    from gogkit.model import INFINITE, TableData
    typed, pair = _old_typed, _old_pair
    mode = typed(doc, dict, "top level").get("oracle", "abelian")
    if mode not in ("abelian", "table"):
        raise GraphLoadError(f'oracle must be "abelian" or "table", got {reprlib.repr(mode)}')
    verts = []
    for i, v in enumerate(typed(doc.get("vertices", []), list, "vertices")):
        v = typed(v, dict, f"vertices[{i}]")
        verts.append(VertexSpec(typed(v.get("id"), str, f"vertices[{i}].id"),
                                typed(v.get("rank"), int, f"vertices[{i}].rank")))
    edges = []
    for i, e in enumerate(typed(doc.get("edges", []), list, "edges")):
        e = typed(e, dict, f"edges[{i}]")
        eid = typed(e.get("id"), str, f"edges[{i}].id")
        ends = []
        for j, end in enumerate(pair(e.get("ends"), f"edges[{i}].ends", "ends")):
            where = f"edges[{i}].ends[{j}]"
            end = typed(end, dict, where)
            vid = typed(end.get("vertex"), str, f"{where}.vertex")
            if mode == "abelian":
                rows = _old_int_rows(end.get("matrix"), f"{where}.matrix")
                ends.append(EdgeEnd(vid, matrix=RatMatrix(
                    len(rows), len(rows[0]) if rows else 0, tuple(map(tuple, rows)))))
            else:
                ends.append(EdgeEnd(vid, class_label=typed(end.get("class"), str,
                                                           f"{where}.class")))
        edges.append(EdgeSpec(eid, typed(e.get("rank"), int, f"edges[{i}].rank"), tuple(ends)))
    table = None
    if mode == "table":
        labels, top = {}, {}
        for vid, c in typed(doc.get("classes"), dict, "classes").items():
            c = typed(c, dict, f"classes[{vid}]")
            labels[vid] = tuple(typed(s, str, f"classes[{vid}].labels[{k}]") for k, s in
                                enumerate(typed(c.get("labels"), list, f"classes[{vid}].labels")))
            top[vid] = typed(c.get("top"), str, f"classes[{vid}].top")
        order = {}
        for vid, pairs in typed(doc.get("order", {}), dict, "order").items():
            order[vid] = tuple(
                tuple(typed(s, str, f"order[{vid}][{k}][{j}]")
                      for j, s in enumerate(pair(ab, f"order[{vid}][{k}]", "labels")))
                for k, ab in enumerate(typed(pairs, list, f"order[{vid}]")))
        transport = {}
        for eid, maps in typed(doc.get("transport", {}), dict, "transport").items():
            transport[eid] = tuple(
                {k: typed(v, str, f"transport[{eid}][{j}][{k}]")
                 for k, v in typed(mp, dict, f"transport[{eid}][{j}]").items()}
                for j, mp in enumerate(pair(maps, f"transport[{eid}]", "maps")))
        indices = {}
        for eid, ab in typed(doc.get("indices", {}), dict, "indices").items():
            indices[eid] = tuple(x if x == INFINITE else typed(x, int, f"indices[{eid}][{j}]")
                                 for j, x in enumerate(pair(ab, f"indices[{eid}]", "indices")))
        pd_flags = {}
        for vid, flags in typed(doc.get("pd_flags", {}), dict, "pd_flags").items():
            pd_flags[vid] = dict(typed(flags, dict, f"pd_flags[{vid}]"))
            typed(flags.get("is_coarse_pd"), bool, f"pd_flags[{vid}].is_coarse_pd")
            if "coarse_dim" in flags:
                typed(flags["coarse_dim"], int, f"pd_flags[{vid}].coarse_dim")
        table = TableData(labels, top, order, transport, indices, pd_flags)
    return GraphOfGroups(tuple(verts), tuple(edges), mode, table)


_WRONG = (None, True, 7, -1, 2.5, "x", "{}", [], [1], [[1, "a"]], {}, {"id": 1})


def _mutants(doc):
    """Copies of `doc` with one field or item, at any depth, deleted or replaced
    by a value of another JSON type (a JSON path with "{}" in it included)."""
    import copy

    def paths(x, at=()):
        if isinstance(x, dict):
            for k, v in x.items():
                yield at + (k,), v
                yield from paths(v, at + (k,))
        elif isinstance(x, list):
            for k, v in enumerate(x):
                yield at + (k,), v
                yield from paths(v, at + (k,))

    for path, old in list(paths(doc)):
        for new in ("delete",) + tuple(w for w in _WRONG if type(w) is not type(old)):
            out = copy.deepcopy(doc)
            parent = out
            for k in path[:-1]:
                parent = parent[k]
            if new == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(new)
            yield out
    braced = copy.deepcopy(doc)    # a vertex id with braces is formatted, not parsed
    for name in ("classes", "order", "pd_flags", "transport", "indices"):
        if isinstance(braced.get(name), dict) and braced[name]:
            key = next(iter(braced[name]))
            braced[name] = {"{0}" + key: 5, **braced[name]}
    yield braced


def _outcome(read, doc):
    try:
        return "ok", read(doc)
    except Exception as e:    # the message, and the type, are what is compared
        return type(e).__name__, str(e)


@pytest.mark.parametrize("path", [p for p in sorted(FIXTURES.glob("*.json"))
                                  if not p.stem.startswith("pattern")], ids=lambda p: p.stem)
def test_load_errors_name_the_paths_the_eager_reader_named(path):
    """Each field of each graph fixture, deleted or given a value of the wrong
    type, gives the same GraphLoadError message (or the same graph) as the
    reader that formatted every JSON path up front."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    count = 0
    for mutant in _mutants(doc):
        expected = _outcome(_old_graph_from_dict, mutant)
        assert _outcome(graph_from_dict, mutant) == expected, expected
        count += expected[0] == "GraphLoadError"
    assert count > 50
