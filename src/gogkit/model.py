"""Data model for finite graphs of groups and their JSON serialization.

Two oracle modes are supported.  In "abelian" mode every vertex group is a
finitely generated abelian group, recorded by its rank (torsion is discarded:
it never affects commensurability), and each edge end carries an integer
injection matrix of shape n_vertex x n_edge with full column rank.  In
"table" mode the commensurability data is declared directly: per-end class
labels, a preorder on labels at each vertex, transport tables across edges,
and index values.  Table mode exists so that worked non-abelian examples can
be analyzed without implementing group-element arithmetic.

All values are immutable after construction; operations elsewhere in the
package are pure functions over them.  A graph builds its id and incidence
index, and its oracle, on first use; both are caches, not part of the value.
The incidence index lists each vertex's edge ends sorted by (edge id, end
index), so every walk over them sees one order.  An edge matrix caches its
own column span and determinant the same way, so `validate`'s injectivity
check, the oracle's end classes and indices, and every graph `collapse`
returns with that matrix share one elimination and one determinant; the
abelian oracle itself caches only transport results.

Loading checks types as it reads.  Ids, end vertex references and every
class label (of ends, classes, order pairs and transport maps) must be JSON
strings, matrix entries and `coarse_dim` exact integers and `is_coarse_pd` a
bool; anything else raises GraphLoadError naming its JSON path.
Checked integer rows are already a matrix in lowest terms over denominator
1, so each edge matrix is built from them directly, with no Fraction pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .exactlin import RatMatrix

INFINITE = "inf"


class GraphLoadError(ValueError):
    """Structurally unusable input: bad JSON, bad shapes, bad types."""


class UnknownId(KeyError):
    """A vertex or edge id the graph does not have."""


@dataclass(frozen=True)
class VertexSpec:
    id: str
    rank: int


@dataclass(frozen=True)
class EdgeEnd:
    vertex: str
    matrix: RatMatrix | None = None   # abelian mode
    class_label: str | None = None    # table mode


@dataclass(frozen=True)
class EdgeSpec:
    id: str
    rank: int
    ends: tuple[EdgeEnd, EdgeEnd]

    def is_loop(self) -> bool:
        return self.ends[0].vertex == self.ends[1].vertex


@dataclass(frozen=True)
class TableData:
    """Declared commensurability data for table mode.

    labels: vertex id -> tuple of class labels usable at that vertex.
    top: vertex id -> the label of the vertex group's own class.
    order: vertex id -> tuple of (a, b) pairs meaning a <= b. Reflexivity
        is implicit; transitivity is a validation requirement.
    transport: edge id -> (map for entering end 0, map for entering end 1);
        each map sends labels at the entered end's vertex to labels at the
        opposite end's vertex.
    indices: edge id -> pair of positive ints or "inf".
    pd_flags: optional vertex id -> {"is_coarse_pd": bool, "coarse_dim": int}.
    """

    labels: dict
    top: dict
    order: dict
    transport: dict
    indices: dict
    pd_flags: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GraphOfGroups:
    vertices: tuple[VertexSpec, ...]
    edges: tuple[EdgeSpec, ...]
    oracle_mode: str = "abelian"      # "abelian" | "table"
    table: TableData | None = None

    @cached_property
    def _index(self):
        """id -> vertex and id -> edge (first match wins), and vertex id ->
        incident (edge, end index) pairs sorted by (edge id, end index)."""
        vertices, edges, ends = {}, {}, {}
        for v in self.vertices:
            vertices.setdefault(v.id, v)
        for e in sorted(self.edges, key=lambda e: e.id):
            edges.setdefault(e.id, e)
            for i, end in enumerate(e.ends):
                ends.setdefault(end.vertex, []).append((e, i))
        return vertices, edges, ends

    def vertex(self, vid: str) -> VertexSpec:
        v = self._index[0].get(vid)
        if v is None:
            raise UnknownId(f"no vertex {vid!r}")
        return v

    def edge(self, eid: str) -> EdgeSpec:
        e = self._index[1].get(eid)
        if e is None:
            raise UnknownId(f"no edge {eid!r}")
        return e

    @property
    def edge_index(self):   # edge id -> edge, first match wins
        return self._index[1]

    def vertex_ids(self):
        return [v.id for v in self.vertices]

    def edge_ids(self):
        return [e.id for e in self.edges]

    def ends_at(self, vid: str):
        """All (edge, end_index) incident to a vertex, sorted by (edge id, end
        index); loops contribute both ends."""
        return list(self._index[2].get(vid, ()))

    @cached_property
    def _oracle(self):
        from .oracle import AbelianOracle, TableOracle
        if self.oracle_mode == "abelian":
            return AbelianOracle(self)
        return TableOracle(self)

    def oracle(self):
        """This graph's one oracle, so its class and transport caches are shared."""
        return self._oracle


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected(g: GraphOfGroups) -> bool:
    if not g.vertices:
        return False
    seen = {g.vertices[0].id}
    frontier = [g.vertices[0].id]
    while frontier:
        for (e, _) in g.ends_at(frontier.pop()):
            for end in e.ends:
                if end.vertex not in seen:
                    seen.add(end.vertex)
                    frontier.append(end.vertex)
    return len(seen) == len(g.vertices)


def _validate_table(g: GraphOfGroups, bad):
    t = g.table
    if t is None:
        bad("table oracle selected but no table data present")
        return
    vids = set(g.vertex_ids())
    labels_at = {vid: set(t.labels.get(vid, ())) for vid in vids}
    order_at = {vid: set(t.order.get(vid, ())) for vid in vids}
    for vid in vids:
        if not labels_at[vid]:
            bad(f"vertex {vid}: no class labels declared")
            continue
        labels = labels_at[vid]
        top = t.top.get(vid)
        if top not in labels:
            bad(f"vertex {vid}: top class {top!r} not among its labels")
        pairs = order_at[vid]
        for (a, b) in pairs:
            if a not in labels or b not in labels:
                bad(f"vertex {vid}: order pair ({a},{b}) uses undeclared labels")
        # Preorder check: reflexivity is implicit, transitivity must hold.
        rel = pairs | {(a, a) for a in labels}
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    bad(f"vertex {vid}: order not transitive ({a}<={b}, {c}<={d})")
        for lab in labels:
            if top in labels and (lab, top) not in rel:
                bad(f"vertex {vid}: label {lab} not below the top class")

    def leq(vid, a, b):
        return a == b or (a, b) in order_at[vid]

    for e in g.edges:
        idx = t.indices.get(e.id)
        if not (isinstance(idx, (list, tuple)) and len(idx) == 2):
            bad(f"edge {e.id}: missing or malformed index pair")
            idx = (INFINITE, INFINITE)
        for i, end in enumerate(e.ends):
            if end.class_label is None:
                bad(f"edge {e.id} end {i}: no class label")
                continue
            if end.vertex in vids and end.class_label not in labels_at[end.vertex]:
                bad(f"edge {e.id} end {i}: class {end.class_label!r} undeclared at {end.vertex}")
            iv = idx[i]
            if iv != INFINITE and (not isinstance(iv, int) or iv < 1):
                bad(f"edge {e.id} end {i}: index must be a positive integer or \"inf\"")
            if end.vertex in vids and end.class_label in labels_at[end.vertex]:
                is_top = end.class_label == t.top.get(end.vertex)
                if (iv != INFINITE) != is_top:
                    bad(f"edge {e.id} end {i}: finite index iff end class is the vertex top "
                        f"(index {iv}, class {end.class_label})")
        maps = t.transport.get(e.id)
        if not (isinstance(maps, (list, tuple)) and len(maps) == 2):
            bad(f"edge {e.id}: transport table must give one map per end")
            continue
        for i in (0, 1):
            end, other = e.ends[i], e.ends[1 - i]
            if end.vertex not in vids or other.vertex not in vids:
                continue
            here, there = labels_at[end.vertex], labels_at[other.vertex]
            mp = maps[i]
            # Both end classes name the class of the same edge group, so
            # transport must identify them.
            if (end.class_label in mp
                    and mp[end.class_label] != other.class_label):
                bad(f"edge {e.id} end {i}: transport sends the end class "
                    f"{end.class_label} to {mp[end.class_label]}, not to the "
                    f"opposite end class {other.class_label}")
            for lab in sorted(here):
                if end.class_label in here and leq(end.vertex, lab, end.class_label):
                    if lab not in mp:
                        bad(f"edge {e.id} end {i}: transport undefined on {lab} "
                            f"(below end class {end.class_label})")
                    elif mp[lab] not in there:
                        bad(f"edge {e.id} end {i}: transport of {lab} hits undeclared "
                            f"label {mp[lab]!r} at {other.vertex}")
            # Transport must respect the declared order where defined.
            for a in sorted(mp):
                for b in sorted(mp):
                    if leq(end.vertex, a, b) and not leq(other.vertex, mp[a], mp[b]):
                        bad(f"edge {e.id} end {i}: transport does not preserve "
                            f"{a}<={b}")


def validate(g: GraphOfGroups) -> ValidationReport:
    """Check every structural invariant; the report lists all violations."""
    out = []
    bad = out.append
    if not g.vertices:
        bad("graph has no vertices")
    vids = [v.id for v in g.vertices]
    vid_set = set(vids)
    if len(vid_set) != len(vids):
        bad("duplicate vertex ids")
    eids = [e.id for e in g.edges]
    if len(set(eids)) != len(eids):
        bad("duplicate edge ids")
    for eid in eids:
        if eid in vid_set:
            bad(f"edge id {eid!r} collides with a vertex id")
    for v in g.vertices:
        if v.rank < 0:
            bad(f"vertex {v.id}: negative rank")
    vmap = {v.id: v for v in g.vertices}
    for e in g.edges:
        if e.rank < 0:
            bad(f"edge {e.id}: negative rank")
        if len(e.ends) != 2:
            bad(f"edge {e.id}: must have exactly two ends")
            continue
        for i, end in enumerate(e.ends):
            if end.vertex not in vmap:
                bad(f"edge {e.id} end {i}: dangling vertex reference {end.vertex!r}")
                continue
            if g.oracle_mode == "abelian":
                m = end.matrix
                if m is None:
                    bad(f"edge {e.id} end {i}: abelian mode requires a matrix")
                    continue
                nv = vmap[end.vertex].rank
                if m.rows != nv or m.cols != e.rank:
                    bad(f"edge {e.id} end {i}: matrix shape {m.rows}x{m.cols}, "
                        f"expected {nv}x{e.rank}")
                    continue
                if m.den != 1:
                    bad(f"edge {e.id} end {i}: matrix entries must be integers")
                rank = m.rank()     # the cached column span that class_of reads
                if rank != e.rank:
                    bad(f"edge {e.id} end {i}: non-injective edge map "
                        f"(rank {rank} < {e.rank})")
    if g.vertices and not _connected(g):
        bad("underlying graph is not connected")
    if g.oracle_mode == "table":
        _validate_table(g, bad)
    elif g.oracle_mode != "abelian":
        bad(f"unknown oracle mode {g.oracle_mode!r}")
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# JSON input / output
#
# {"oracle": "abelian" | "table",
#  "vertices": [{"id": ..., "rank": ...}, ...],
#  "edges": [{"id": ..., "rank": ...,
#             "ends": [{"vertex": ..., "matrix": [[...], ...]}, {...}]}, ...],
#  ... table mode adds "classes", "order", "transport", "indices",
#      optional "pd_flags"; ends then carry "class" instead of "matrix"}
# Ids, end vertices and every class label are strings; matrices are exact
# integers; PD flags are a bool and an int; floats are rejected outright.
# ---------------------------------------------------------------------------


def _int_strict(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        raise GraphLoadError(f"{where}: expected an exact integer, got {x!r}")
    return x


def _string(x, where):
    if not isinstance(x, str):
        raise GraphLoadError(f"{where}: expected a string, got {x!r}")
    return x


def _strings(x, where):
    """The JSON array `x` of strings as a tuple; element k is checked at where[k]."""
    return tuple(_string(s, f"{where}[{k}]") for k, s in enumerate(_array(x, where)))


def _array(x, where):
    if not isinstance(x, list):
        raise GraphLoadError(f"{where}: expected an array, got {x!r}")
    return x


def _object(x, where):
    if not isinstance(x, dict):
        raise GraphLoadError(f"{where}: expected an object, got {x!r}")
    return x


def int_rows(m, where):
    """`m` as a list of equal-length rows of exact integers; GraphLoadError if not."""
    if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
        raise GraphLoadError(f"{where}: matrix must be an array of arrays")
    rows = [[_int_strict(x, where) for x in r] for r in m]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise GraphLoadError(f"{where}: ragged matrix")
    return rows


def graph_from_dict(doc) -> GraphOfGroups:
    if not isinstance(doc, dict):
        raise GraphLoadError("top level must be a JSON object")
    mode = doc.get("oracle", "abelian")
    if mode not in ("abelian", "table"):
        raise GraphLoadError(f'oracle must be "abelian" or "table", got {mode!r}')
    verts = []
    for i, v in enumerate(_array(doc.get("vertices", []), "vertices")):
        if not isinstance(v, dict) or "id" not in v:
            raise GraphLoadError(f"vertices[{i}]: need an object with id and rank")
        verts.append(VertexSpec(_string(v["id"], f"vertices[{i}].id"),
                                _int_strict(v.get("rank"), f"vertices[{i}].rank")))
    edges = []
    for i, e in enumerate(_array(doc.get("edges", []), "edges")):
        if not isinstance(e, dict) or "id" not in e:
            raise GraphLoadError(f"edges[{i}]: need an object with id, rank, ends")
        eid = _string(e["id"], f"edges[{i}].id")
        ends_doc = e.get("ends")
        if not isinstance(ends_doc, list) or len(ends_doc) != 2:
            raise GraphLoadError(f"edges[{i}]: ends must be a two-element array")
        ends = []
        for j, end in enumerate(ends_doc):
            where = f"edges[{i}].ends[{j}]"
            if not isinstance(end, dict) or "vertex" not in end:
                raise GraphLoadError(f"{where}: need an object with a vertex field")
            vid = _string(end["vertex"], f"{where}.vertex")
            if mode == "abelian":
                if "matrix" not in end:
                    raise GraphLoadError(f"{where}: abelian mode requires a matrix")
                rows = int_rows(end["matrix"], where)
                matrix = RatMatrix(len(rows), len(rows[0]) if rows else 0,
                                   tuple(map(tuple, rows)))
                ends.append(EdgeEnd(vid, matrix=matrix))
            else:
                if "class" not in end:
                    raise GraphLoadError(f"{where}: table mode requires a class label")
                ends.append(EdgeEnd(vid, class_label=_string(end["class"], f"{where}.class")))
        edges.append(EdgeSpec(eid, _int_strict(e.get("rank"), f"edges[{i}].rank"),
                              (ends[0], ends[1])))
    table = None
    if mode == "table":
        classes = doc.get("classes")
        if not isinstance(classes, dict):
            raise GraphLoadError("table mode requires a classes object")
        labels, top = {}, {}
        for vid, c in classes.items():
            if not isinstance(c, dict) or "labels" not in c or "top" not in c:
                raise GraphLoadError(f"classes[{vid}]: need labels and top")
            labels[vid] = _strings(c["labels"], f"classes[{vid}].labels")
            top[vid] = _string(c["top"], f"classes[{vid}].top")
        order = {}
        for vid, pairs in _object(doc.get("order", {}), "order").items():
            order[vid] = tuple(_strings(pair, f"order[{vid}][{k}]")
                               for k, pair in enumerate(_array(pairs, f"order[{vid}]")))
            for k, pair in enumerate(order[vid]):
                if len(pair) != 2:
                    raise GraphLoadError(f"order[{vid}][{k}]: need a pair of labels")
        transport = {}
        for eid, maps in _object(doc.get("transport", {}), "transport").items():
            if not isinstance(maps, list) or len(maps) != 2:
                raise GraphLoadError(f"transport[{eid}]: need one map per end")
            transport[eid] = tuple({k: _string(v, f"transport[{eid}][{j}][{k}]") for k, v in
                                    _object(mp, f"transport[{eid}][{j}]").items()}
                                   for j, mp in enumerate(maps))
        indices = {}
        for eid, pair in _object(doc.get("indices", {}), "indices").items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise GraphLoadError(f"indices[{eid}]: need a pair")
            vals = []
            for x in pair:
                if x == INFINITE:
                    vals.append(INFINITE)
                else:
                    vals.append(_int_strict(x, f"indices[{eid}]"))
            indices[eid] = tuple(vals)
        pd_flags = {}
        for vid, flags in _object(doc.get("pd_flags", {}), "pd_flags").items():
            pd_flags[vid] = dict(_object(flags, f"pd_flags[{vid}]"))
            if not isinstance(flags.get("is_coarse_pd"), bool):
                raise GraphLoadError(f"pd_flags[{vid}].is_coarse_pd: expected true or false, "
                                     f"got {flags.get('is_coarse_pd')!r}")
            if "coarse_dim" in flags:
                _int_strict(flags["coarse_dim"], f"pd_flags[{vid}].coarse_dim")
        table = TableData(labels, top, order, transport, indices, pd_flags)
    return GraphOfGroups(tuple(verts), tuple(edges), mode, table)


def read_json(path):
    """The decoded JSON document at `path`; GraphLoadError when unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise GraphLoadError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise GraphLoadError(
            f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def load_graph(path) -> GraphOfGroups:
    return graph_from_dict(read_json(path))


def graph_to_dict(g: GraphOfGroups) -> dict:
    doc = {
        "oracle": g.oracle_mode,
        "vertices": [{"id": v.id, "rank": v.rank} for v in sorted(g.vertices, key=lambda v: v.id)],
        "edges": [],
    }
    for e in sorted(g.edges, key=lambda e: e.id):
        ends = []
        for end in e.ends:
            if g.oracle_mode == "abelian":
                ends.append({"vertex": end.vertex, "matrix": end.matrix.int_rows()})
            else:
                ends.append({"vertex": end.vertex, "class": end.class_label})
        doc["edges"].append({"id": e.id, "rank": e.rank, "ends": ends})
    if g.oracle_mode == "table" and g.table is not None:
        t = g.table
        doc["classes"] = {v: {"labels": sorted(t.labels[v]), "top": t.top[v]}
                          for v in sorted(t.labels)}
        doc["order"] = {v: sorted(map(list, t.order[v])) for v in sorted(t.order)}
        doc["transport"] = {e: [dict(sorted(m.items())) for m in t.transport[e]]
                            for e in sorted(t.transport)}
        doc["indices"] = {e: list(t.indices[e]) for e in sorted(t.indices)}
        if t.pd_flags:
            doc["pd_flags"] = {v: dict(t.pd_flags[v]) for v in sorted(t.pd_flags)}
    return doc


def write_text(path, body):
    """Write `body` to the file at `path`; GraphLoadError when unwritable."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as e:
        raise GraphLoadError(f"cannot write {path}: {e}") from e


def dump_graph(g: GraphOfGroups, path):
    write_text(path, json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n")
