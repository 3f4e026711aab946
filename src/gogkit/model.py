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
index), so every walk over them sees one order.  `seed_index` gives a new
graph an index its maker already holds: `collapse` hands on a patched copy
of its input's, equal to the one the new graph would build.  An edge
matrix caches its own column span and determinant the same way, so
`validate`'s injectivity check, the oracle's end classes and indices, and
every graph `collapse` returns with that matrix share one elimination and
one determinant; the abelian oracle itself caches only transport results.
`validate` builds the declared vertex-id set once, and checks a table
graph's transport against the preorder of that graph's own `TableOracle`.

Loading reads every field of both oracle modes through one typed reader:
`typed(x, kind, where)` returns a value of its declared JSON type (an exact
integer, a string, true or false, an array or an object) or raises
GraphLoadError as "<JSON path>: expected <type>, got <value>" (the value
abbreviated by `reprlib`, so the message stays short), and `pair`
adds the two-element check of ends, order pairs, transport maps and index
pairs.  A missing field reads as null, so it is named by its path the same
way.  Checked integer rows are already a matrix in lowest terms over
denominator 1, so each edge matrix is built from them directly.
"""

from __future__ import annotations

import json
import reprlib
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .exactlin import RatMatrix

INFINITE = "inf"


class GraphLoadError(ValueError):
    """Structurally unusable input: bad JSON, bad shapes, bad types."""


class UnknownId(KeyError):
    """A vertex or edge id the graph does not have."""


class VertexSpec(NamedTuple):
    id: str
    rank: int


class EdgeEnd(NamedTuple):
    vertex: str
    matrix: RatMatrix | None = None   # abelian mode
    class_label: str | None = None    # table mode


class EdgeSpec(NamedTuple):
    id: str
    rank: int
    ends: tuple[EdgeEnd, EdgeEnd]

    def is_loop(self) -> bool:
        return self.ends[0].vertex == self.ends[1].vertex


class TableData(NamedTuple):
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
    pd_flags: dict


class _Graph(NamedTuple):
    """The fields of GraphOfGroups."""
    vertices: tuple[VertexSpec, ...]
    edges: tuple[EdgeSpec, ...]
    oracle_mode: str = "abelian"      # "abelian" | "table"
    table: TableData | None = None


class GraphOfGroups(_Graph):
    """A finite graph of groups: the tuple of its fields, with no `__slots__`,
    so the index and the oracle are cached beside the value, outside `==`,
    `repr` and `hash`."""

    @cached_property
    def _index(self):
        """id -> vertex and id -> edge (first match wins), and vertex id ->
        incident (edge, end index) pairs sorted by (edge id, end index), keyed
        in vertex order, then any dangling vertex ids in edge order."""
        vertices, edges = {}, {}
        for v in self.vertices:
            vertices.setdefault(v.id, v)
        ends = {vid: [] for vid in vertices}
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


def seed_index(g: GraphOfGroups, index) -> GraphOfGroups:
    """`g` with `index` as its cached `_index`; the caller vouches that it is
    exactly what `_index` would build (`collapse` hands on a patched copy)."""
    g.__dict__["_index"] = index
    return g


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected(g: GraphOfGroups, declared) -> bool:
    """Whether the edges join every `declared` vertex of a nonempty graph; a dangling id joins nothing."""
    seen = {g.vertices[0].id}
    frontier = [g.vertices[0].id]
    while frontier:
        for (e, _) in g.ends_at(frontier.pop()):
            for end in e.ends:
                if end.vertex in declared and end.vertex not in seen:
                    seen.add(end.vertex)
                    frontier.append(end.vertex)
    return len(seen) == len(g.vertices)


def _validate_table(g: GraphOfGroups, vids, bad):
    t = g.table
    if t is None:
        bad("table oracle selected but no table data present")
        return
    leq = g.oracle().leq
    labels_at = {vid: set(t.labels.get(vid, ())) for vid in vids}
    for vid in vids:
        if not labels_at[vid]:
            bad(f"vertex {vid}: no class labels declared")
            continue
        labels = labels_at[vid]
        top = t.top.get(vid)
        if top not in labels:
            bad(f"vertex {vid}: top class {top!r} not among its labels")
        pairs = set(t.order.get(vid, ()))
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
    if g.vertices and not _connected(g, vid_set):
        bad("underlying graph is not connected")
    if g.oracle_mode == "table":
        _validate_table(g, vid_set, bad)
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
# ---------------------------------------------------------------------------


_KINDS = {int: "an exact integer", str: "a string", bool: "true or false",
          list: "an array", dict: "an object"}


def typed(x, kind, where):
    """`x` when it has the JSON type `kind` (an int is never a bool); else
    GraphLoadError naming the JSON path `where` and an abbreviated `x`."""
    if isinstance(x, kind) and not (kind is int and isinstance(x, bool)):
        return x
    raise GraphLoadError(f"{where}: expected {_KINDS[kind]}, got {reprlib.repr(x)}")


def pair(x, where, of):
    """`x` as a JSON array of exactly two `of`; GraphLoadError if not."""
    if len(typed(x, list, where)) != 2:
        raise GraphLoadError(f"{where}: need a pair of {of}")
    return x


def int_rows(m, where):
    """`m` as a list of equal-length rows of exact integers; GraphLoadError if not.
    One pass over exact types accepts a decoded matrix; only a matrix that fails
    it is walked again by `typed`, so no path is formatted for a good one."""
    if not (type(m) is list and {*map(type, m)} <= {list}
            and {*map(type, chain.from_iterable(m))} <= {int}):
        for i, r in enumerate(typed(m, list, where)):
            for j, x in enumerate(typed(r, list, f"{where}[{i}]")):
                typed(x, int, f"{where}[{i}][{j}]")
    if len({*map(len, m)}) > 1:
        raise GraphLoadError(f"{where}: ragged matrix")
    return m


def graph_from_dict(doc) -> GraphOfGroups:
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
                rows = int_rows(end.get("matrix"), f"{where}.matrix")
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
    except ValueError as e:     # not UTF-8, or an integer past the int-string limit
        raise GraphLoadError(f"{path}: {e}") from e
    except RecursionError as e:
        raise GraphLoadError(f"{path}: JSON nested too deeply") from e


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
