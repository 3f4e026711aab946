"""Finite balls of the Bass-Serre tree, used as a brute-force comparator.

The tree over an abelian graph of groups has, at each vertex over v, one
edge per coset of each incident edge-end image lattice in Z^rank(v).
Finite-index ends contribute all |det| cosets, enumerated through Smith
normal form; infinite-index ends are truncated at a branch cap, with coset
representatives drawn from integer points in max-norm-then-lex order.  The
resulting ball supports independent recomputation of valences, crossing
connectivity at the root, and longest-strict-chain depths, against which the
quotient-level algorithms are checked.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple

from .exactlin import RatMatrix, RationalSubspace, contains, full_space
from .oracle import UnsupportedOracle
from .unionfind import UnionFind


# -- integer Smith normal form -------------------------------------------------


def smith_normal_form(mat):
    """U, D, V with U*mat*V = D diagonal, d_i | d_{i+1}, U and V unimodular."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    m = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    t = 0
    while t < min(n, m):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        u[t], u[bi] = u[bi], u[t]
        for r in a:
            r[t], r[bj] = r[bj], r[t]
        for r in v:
            r[t], r[bj] = r[bj], r[t]
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, m):
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        viol = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, m)
                     if a[i][j] % a[t][t] != 0), None)
        if viol is not None:
            a[t] = [x + y for x, y in zip(a[t], a[viol[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[viol[0]])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, v


class CosetSystem:
    """Cosets of the column lattice of an integer matrix inside Z^n.

    Labels are canonical tuples: residues along the Smith-form directions
    followed by the free coordinates.  The zero label names the lattice
    itself, which is the coset a tree edge is arrived on.
    """

    def __init__(self, matrix: RatMatrix):
        rows = matrix.int_rows()
        self.n = matrix.rows
        self.k = matrix.cols
        u, d, _ = smith_normal_form(rows)
        self.u = u
        self.diag = [d[i][i] for i in range(self.k)]
        assert all(self.diag), "edge injection matrix must have full column rank"
        self.finite = self.k == self.n

    @property
    def count(self):
        if not self.finite:
            return None
        out = 1
        for x in self.diag:
            out *= x
        return out

    def label(self, z):
        w = [sum(r[j] * z[j] for j in range(self.n)) for r in self.u]
        return tuple(w[i] % self.diag[i] for i in range(self.k)) + tuple(w[self.k:])

    def labels(self, cap=None, skip_zero=False):
        """Coset labels in canonical order; all of them when the index is finite."""
        zero = (0,) * self.n
        if self.finite:
            out = [lab for lab in itertools.product(*[range(d) for d in self.diag])
                   if not (skip_zero and lab == zero)]
            return out
        out = []
        seen = set()
        radius = 0
        need = cap if cap is not None else 1
        while len(out) < need and radius <= 4 * need + 4:
            for z in itertools.product(range(-radius, radius + 1), repeat=self.n):
                norm = max((abs(c) for c in z), default=0)
                if norm != radius:
                    continue
                lab = self.label(z)
                if lab in seen or (skip_zero and lab == zero):
                    continue
                seen.add(lab)
                out.append(lab)
                if len(out) >= need:
                    break
            radius += 1
        return out


# -- the ball itself -----------------------------------------------------------


class LabelsNotMonotone(ValueError):
    """A strict inclusion of edge spans in a tree ball does not raise the depth label."""


class BallNode(NamedTuple):
    """A node of a ball: an immutable record, copied with `_replace`."""
    address: tuple          # steps (edge id, end index at parent, coset label)
    vertex: str
    expanded: bool
    truncated: bool
    true_valence: int | None   # None encodes infinity
    depth_label: int | None = None


class BallEdge(NamedTuple):
    """A ball edge from node `parent` to node `child`: an immutable record, copied with `_replace`."""
    parent: tuple
    child: tuple
    edge: str
    end_at_parent: int
    local_span: RationalSubspace            # in the parent vertex's coordinates
    root_span: RationalSubspace | None      # transported to the root, if possible
    depth_label: int | None = None


class _Ball(NamedTuple):
    """The fields of TreeBall."""
    root_vertex: str
    radius: int
    branch_cap: int
    nodes: dict
    edges: tuple[BallEdge, ...]
    parent_ids: tuple[int, ...] | None = None


class TreeBall(_Ball):
    """A ball whose node ids are positions in `nodes`: edge k leads to node k + 1.

    `parent_ids[k]` is the id of node k's parent, -1 at the root; it is the
    ball's one adjacency.  `build_ball` records it while expanding; a ball
    built from the five other fields alone, or copied by `_replace` with new
    nodes or edges, rebuilds it from the addresses.
    """

    __slots__ = ()

    def __new__(cls, root_vertex, radius, branch_cap, nodes, edges, parent_ids=None):
        if parent_ids is None:
            ids = {a: k for k, a in enumerate(nodes)}
            if len(ids) != len(edges) + 1 or any(
                    ids.get(e.child) != k for k, e in enumerate(edges, 1)):
                raise ValueError("edge k of a ball must lead to node k + 1")
            parent_ids = (-1,) + tuple(ids[e.parent] for e in edges)
        return super().__new__(cls, root_vertex, radius, branch_cap, nodes, edges, parent_ids)

    @classmethod
    def _make(cls, iterable):   # so `_replace` copies through the check above
        return cls(*iterable)

    def _replace(self, **changes):
        if "nodes" in changes or "edges" in changes:
            changes.setdefault("parent_ids", None)
        return super()._replace(**changes)


def build_ball(g, root: str, radius: int, branch_cap: int = 3) -> TreeBall:
    """Radius-R portion of the Bass-Serre tree around a lift of `root`.

    Nodes are expanded breadth first and numbered in that order, so node k
    is reached by edge k - 1, and each records its parent's id as it is
    queued.  Each expanded node gets one child per coset of every incident
    edge end, except the coset it was arrived on.  All of a node's expansion
    but its address and root spans depends only on its vertex and arrival
    end, so `plan` computes it once per such pair; coset labels are computed
    once per (edge, end, skip_zero).  The transport of an end's span to the
    root follows the parent ids, once per expanded node and end with a child.
    """
    if g.oracle_mode != "abelian":
        raise UnsupportedOracle("tree balls need the abelian oracle")
    if radius < 0 or branch_cap < 1:
        raise ValueError("radius must be >= 0 and branch cap >= 1")
    g.vertex(root)
    orc = g.oracle()
    cosets = {(e.id, i): CosetSystem(e.ends[i].matrix) for e in g.edges for i in (0, 1)}

    @cache
    def labels(eid, i, skip_zero):
        sys = cosets[(eid, i)]
        return sys.labels(cap=None if sys.finite else branch_cap, skip_zero=skip_zero)

    @cache
    def true_valence(vid):
        total = 0
        for (e, i) in g.ends_at(vid):
            c = cosets[(e.id, i)].count
            if c is None:
                return None
            total += c
        return total

    @cache
    def plan(vid, arrived):
        """(truncated, steps) for a node over `vid` arrived on end `arrived`: one step
        (edge id, end, labels, span, child vertex, child arrival) per end with labels."""
        truncated = False
        steps = []
        for (e, i) in g.ends_at(vid):
            truncated = truncated or not cosets[(e.id, i)].finite
            labs = labels(e.id, i, arrived == (e.id, i))
            if labs:
                steps.append((e.id, i, labs, orc.class_of(e.id, i),
                              e.ends[1 - i].vertex, (e.id, 1 - i)))
        return truncated, tuple(steps)

    nodes = {}
    edges = []
    parent_ids = [-1]
    queue = [((), root, None, 0)]
    for k, (address, vid, arrived, dist) in enumerate(queue):   # appended to while read
        expanded = dist < radius
        truncated = False
        if expanded:
            truncated, steps = plan(vid, arrived)
            for eid, i, labs, span, child_vid, child_arrived in steps:
                root_span = _to_root_span(orc, span, k, parent_ids, edges)
                for lab in labs:
                    caddr = address + ((eid, i, lab),)
                    edges.append(BallEdge(address, caddr, eid, i, span, root_span))
                    queue.append((caddr, child_vid, child_arrived, dist + 1))
                parent_ids.extend([k] * len(labs))
        nodes[address] = BallNode(address, vid, expanded, truncated, true_valence(vid))
    return TreeBall(root, radius, branch_cap, nodes, tuple(edges), tuple(parent_ids))


def _to_root_span(orc, span, k, parent_ids, edges):
    """The span at node k carried up to the root, or None where a guard fails."""
    cur = span
    while k:
        e = edges[k - 1]
        cur = orc.transport(e.edge, 1 - e.end_at_parent, cur)   # walking up enters at the child side
        if cur is None:
            return None
        k = parent_ids[k]
    return cur


def _interner(spans):
    """A function giving each distinct span its position in `spans`, appending new ones."""
    ids = {}

    def intern(span):
        k = ids.setdefault(span, len(spans))
        if k == len(spans):
            spans.append(span)
        return k
    return intern


def annotate_depth(ball: TreeBall, da) -> TreeBall:
    """Copy per-orbit depth labels onto the ball and cross-check monotonicity.

    Each labelled record is its unlabelled one's first fields plus the label.
    Within the ball, a strict inclusion of transported edge spans must raise
    the depth label; a violation means the assignment and the tree disagree.
    The check screens by span: a violation exists exactly when some root span
    lies strictly inside another and the least label on the inner span is at
    most the greatest label on the outer one, both read off the span's
    distinct edge orbits.  Only then does the loop over pairs of edges run,
    to name the first violating pair in ball order.
    """
    if da.verdict.kind == "infinite":
        raise ValueError("no total depth labeling exists for an infinite-depth graph")
    depth = da.depth
    orbits = {n.vertex for n in ball.nodes.values()} | {e.edge for e in ball.edges}
    missing = sorted(o for o in orbits if o not in depth)
    if missing:
        raise ValueError(f"depth assignment is from a different graph: no label for {missing[0]}")
    nodes = {a: BallNode._make(n[:5] + (depth[n.vertex],)) for a, n in ball.nodes.items()}
    edges = tuple(BallEdge._make(e[:6] + (depth[e.edge],)) for e in ball.edges)
    spans = []
    intern = _interner(spans)
    of_edge = [None if e.root_span is None else intern(e.root_span) for e in edges]
    low, high = {}, {}
    for i, orbit in set(zip(of_edge, (e.edge for e in edges))):
        if i is not None:
            d = depth[orbit]
            low[i] = min(low.get(i, d), d)
            high[i] = max(high.get(i, d), d)
    # inside[i][j]: span i lies strictly inside span j
    inside = [[s.dim < t.dim and contains(t, s) for t in spans] for s in spans]
    if any(inside[i][j] and low[i] <= high[j] for i in low for j in high):
        for a, i in zip(edges, of_edge):
            for b, j in zip(edges, of_edge):
                if i is None or j is None:
                    continue
                if inside[i][j] and a.depth_label <= b.depth_label:
                    raise LabelsNotMonotone(
                        f"depth labels not monotone: {a.edge} (depth {a.depth_label}) "
                        f"sits strictly inside {b.edge} (depth {b.depth_label})")
    return TreeBall(ball.root_vertex, ball.radius, ball.branch_cap, nodes, edges, ball.parent_ids)


def ball_crossing_check(ball: TreeBall, g) -> str:
    """Connectivity verdict of the tree-level crossing graph at the root.

    Nodes are the realized root edges with corank-one span; edges join pairs
    that cross directly (distinct spans) or are both crossed by a third
    realized incident edge.  Truncation can only merge components, never
    split them, once at least two cosets per end are realized.
    """
    if ball.radius < 1:
        raise ValueError("crossing check needs radius >= 1")
    n = g.vertex(ball.root_vertex).rank
    incident = [e for e in ball.edges if e.parent == ()]
    nodes = [e for e in incident if e.local_span.dim == n - 1]
    if not nodes:
        return "empty"
    components = UnionFind(range(len(nodes)))

    def crosses(span, hyper):
        return not contains(hyper, span)

    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i].local_span, nodes[j].local_span
            joined = a != b or any(
                crosses(c.local_span, a) and crosses(c.local_span, b)
                for c in incident)
            if joined:
                components.union(i, j)
    return "connected" if len(components.classes()) == 1 else "disconnected"


# -- brute-force coarse inclusion within the ball -------------------------------


def _anchor(obj, g):
    if isinstance(obj, BallNode):
        return obj.address, full_space(g.vertex(obj.vertex).rank)
    return obj.parent, obj.local_span


def _walk(start, goal):
    """Tree path between node addresses: up to the common prefix, then down."""
    common = 0
    while common < min(len(start), len(goal)) and start[common] == goal[common]:
        common += 1
    steps = []
    for k in range(len(start), common, -1):
        eid, i, _ = start[k - 1]
        steps.append((eid, 1 - i))      # walking up enters at the child side
    for k in range(common, len(goal)):
        eid, i, _ = goal[k]
        steps.append((eid, i))          # walking down enters at the parent side
    return steps


def coarse_le(ball: TreeBall, g, obj_a, obj_b) -> bool:
    """Whether obj_a's space is coarsely inside obj_b's, via exact transport.

    The carried span must stay inside every edge class crossed on the tree
    path; failing the guard anywhere already refutes coarse inclusion.
    """
    orc = g.oracle()
    addr_a, span = _anchor(obj_a, g)
    addr_b, target = _anchor(obj_b, g)
    for (eid, entered) in _walk(addr_a, addr_b):
        span = orc.transport(eid, entered, span)
        if span is None:
            return False
    return contains(target, span)


def ball_chain_depths(ball: TreeBall, g):
    """Longest-strict-chain depth per orbit, by exhaustive search in the ball.

    Objects with the same anchor (node id, span) are coarsely equal, so the
    search runs over distinct anchors.  A walk of the tree carries an
    anchor's span outward, crossing an edge only where the span lies inside
    the edge class entered, as `coarse_le` does on a single path; a failed
    guard prunes the subtree beyond it.

    Abelian guarded transport is invertible across an edge, so the (node,
    carried span) states reachable from an anchor form one connected
    component of an undirected state graph, with at most one state per node.
    An anchor that the walk meets carrying exactly its own span lies in that
    component: it is coarsely equivalent to the start, its own walk would
    visit the same states, and it needs none.  So the ball is walked once per
    coarse-equivalence class, each class keeps the anchors it lies under as
    an int bitset, and the longest-chain search runs over classes.  Two
    distinct classes are never both below each other, so a strict step
    between classes is a plain inclusion.  The walk runs on node ids and
    interned span ids, and each guard, transport and inclusion test runs
    once per distinct span.
    """
    orc = g.oracle()
    nodes, edges, parent_ids = list(ball.nodes.values()), ball.edges, ball.parent_ids
    spans = []
    intern = _interner(spans)
    top = {v: intern(orc.top_class(v)) for v in dict.fromkeys(n.vertex for n in nodes)}
    keys = ([(k, top[n.vertex]) for k, n in enumerate(nodes)]
            + [(parent_ids[k], intern(e.local_span)) for k, e in enumerate(edges, 1)])
    index = {}
    of_obj = [index.setdefault(key, len(index)) for key in keys]
    anchors = list(index)

    @cache
    def inside(t, k):
        return contains(spans[t], spans[k])

    @cache
    def cross(eid, entered, k):
        """Id of span k carried across the edge, or None where the guard fails."""
        moved = orc.transport(eid, entered, spans[k])
        return None if moved is None else intern(moved)

    arcs = [[] for _ in nodes]   # node id -> (neighbour id, edge id, end entered)
    for k, e in enumerate(edges, 1):
        arcs[parent_ids[k]].append((k, e.edge, e.end_at_parent))
        arcs[k].append((parent_ids[k], e.edge, 1 - e.end_at_parent))
    at_node = [[] for _ in nodes]
    for j, (here, t) in enumerate(anchors):
        at_node[here].append((j, t))
    class_of = [None] * len(anchors)
    reps, rows = [], []   # per class: first anchor, bitset of the anchors it lies under
    for k, (start, span) in enumerate(anchors):
        if class_of[k] is not None:
            continue
        row = 0
        stack = [(start, span, -1)]
        while stack:
            here, cur, came_from = stack.pop()
            for j, t in at_node[here]:
                if t == cur:
                    class_of[j] = len(reps)
                if inside(t, cur):
                    row |= 1 << j
            for nxt, eid, entered in arcs[here]:
                carried = None if nxt == came_from else cross(eid, entered, cur)
                if carried is not None:
                    stack.append((nxt, carried, here))
        reps.append(k)
        rows.append(row)

    # Peel the classes top down: a class's height is the round in which no
    # class still unpeeled lies strictly above it.
    above = [row & ~(1 << r) for r, row in zip(reps, rows)]
    height = [None] * len(reps)
    unpeeled = sum(1 << r for r in reps)
    level = 0
    while unpeeled:
        top = [c for c, h in enumerate(height) if h is None and not above[c] & unpeeled]
        assert top, "coarse inclusion between classes must be acyclic"
        for c in top:
            height[c] = level
            unpeeled ^= 1 << reps[c]
        level += 1

    out = {}
    for orbit, k in zip([n.vertex for n in nodes] + [e.edge for e in edges], of_obj):
        out[orbit] = max(out.get(orbit, 0), height[class_of[k]])
    return out


def _quoted(text):
    """A DOT string: backslash and double quote escaped, so distinct texts stay distinct."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def address_steps(address):
    """The steps of a ball address as text, `edge.end.label` each."""
    return [f"{eid}.{i}." + ",".join(map(str, lab)) for (eid, i, lab) in address]


def to_dot(ball: TreeBall) -> str:
    """Deterministic DOT text; one undirected graph, nodes keyed by address."""

    def name(address):
        return _quoted("/".join([f"root:{ball.root_vertex}", *address_steps(address)]))

    lines = ["graph {"]
    for address in sorted(ball.nodes):
        node = ball.nodes[address]
        label = node.vertex
        if node.depth_label is not None:
            label += f" d{node.depth_label}"
        attrs = [f"label={_quoted(label)}"]
        if node.truncated:
            attrs.append("truncated=true")
        lines.append(f'  {name(address)} [{", ".join(attrs)}];')
    for e in sorted(ball.edges, key=lambda e: (e.child,)):
        label = e.edge
        if e.depth_label is not None:
            label += f" d{e.depth_label}"
        lines.append(f"  {name(e.parent)} -- {name(e.child)} [label={_quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
