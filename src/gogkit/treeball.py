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
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class BallNode:
    address: tuple          # steps (edge id, end index at parent, coset label)
    vertex: str
    expanded: bool
    truncated: bool
    true_valence: int | None   # None encodes infinity
    depth_label: int | None = None


@dataclass(frozen=True)
class BallEdge:
    parent: tuple
    child: tuple
    edge: str
    end_at_parent: int
    local_span: RationalSubspace            # in the parent vertex's coordinates
    root_span: RationalSubspace | None      # transported to the root, if possible
    depth_label: int | None = None


@dataclass(frozen=True)
class TreeBall:
    root_vertex: str
    radius: int
    branch_cap: int
    nodes: dict
    edges: tuple[BallEdge, ...]

    def node(self, address) -> BallNode:
        return self.nodes[address]

    def children(self, address):
        return sorted(a for a in self.nodes if a[:-1] == address and len(a) == len(address) + 1)


def build_ball(g, root: str, radius: int, branch_cap: int = 3) -> TreeBall:
    """Radius-R portion of the Bass-Serre tree around a lift of `root`."""
    if g.oracle_mode != "abelian":
        raise UnsupportedOracle("tree balls need the abelian oracle")
    if radius < 0 or branch_cap < 1:
        raise ValueError("radius must be >= 0 and branch cap >= 1")
    g.vertex(root)
    orc = g.oracle()
    cosets = {}
    for e in g.edges:
        for i in (0, 1):
            cosets[(e.id, i)] = CosetSystem(e.ends[i].matrix)

    nodes = {}
    edges = []
    to_root = {}   # address -> list of (edge id, end entered when walking up)

    def true_valence(vid):
        total = 0
        for (e, i) in g.ends_at(vid):
            c = cosets[(e.id, i)].count
            if c is None:
                return None
            total += c
        return total

    queue = [((), root, None, 0)]
    while queue:
        address, vid, arrived, dist = queue.pop(0)
        expanded = dist < radius
        truncated = False
        if expanded:
            for (e, i) in sorted(g.ends_at(vid), key=lambda p: (p[0].id, p[1])):
                sys = cosets[(e.id, i)]
                skip_zero = arrived == (e.id, i)
                if sys.finite:
                    labs = sys.labels(skip_zero=skip_zero)
                else:
                    labs = sys.labels(cap=branch_cap, skip_zero=skip_zero)
                    truncated = True
                child_vid = e.ends[1 - i].vertex
                for lab in labs:
                    caddr = address + ((e.id, i, lab),)
                    span = orc.class_of(e.id, i)
                    edges.append(BallEdge(address, caddr, e.id, i, span,
                                          _to_root_span(orc, span, to_root.get(address, []))))
                    to_root[caddr] = [(e.id, 1 - i)] + to_root.get(address, [])
                    queue.append((caddr, child_vid, (e.id, 1 - i), dist + 1))
        nodes[address] = BallNode(address, vid, expanded, truncated and expanded,
                                  true_valence(vid))
    return TreeBall(root, radius, branch_cap, nodes, tuple(edges))


def _to_root_span(orc, span, up_path):
    cur = span
    for (eid, entered) in up_path:
        if not contains(orc.class_of(eid, entered), cur):
            return None
        cur = orc.transport(eid, entered, cur)
    return cur


def annotate_depth(ball: TreeBall, da) -> TreeBall:
    """Copy per-orbit depth labels onto the ball and cross-check monotonicity.

    Within the ball, a strict inclusion of transported edge spans must raise
    the depth label; a violation means the assignment and the tree disagree.
    """
    if da.verdict.kind == "infinite":
        raise ValueError("no total depth labeling exists for an infinite-depth graph")
    orbits = {n.vertex for n in ball.nodes.values()} | {e.edge for e in ball.edges}
    missing = sorted(o for o in orbits if o not in da.depth)
    if missing:
        raise ValueError(f"depth assignment is from a different graph: no label for {missing[0]}")
    nodes = {a: replace(n, depth_label=da.depth[n.vertex]) for a, n in ball.nodes.items()}
    edges = tuple(replace(e, depth_label=da.depth[e.edge]) for e in ball.edges)
    for a in edges:
        for b in edges:
            if a.root_span is None or b.root_span is None:
                continue
            if (contains(b.root_span, a.root_span)
                    and not contains(a.root_span, b.root_span)
                    and a.depth_label <= b.depth_label):
                raise ValueError(
                    f"depth labels not monotone: {a.edge} (depth {a.depth_label}) "
                    f"sits strictly inside {b.edge} (depth {b.depth_label})")
    return TreeBall(ball.root_vertex, ball.radius, ball.branch_cap, nodes, edges)


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


def _anchor(obj, ball, g):
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


def coarse_le(ball: TreeBall, g, obj_a, obj_b, oracle=None) -> bool:
    """Whether obj_a's space is coarsely inside obj_b's, via exact transport.

    The carried span must stay inside every edge class crossed on the tree
    path; failing the guard anywhere already refutes coarse inclusion.
    """
    orc = oracle if oracle is not None else g.oracle()
    addr_a, span = _anchor(obj_a, ball, g)
    addr_b, target = _anchor(obj_b, ball, g)
    for (eid, entered) in _walk(addr_a, addr_b):
        if not contains(orc.class_of(eid, entered), span):
            return False
        span = orc.transport(eid, entered, span)
    return contains(target, span)


def ball_chain_depths(ball: TreeBall, g):
    """Longest-strict-chain depth per orbit, by exhaustive search in the ball."""
    orc = g.oracle()
    objs = list(ball.nodes.values()) + list(ball.edges)
    le = [[coarse_le(ball, g, a, b, orc) for b in objs] for a in objs]
    order = range(len(objs))
    memo = {}

    def depth_of(i):
        if i in memo:
            return memo[i]
        memo[i] = 0  # cycle guard; strict chains cannot revisit
        best = 0
        for j in order:
            if i != j and le[i][j] and not le[j][i]:
                best = max(best, depth_of(j) + 1)
        memo[i] = best
        return best

    out = {}
    for i, obj in enumerate(objs):
        orbit = obj.vertex if isinstance(obj, BallNode) else obj.edge
        out[orbit] = max(out.get(orbit, 0), depth_of(i))
    return out


def to_dot(ball: TreeBall) -> str:
    """Deterministic DOT text; one undirected graph, nodes keyed by address."""

    def name(address):
        parts = [f"root:{ball.root_vertex}"]
        for (eid, i, lab) in address:
            parts.append(f"{eid}.{i}." + ",".join(map(str, lab)))
        return "/".join(parts)

    lines = ["graph {"]
    for address in sorted(ball.nodes):
        node = ball.nodes[address]
        label = node.vertex
        if node.depth_label is not None:
            label += f" d{node.depth_label}"
        attrs = [f'label="{label}"']
        if node.truncated:
            attrs.append("truncated=true")
        lines.append(f'  "{name(address)}" [{", ".join(attrs)}];')
    for e in sorted(ball.edges, key=lambda e: (e.child,)):
        label = e.edge
        if e.depth_label is not None:
            label += f" d{e.depth_label}"
        lines.append(f'  "{name(e.parent)}" -- "{name(e.child)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
