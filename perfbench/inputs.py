"""Seeded input generators for the gogkit benchmark.

Standard library only, and independent of gogkit: the exact linear algebra
below is a separate implementation, so the answers the generators know by
construction (irreducibility, pattern equivalence) do not rest on the code
under test.  Every generator takes a `random.Random` and is deterministic
for a given seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

# -- exact linear algebra over Q ------------------------------------------------


def rank(rows):
    """Rank of an integer or rational matrix given as a list of rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows):
    """Determinant of a square matrix of ints or Fractions, by Leibniz expansion (n <= 4 here)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if term == 0:
                break
        total += term
    return total


def columns(matrix):
    """Column vectors of a matrix given by rows (rows may be empty lists)."""
    if not matrix or not matrix[0]:
        return []
    return [list(c) for c in zip(*matrix)]


def span_le(small, big):
    """Whether span(small) lies inside span(big); arguments are vector lists."""
    if not small:
        return True
    return rank(big + small) == rank(big)


def is_reducible_end(end_matrix, vertex_rank):
    """A square end matrix with determinant +-1 makes a non-loop edge reducible."""
    if len(end_matrix) != vertex_rank:
        return False
    if vertex_rank == 0:
        return True
    if len(end_matrix[0]) != vertex_rank:
        return False
    return abs(det(end_matrix)) == 1


def reducible_ends(doc):
    """All (edge id, end) of a graph document that admit a collapse."""
    ranks = {v["id"]: v["rank"] for v in doc["vertices"]}
    out = []
    for e in doc["edges"]:
        a, b = e["ends"]
        if a["vertex"] == b["vertex"]:
            continue
        for i, end in enumerate((a, b)):
            if is_reducible_end(end["matrix"], ranks[end["vertex"]]):
                out.append((e["id"], i))
    return out


# -- matrices ---------------------------------------------------------------------


def random_injective(rng, rows, cols, bound):
    """Random integer rows x cols matrix of full column rank."""
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if cols == 0 or rank(m) == cols:
            return m


def random_unimodular(rng, n, moves=4):
    """Product of elementary integer matrices: determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


def random_invertible(rng, n, bound=3):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def _edge(eid, rank_, u, mu, v, mv):
    return {"id": eid, "rank": rank_,
            "ends": [{"vertex": u, "matrix": mu}, {"vertex": v, "matrix": mv}]}


def _doc(vertices, edges):
    return {"oracle": "abelian",
            "vertices": [{"id": vid, "rank": r} for vid, r in vertices],
            "edges": edges}


# -- graph families ---------------------------------------------------------------


def rank3_graph(rng, n_edges):
    """Irreducible graph: rank-3 vertices, E edges of rank 1-2, random spanning tree.

    Every edge map is a random full-column-rank 3 x r matrix with r <= 2, so
    no end has finite index and the graph is irreducible by construction.
    About one extra edge in five is a loop.
    """
    nv = max(2, n_edges // 2)
    vids = [f"v{i}" for i in range(nv)]
    pairs = [(rng.randrange(i), i) for i in range(1, nv)]
    while len(pairs) < n_edges:
        a = rng.randrange(nv)
        b = a if rng.random() < 0.2 else rng.randrange(nv)
        pairs.append((a, b))
    rng.shuffle(pairs)
    edges = []
    for k, (a, b) in enumerate(pairs):
        r = rng.randint(1, 2)
        edges.append(_edge(f"e{k}", r, vids[a], random_injective(rng, 3, r, 3),
                           vids[b], random_injective(rng, 3, r, 3)))
    return _doc([(v, 3) for v in vids], edges)


def reducible_graph(rng, n_edges):
    """Rank-3 graph on E edges where about half the spanning-tree edges collapse.

    A collapsing tree edge has rank 3, one unimodular end and one end of
    determinant 2 to 4 in absolute value; all other edges have rank 1-2.
    """
    nv = n_edges // 2 + 1
    vids = [f"v{i}" for i in range(nv)]
    tree = [(rng.randrange(i), i) for i in range(1, nv)]
    unimodular = set(rng.sample(range(len(tree)), len(tree) // 2))
    edges = []
    for k, (a, b) in enumerate(tree):
        if k in unimodular:
            mu = random_unimodular(rng, 3)
            while True:
                mv = random_injective(rng, 3, 3, 2)
                if 2 <= abs(det(mv)) <= 4:
                    break
            if rng.random() < 0.5:
                mu, mv = mv, mu
            edges.append(_edge(f"t{k}", 3, vids[a], mu, vids[b], mv))
        else:
            r = rng.randint(1, 2)
            edges.append(_edge(f"t{k}", r, vids[a], random_injective(rng, 3, r, 3),
                               vids[b], random_injective(rng, 3, r, 3)))
    for k in range(n_edges - len(tree)):
        a = rng.randrange(nv)
        b = a if rng.random() < 0.2 else rng.randrange(nv)
        r = rng.randint(1, 2)
        edges.append(_edge(f"x{k}", r, vids[a], random_injective(rng, 3, r, 3),
                           vids[b], random_injective(rng, 3, r, 3)))
    rng.shuffle(edges)
    return _doc([(v, 3) for v in vids], edges)


def ball_node_count(doc, root, radius, cap):
    """Node count of the radius-R tree ball, from coset counts alone.

    A finite-index end contributes |det| cosets, an infinite-index end `cap`,
    and below a node the coset it was reached through is not repeated
    (an infinite-index end still contributes `cap` new cosets).
    """
    ranks = {v["id"]: v["rank"] for v in doc["vertices"]}
    ends = {v: [] for v in ranks}
    for e in doc["edges"]:
        for i, end in enumerate(e["ends"]):
            n = ranks[end["vertex"]]
            count = (abs(det(end["matrix"])) if n else 1) if e["rank"] == n else None
            ends[end["vertex"]].append(((e["id"], i), count, e["ends"][1 - i]["vertex"]))

    def below(vid, arrived, depth):
        if depth == radius:
            return 1
        total = 1
        for key, count, other in ends[vid]:
            kids = cap if count is None else count - (key == arrived)
            if kids:
                total += kids * below(other, (key[0], 1 - key[1]), depth + 1)
        return total

    return below(root, None, 0)


def small_graph(rng, max_nodes, radius=3, cap=2):
    """Small irreducible graph with vertex ranks 1-3, edge ranks 0-3 and loops.

    Rank-0 edges and loops are frequent on purpose.  Graphs whose radius-3
    ball at some root would exceed `max_nodes` nodes are redrawn, which
    bounds the cost of one op, not its outcome.
    """
    while True:
        nv = rng.randint(1, 3)
        ranks = [rng.randint(1, 3) for _ in range(nv)]
        vids = [f"v{i}" for i in range(nv)]
        pairs = [(rng.randrange(i), i) for i in range(1, nv)]
        for _ in range(rng.randint(1, 2)):
            a = rng.randrange(nv)
            b = a if rng.random() < 0.5 else rng.randrange(nv)
            pairs.append((a, b))
        edges = []
        for k, (a, b) in enumerate(pairs):
            top = min(ranks[a], ranks[b])
            r = 0 if rng.random() < 0.3 else rng.randint(1, top)
            edges.append(_edge(f"e{k}", r, vids[a], random_injective(rng, ranks[a], r, 2),
                               vids[b], random_injective(rng, ranks[b], r, 2)))
        doc = _doc(list(zip(vids, ranks)), edges)
        if reducible_ends(doc):
            continue
        if all(ball_node_count(doc, v, radius, cap) <= max_nodes for v in vids):
            return doc


# -- line and hyperplane patterns -------------------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return [x // g for x in v] if g > 1 else list(v)


def hyperplane_basis(normal):
    """Integer spanning vectors of {x : normal . x = 0}."""
    n = len(normal)
    k = next(i for i, x in enumerate(normal) if x != 0)
    out = []
    for j in range(n):
        if j != k:
            v = [0] * n
            v[j] = normal[k]
            v[k] = -normal[j]
            out.append(_primitive(v))
    return out


def general_position(normals, n):
    return all(det([list(normals[i]) for i in c]) != 0
               for c in itertools.combinations(range(len(normals)), n))


def _slope_normal(rng):
    """A line of the plane by its normal; the slope law of acceptance criterion 8."""
    if rng.random() < 0.15:
        p, q = 1, 0
    else:
        q = rng.randint(1, 6)
        p = rng.randint(-6, 6)
        g = gcd(abs(p), q)
        p, q = p // g, q // g
    # the line through (q, p) has normal (p, -q)
    return (p, -q)


def _same_point(a, b):
    return a[0] * b[1] - a[1] * b[0] == 0


def j_invariant(normals):
    """Projective invariant of four distinct points of P^1 (exact)."""
    d = lambda a, b: a[0] * b[1] - a[1] * b[0]   # noqa: E731
    p1, p2, p3, p4 = normals
    lam = Fraction(d(p1, p3) * d(p2, p4), d(p1, p4) * d(p2, p3))
    return (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


def base_normals(rng, n, count):
    """Normals of `count` hyperplanes of Q^n in general position."""
    while True:
        if n == 2:
            normals = []
            while len(normals) < count:
                v = _slope_normal(rng)
                if not any(_same_point(v, w) for w in normals):
                    normals.append(v)
        else:
            normals = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]
        if general_position(normals, n):
            return [tuple(_primitive(v)) for v in normals]


def near_miss_normals(rng, normals, n):
    """Replace one normal by the sum of two others; inequivalent by construction.

    For n >= 3 the base is in general position and the result is not, which
    no linear map can change; the result is kept only when the n-subsets
    through the three related normals are its only dependent ones, so every
    near miss has the same dependency structure.  Four lines of the plane
    are always in general position, so there the result must differ in its
    projective invariant (or repeat a line).  Returns None when no choice
    works.
    """
    idx = list(range(len(normals)))
    choices = [(k, i, j) for k in idx for i, j in itertools.combinations(idx, 2)
               if k not in (i, j)]
    rng.shuffle(choices)
    for k, i, j in choices:
        out = list(normals)
        out[k] = tuple(_primitive([a + b for a, b in zip(normals[i], normals[j])]))
        if n >= 3:
            if all((det([list(out[x]) for x in c]) == 0) == ({i, j, k} <= set(c))
                   for c in itertools.combinations(idx, n)):
                return out
            continue
        repeated = any(_same_point(out[a], out[b]) for a, b in itertools.combinations(idx, 2))
        if repeated or j_invariant(out) != j_invariant(normals):
            return out
    return None


def pattern_doc(normals, transform):
    """Pattern file body of the hyperplanes with the given normals, moved by T."""
    n = len(normals[0])
    subspaces = []
    for a in normals:
        rows = [[sum(transform[r][c] * v[c] for c in range(n)) for r in range(n)]
                for v in hyperplane_basis(a)]
        subspaces.append([_primitive(r) for r in rows])
    return {"pattern": {"ambient_dim": n, "subspaces": subspaces}}


def pattern_family(rng, n, count, copies):
    """A base pattern, `copies` GL-moved copies and `copies` moved near-misses.

    Returns (base, equivalent copies, near misses) as pattern documents.  The
    member order of every copy is shuffled, so no bijection is the identity.
    """
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        normals = base_normals(rng, n, count)
        near = [near_miss_normals(rng, normals, n) for _ in range(copies)]
        if None not in near:
            break

    def moved(ns):
        ns = list(ns)
        rng.shuffle(ns)
        return pattern_doc(ns, random_invertible(rng, n))

    return (pattern_doc(normals, ident), [moved(normals) for _ in range(copies)],
            [moved(ns) for ns in near])


def seeded_rng(workload, seed, stream=""):
    """Independent random stream per workload, seed and purpose."""
    return random.Random(f"{workload}:{seed}:{stream}")
