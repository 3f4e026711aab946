"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Every expected value here is either a worked example reproduced
exactly or is checked against an independent brute-force oracle computed in
this file.
"""

import contextlib
import itertools
import random

from gogkit import (ball_chain_depths, ball_crossing_check, build_ball,
                    check_hypotheses, comm_classes, complete_reduce, contains,
                    crossing_graph, depth_filtration, depth_zero_rafts,
                    graph_to_dict, image, intersect, load_graph, preimage,
                    raft_kind, subspace_sum)
from gogkit.exactlin import RatMatrix, canonicalize
from gogkit.patterns import LinearPattern, patterns_equivalent, rigidity_check, slope_invariant

from conftest import fixture_path


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2}: FAIL - {desc}")
        raise
    print(f"criterion {num:2}: PASS - {desc}")


def load(name):
    return load_graph(fixture_path(name))


def test_criterion_1_depth_two_example():
    with criterion(1, "arc fixture: Finite(2), exact depths, rafts at every level"):
        da = depth_filtration(load("arc3"))
        assert da.verdict.kind == "finite" and da.verdict.depth == 2
        assert da.depth == {"u": 0, "v": 0, "w": 0, "e": 1, "f": 2}
        assert ("e", "u", "v") in {r.members for r in da.levels[1].rafts}
        (top,) = da.levels[2].rafts
        assert top.members == ("e", "f", "u", "v", "w")


def test_criterion_2_spanning_hyperplane_instance():
    with criterion(2, "rank-3 loop instance: five hypotheses pass, crossing connected, 2 nodes"):
        g = load("thm14")
        report = check_hypotheses(g)
        assert [e.status for e in report.entries] == ["pass"] * 5
        cg = crossing_graph(g, "a", depth_filtration(g))
        assert cg.verdict == "connected"
        assert len(cg.nodes) == 2


def test_criterion_3_repeated_hyperplane_counterexample():
    with criterion(3, "repeated-hyperplane loop: crossing nonempty disconnected, only (4) fails"):
        g = load("f2xz")
        cg = crossing_graph(g, "v", depth_filtration(g))
        assert cg.nodes and cg.verdict == "disconnected"
        report = check_hypotheses(g)
        assert {e.number: e.status for e in report.entries} == {
            1: "pass", 2: "pass", 3: "pass", 4: "fail", 5: "pass"}


def test_criterion_4_line_raft_normalization():
    with criterion(4, "unimodular loop: line raft, only (2) fails, radius-3 ball is a 7-node path"):
        g = load("z2hnn")
        (raft,) = depth_zero_rafts(g)
        assert raft_kind(g, raft) == "line"
        report = check_hypotheses(g)
        assert {e.number: e.status for e in report.entries} == {
            1: "pass", 2: "fail", 3: "pass", 4: "pass", 5: "pass"}
        ball = build_ball(g, "v", 3)
        assert len(ball.nodes) == 7 and len(ball.edges) == 6
        assert all(n.true_valence == 2 for n in ball.nodes.values())
        degree = {}
        for e in ball.edges:
            degree[e.parent] = degree.get(e.parent, 0) + 1
            degree[e.child] = degree.get(e.child, 0) + 1
        assert sorted(degree.values()) == [1, 1, 2, 2, 2, 2, 2]


def brute_coset_count(matrix_rows):
    """Independent coset count: reduce a box of integer points by lattice membership."""
    m = RatMatrix.from_rows(matrix_rows)
    n = m.rows
    det = abs(int(m.det()))
    assert det > 0

    inv = m.inverse().entries

    def in_lattice(z):
        return all(sum(x * y for x, y in zip(row, z)).denominator == 1 for row in inv)

    reps = []
    for z in itertools.product(range(det), repeat=n):
        if not any(in_lattice([a - b for a, b in zip(z, r)]) for r in reps):
            reps.append(z)
    return len(reps)


def test_criterion_5_bushy_raft_valence():
    with criterion(5, "index-2 loop: bushy raft, root valence 4 = independent coset count"):
        g = load("bs22")
        (raft,) = depth_zero_rafts(g)
        assert raft_kind(g, raft) == "bushy"
        ball = build_ball(g, "v", 1)
        root = ball.nodes[()]
        assert root.true_valence == 4
        assert sum(e.parent == () for e in ball.edges) == 4
        expected = sum(brute_coset_count(end.matrix.int_rows())
                       for e in g.edges for end in e.ends)
        assert expected == 4 == root.true_valence


def test_criterion_6_reduction_invariance():
    with criterion(6, "two-edge circle: both collapse orders agree on classes, graphs differ"):
        g = load("heis")
        r1 = complete_reduce(g, order="lex")
        r2 = complete_reduce(g, order="revlex")
        assert comm_classes(r1) == comm_classes(r2)
        assert graph_to_dict(r1) != graph_to_dict(r2)


def test_criterion_7_infinite_depth_witness():
    with criterion(7, "self-embedding loop: Infinite verdict with a strict witness step"):
        da = depth_filtration(load("nonex"))
        assert da.verdict.kind == "infinite"
        assert len(da.verdict.witness) >= 2
        assert any(step.strict for step in da.verdict.witness)


def random_slope(rng):
    if rng.random() < 0.15:
        return (1, 0)
    q = rng.randint(1, 6)
    p = rng.randint(-6, 6)
    g = __import__("math").gcd(abs(p), q)
    return (p // g, q // g)


def slopes_to_pattern(slopes):
    return LinearPattern.of(
        [canonicalize([(q, p)]) for (p, q) in slopes], 2)


def random_invertible(rng):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        m = RatMatrix.from_rows(rows)
        if m.det() != 0:
            return m


def test_criterion_8_cross_ratio_complete_invariant():
    with criterion(8, "50 four-line patterns: invariant transform-stable, equivalence agrees on all pairs"):
        rng = random.Random(20260808)
        patterns = []
        while len(patterns) < 35:
            slopes = []
            while len(slopes) < 4:
                s = random_slope(rng)
                if s not in slopes:
                    slopes.append(s)
            patterns.append(slopes_to_pattern(slopes))
        while len(patterns) < 50:
            base = patterns[rng.randrange(len(patterns))]
            t = random_invertible(rng)
            patterns.append(LinearPattern.of(
                [image(t, s) for s in base.subspaces], 2))

        invariants = [slope_invariant(p) for p in patterns]
        for p, inv in zip(patterns, invariants):
            for _ in range(100):
                t = random_invertible(rng)
                moved = LinearPattern.of([image(t, s) for s in p.subspaces], 2)
                assert slope_invariant(moved) == inv

        for i in range(len(patterns)):
            for j in range(i + 1, len(patterns)):
                same, witness = patterns_equivalent(patterns[i], patterns[j])
                assert same == (invariants[i] == invariants[j]), (i, j)
                if same:
                    assert witness is not None and witness.det() != 0


def test_criterion_9_rigidity_thresholds():
    with criterion(9, "general-position hyperplane families rigid; sub-threshold inconclusive"):
        three_lines = slopes_to_pattern([(0, 1), (1, 0), (1, 1)])
        assert rigidity_check(three_lines).status == "rigid"
        four_planes = LinearPattern.of([
            canonicalize([(0, 1, 0), (0, 0, 1)]),
            canonicalize([(1, 0, 0), (0, 0, 1)]),
            canonicalize([(1, 0, 0), (0, 1, 0)]),
            canonicalize([(1, -1, 0), (0, 1, -1)]),
        ], 3)
        assert rigidity_check(four_planes).status == "rigid"
        assert rigidity_check(slopes_to_pattern([(0, 1), (1, 0)])).status == "inconclusive"
        three_planes = LinearPattern.of(list(four_planes.subspaces[:3]), 3)
        assert rigidity_check(three_planes).status == "inconclusive"
        two_of_three_parallel = slopes_to_pattern([(0, 1), (0, 1), (1, 0)])
        assert rigidity_check(two_of_three_parallel).status == "inconclusive"


ABELIAN_FIXTURES = ["arc3", "thm14", "f2xz", "z2hnn", "bs22"]


def test_criterion_10a_crossing_oracle_equivalence():
    with criterion("10a", "quotient crossing verdict = tree-ball crossing at R=2, B=3"):
        checked = 0
        for name in ABELIAN_FIXTURES:
            g = load(name)
            da = depth_filtration(g)
            vertex_ids = set(g.vertex_ids())
            for raft in da.levels[0].rafts:
                if len(raft.core) == 1 and raft.core[0] in vertex_ids:
                    vid = raft.core[0]
                    quotient = crossing_graph(g, vid, da).verdict
                    ball = build_ball(g, vid, 2, branch_cap=3)
                    assert ball_crossing_check(ball, g) == quotient, (name, vid)
                    checked += 1
        assert checked == 5  # a, v, u, v, w


def test_criterion_10b_depth_oracle_equivalence():
    with criterion("10b", "filtration depth labels = exhaustive chain search in the radius-3 ball"):
        for name in ABELIAN_FIXTURES:
            g = load(name)
            da = depth_filtration(g)
            assert da.verdict.kind == "finite"
            ball = build_ball(g, sorted(g.vertex_ids())[0], 3, branch_cap=3)
            assert ball_chain_depths(ball, g) == da.depth, name


def random_subspace(rng, n):
    k = rng.randint(0, n)
    return canonicalize([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)], n)


def test_criterion_10c_subspace_laws_bulk():
    with criterion("10c", "preorder, dimension formula, adjunction on 1000 random triples"):
        rng = random.Random(271828)
        for _ in range(1000):
            n = rng.randint(1, 4)
            a, b, c = (random_subspace(rng, n) for _ in range(3))
            assert contains(a, a)
            if contains(a, b) and contains(b, c):
                assert contains(a, c)
            if contains(a, b) and contains(b, a):
                assert a == b
            assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim
            assert contains(a, intersect(a, b)) and contains(subspace_sum(a, b), a)
            k = rng.randint(1, 4)
            m = RatMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)])
            s = random_subspace(rng, n)
            back = image(m, preimage(m, s))
            assert contains(s, back)
            if contains(m.column_span(), s):
                assert back == s
