"""Pattern rigidity, slope invariants, and exact linear equivalence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogkit import patterns, vertex_edge_pattern
from gogkit.exactlin import DimensionMismatch, RatMatrix, annihilator, canonicalize, image
from gogkit.patterns import (LinearPattern, UnderdeterminedSlopes, line_slope,
                             patterns_equivalent, rigidity_check, slope_invariant)


def lines(*vecs):
    return LinearPattern.of([canonicalize([v]) for v in vecs], 2)


def slopes_pattern(*slopes):
    vecs = []
    for s in slopes:
        if s == "inf":
            vecs.append((0, 1))
        else:
            num, den = (s, 1) if isinstance(s, int) else s
            vecs.append((den, num))
    return lines(*vecs)


def test_vertex_pattern_counts_both_loop_ends(graph):
    pattern, notes = vertex_edge_pattern(graph("f2xz"), "v")
    assert pattern.subspaces == (canonicalize([(1, 0)]), canonicalize([(1, 0)]))
    assert not notes


def test_vertex_pattern_of_spanning_hyperplanes(graph):
    pattern, _ = vertex_edge_pattern(graph("thm14"), "a")
    assert {s.basis for s in pattern.subspaces} == {
        ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1))}


def test_vertex_pattern_excludes_full_rank(graph):
    pattern, notes = vertex_edge_pattern(graph("z2hnn"), "v")
    assert not pattern.subspaces
    assert [(n[0], n[2]) for n in notes] == [("t", "full-rank span excluded")] * 2


def test_isolated_vertex_empty_pattern():
    from gogkit import GraphOfGroups, VertexSpec
    pattern, notes = vertex_edge_pattern(
        GraphOfGroups((VertexSpec("v", 2),), ()), "v")
    assert not pattern.subspaces and not notes


def test_table_oracle_unsupported(graph):
    from gogkit.oracle import UnsupportedOracle
    with pytest.raises(UnsupportedOracle):
        vertex_edge_pattern(graph("heis"), "v")


def test_three_lines_rigid():
    assert rigidity_check(slopes_pattern(0, "inf", 1)).status == "rigid"


def test_two_lines_inconclusive():
    assert rigidity_check(slopes_pattern(0, "inf")).status == "inconclusive"


def test_repeated_line_not_general_position():
    assert rigidity_check(slopes_pattern(0, 0, "inf")).status == "inconclusive"


def test_four_planes_general_position_rigid():
    planes = LinearPattern.of([
        canonicalize([(0, 1, 0), (0, 0, 1)]),   # normal e1
        canonicalize([(1, 0, 0), (0, 0, 1)]),   # normal e2
        canonicalize([(1, 0, 0), (0, 1, 0)]),   # normal e3
        canonicalize([(1, -1, 0), (0, 1, -1)]), # normal (1,1,1)
    ], 3)
    verdict = rigidity_check(planes)
    assert verdict.status == "rigid"
    assert verdict.witness == (0, 1, 2, 3)


def test_three_planes_inconclusive():
    planes = LinearPattern.of([
        canonicalize([(0, 1, 0), (0, 0, 1)]),
        canonicalize([(1, 0, 0), (0, 0, 1)]),
        canonicalize([(1, 0, 0), (0, 1, 0)]),
    ], 3)
    assert rigidity_check(planes).status == "inconclusive"


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_rigidity_monotone_under_added_lines(extra):
    base = slopes_pattern(0, "inf", 1)
    assert rigidity_check(base).status == "rigid"
    vecs = [(1, 0), (0, 1), (1, 1)] + [v for v in extra if v != (0, 0)]
    assert rigidity_check(lines(*vecs)).status == "rigid"


def test_slope_of_lines():
    assert line_slope(canonicalize([(1, 0)])) == (0, 1)
    assert line_slope(canonicalize([(0, 1)])) == (1, 0)
    assert line_slope(canonicalize([(2, 3)])) == (3, 2)


def test_normalization_frame_is_fixed():
    inv = slope_invariant(slopes_pattern(0, "inf", 1))
    assert inv.render() == "{0, 1, oo}"


def test_mobius_shift_preserves_invariant():
    p = slopes_pattern(0, "inf", 1, 2)
    q = slopes_pattern(1, "inf", 2, 3)   # image under (x, y) -> (x, x + y)
    assert slope_invariant(p) == slope_invariant(q)


def test_cross_ratio_separates():
    p = slopes_pattern(0, "inf", 1, 2)
    r = slopes_pattern(0, "inf", 1, 3)
    assert slope_invariant(p) != slope_invariant(r)


def test_underdetermined_slopes_rejected():
    with pytest.raises(UnderdeterminedSlopes):
        slope_invariant(slopes_pattern(0, 0, "inf"))


def test_equivalent_patterns_with_witness():
    p = slopes_pattern(0, "inf", 1, 2)
    t = RatMatrix.from_rows([[1, 0], [1, 1]])
    q = LinearPattern.of([image(t, s) for s in p.subspaces], 2)
    same, witness = patterns_equivalent(p, q)
    assert same
    got = sorted((image(witness, s) for s in p.subspaces),
                 key=lambda s: (s.dim, s.basis))
    assert got == list(q.subspaces)


def test_inequivalent_cross_ratios():
    same, witness = patterns_equivalent(slopes_pattern(0, "inf", 1, 2),
                                        slopes_pattern(0, "inf", 1, 3))
    assert not same and witness is None


def test_cardinality_mismatch():
    same, _ = patterns_equivalent(slopes_pattern(0, "inf", 1),
                                  slopes_pattern(0, "inf", 1, 2))
    assert not same


def test_dimension_multiset_mismatch():
    p = LinearPattern.of([canonicalize([(1, 0, 0)]),
                          canonicalize([(1, 0, 0), (0, 1, 0)])], 3)
    q = LinearPattern.of([canonicalize([(1, 0, 0)]),
                          canonicalize([(0, 1, 0)])], 3)
    assert patterns_equivalent(p, q) == (False, None)


def test_empty_patterns_in_q0_are_equivalent():
    empty = LinearPattern.of([], 0)
    assert patterns_equivalent(empty, empty) == (True, RatMatrix.identity(0))


def test_ambient_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        patterns_equivalent(slopes_pattern(0, 1, 2),
                            LinearPattern.of([canonicalize([(1, 0, 0)])], 3))


def test_mixed_dimension_equivalence():
    p = LinearPattern.of([canonicalize([(1, 0, 0)]),
                          canonicalize([(1, 0, 0), (0, 1, 0)])], 3)
    t = RatMatrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    q = LinearPattern.of([image(t, s) for s in p.subspaces], 3)
    same, witness = patterns_equivalent(p, q)
    assert same and witness.det() != 0


gl2_entries = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                        st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda t: t[0] * t[3] - t[1] * t[2] != 0)


@given(gl2_entries)
@settings(max_examples=100, deadline=None)
def test_slope_invariant_transform_invariance(entries):
    a, b, c, d = entries
    t = RatMatrix.from_rows([[a, b], [c, d]])
    p = slopes_pattern(0, "inf", 1, (5, 2))
    q = LinearPattern.of([image(t, s) for s in p.subspaces], 2)
    assert slope_invariant(p) == slope_invariant(q)


@given(gl2_entries)
@settings(max_examples=30, deadline=None)
def test_equivalence_relation_symmetry(entries):
    a, b, c, d = entries
    t = RatMatrix.from_rows([[a, b], [c, d]])
    p = slopes_pattern(0, "inf", 1, 3)
    q = LinearPattern.of([image(t, s) for s in p.subspaces], 2)
    ab, w1 = patterns_equivalent(p, q)
    ba, w2 = patterns_equivalent(q, p)
    assert ab and ba
    assert w1.det() != 0 and w2.det() != 0


def test_equivalence_relation_reflexive_and_transitive():
    p = slopes_pattern(0, "inf", 1, 2)
    assert patterns_equivalent(p, p)[0]
    t1 = RatMatrix.from_rows([[1, 0], [1, 1]])
    t2 = RatMatrix.from_rows([[2, 1], [1, 1]])
    q = LinearPattern.of([image(t1, s) for s in p.subspaces], 2)
    r = LinearPattern.of([image(t2, s) for s in q.subspaces], 2)
    assert patterns_equivalent(p, q)[0]
    assert patterns_equivalent(q, r)[0]
    same, w = patterns_equivalent(p, r)
    assert same and w.det() != 0


# -- normal ranks before the bijection search ----------------------------------


def hyperplanes(normals):
    n = len(normals[0])
    return LinearPattern.of([annihilator(canonicalize([v], n)) for v in normals], n)


def moved(pattern, t):
    # LinearPattern.of re-sorts the moved members, which shuffles them
    return LinearPattern.of([image(t, s) for s in pattern.subspaces], pattern.ambient_dim)


def random_invertible(rng, n):
    while True:
        t = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            return t


def general_position_normals(rng, n, count):
    while True:
        normals = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]
        if all(RatMatrix.from_rows(c).det() != 0
               for c in itertools.combinations(normals, n)):
            return normals


def near_miss(rng, normals):
    """One normal replaced by the sum of two others."""
    k, i, j = rng.sample(range(len(normals)), 3)
    out = list(normals)
    out[k] = tuple(a + b for a, b in zip(normals[i], normals[j]))
    return out


def count_kernels(monkeypatch):
    calls = []
    real = patterns.kernel_vectors
    monkeypatch.setattr(patterns, "kernel_vectors",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("n,count,cases", [(2, 4, 6), (3, 5, 4), (4, 5, 1)])
def test_normal_ranks_agree_with_the_search_alone(monkeypatch, n, count, cases):
    """Same answer and witness as the bijection search without the rank check."""
    rng = random.Random(8100 + n)
    pairs = []
    for _ in range(cases):
        base = general_position_normals(rng, n, count)
        near = near_miss(rng, base)
        other = general_position_normals(rng, n, count)
        p, q = hyperplanes(base), hyperplanes(near)
        pairs += [(p, moved(p, random_invertible(rng, n))),
                  (p, moved(q, random_invertible(rng, n))),
                  (q, moved(q, random_invertible(rng, n))),
                  (p, hyperplanes(other))]
    got = [patterns_equivalent(a, b) for a, b in pairs]
    monkeypatch.setattr(patterns, "_normal_ranks", lambda pattern: ())
    assert got == [patterns_equivalent(a, b) for a, b in pairs]
    assert all(same for same, _ in got[0::4]) and all(same for same, _ in got[2::4])
    assert not any(same for same, _ in got[1::4] if n >= 3)


@pytest.mark.parametrize("normals,near", [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)],
     [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3)]),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1)]),
])
def test_near_miss_answered_without_a_bijection(monkeypatch, normals, near):
    p = hyperplanes(normals)
    q = moved(hyperplanes(near), random_invertible(random.Random(5), len(normals[0])))
    calls = count_kernels(monkeypatch)
    assert patterns_equivalent(p, q) == (False, None)
    assert patterns_equivalent(q, p) == (False, None)
    assert calls == []


def test_equal_normal_ranks_still_searched(monkeypatch):
    p, r = slopes_pattern(0, "inf", 1, 2), slopes_pattern(0, "inf", 1, 3)
    assert patterns._normal_ranks(p) == patterns._normal_ranks(r)
    calls = count_kernels(monkeypatch)
    assert patterns_equivalent(p, r) == (False, None)
    assert calls


def test_rigidity_check_matches_determinants():
    def by_det(pattern):
        n = pattern.ambient_dim
        hyper = [i for i, s in enumerate(pattern.subspaces) if s.dim == n - 1]
        normals = {i: patterns._normal_covector(pattern.subspaces[i]) for i in hyper}
        for combo in itertools.combinations(hyper, n + 1):
            if all(RatMatrix.from_rows([normals[i] for i in c]).det() != 0
                   for c in itertools.combinations(combo, n)):
                return ("rigid", combo)
        return ("inconclusive", None)

    rng = random.Random(4411)
    for _ in range(60):
        n = rng.randint(2, 4)
        normals = [v for v in (tuple(rng.randint(-1, 1) for _ in range(n))
                               for _ in range(rng.randint(n, n + 3))) if any(v)]
        if not normals:
            continue
        p = hyperplanes(normals)
        verdict = rigidity_check(p)
        assert (verdict.status, verdict.witness) == by_det(p)


class _NoSampling(random.Random):
    def randint(self, a, b):
        raise AssertionError("the exact grid should decide without sampling")


def _record_grid_points(monkeypatch):
    """Coefficient lists `patterns_equivalent` builds candidate maps from."""
    points = []
    as_matrix = patterns._as_matrix
    monkeypatch.setattr(patterns, "_as_matrix",
                        lambda coeffs, basis, n: points.append(list(coeffs))
                        or as_matrix(coeffs, basis, n))
    return points


def test_grid_certifies_no_in_q3(monkeypatch):
    coplanar = LinearPattern.of([canonicalize([v]) for v in
                                 ((1, 0, 0), (0, 1, 0), (1, 1, 0))], 3)
    independent = LinearPattern.of([canonicalize([v]) for v in
                                    ((1, 0, 0), (0, 1, 0), (0, 0, 1))], 3)
    points = _record_grid_points(monkeypatch)
    assert patterns_equivalent(coplanar, independent) == (False, None)
    # every bijection's samples failed, and the (n+1)-grid was walked to the end
    assert any(len(c) > 1 and all(0 <= x <= 3 for x in c) for c in points)


def test_grid_finds_a_witness_in_q2_without_sampling():
    p = lines((1, 0), (0, 1))
    q = lines((1, 1), (1, 2))
    same, witness = patterns_equivalent(p, q, rng=_NoSampling())
    assert same
    assert witness.det() != 0
    got = sorted((image(witness, s) for s in p.subspaces), key=lambda s: (s.dim, s.basis))
    assert got == list(q.subspaces)
