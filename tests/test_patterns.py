"""Pattern rigidity, slope invariants, and exact linear equivalence."""

import ast
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from gogkit import cli, patterns, vertex_edge_pattern
from gogkit.exactlin import (DimensionMismatch, RatMatrix, annihilator, canonicalize, image,
                             kernel_vectors)
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


def _norm_slope(p, q):
    """The slope p/q as a pair (p, q) with gcd 1, q >= 0 and (1, 0) for oo."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda v: v != (0, 0)))
def test_slope_of_a_line_is_its_normalized_pair(v):
    """A canonical basis row already is the normalized slope pair, read backwards."""
    x, y = v
    assert line_slope(canonicalize([v])) == _norm_slope(y, x)


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


def _frame_images(frame, slopes):
    """Reference: images of all slopes under the Mobius map sending frame to (0, oo, 1)."""
    (pp, pq), (qp, qq), (rp, rq) = frame
    c_rq = rp * qq - rq * qp
    c_rp = rp * pq - rq * pp
    out = []
    for (sp, sq) in slopes:
        num = (sp * pq - sq * pp) * c_rq
        den = (sp * qq - sq * qp) * c_rp
        g = math.gcd(num, den)
        if g:
            num //= g
            den //= g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        key = (1, Fraction(0)) if den == 0 else (0, Fraction(num, den))
        out.append((key, (num, den)))
    out.sort()
    return out


def _mobius_slope_invariant(pattern):
    """Reference: the slope invariant by explicit Mobius maps on slope pairs."""
    slopes = [line_slope(s) for s in pattern.subspaces]
    distinct = set(slopes)
    if len(distinct) < 3:
        raise UnderdeterminedSlopes(f"need at least 3 distinct slopes, got {len(distinct)}")
    best = min(_frame_images(frame, slopes) for frame in itertools.permutations(distinct, 3))
    return patterns.SlopeInvariant(tuple(s for _, s in best))


def test_slope_invariant_matches_mobius_maps():
    """Frame coordinates and explicit Mobius maps give one invariant and one error."""
    rng = random.Random(5)
    seen = {"defined": 0, "underdetermined": 0, "repeated": 0, "vertical": 0}
    for _ in range(2000):
        vecs = []
        for _ in range(rng.randint(3, 6)):
            if vecs and rng.random() < 0.2:
                vecs.append(rng.choice(vecs))
            elif rng.random() < 0.1:
                vecs.append((0, 1))
            else:
                vecs.append((rng.randint(1, 4), rng.randint(-4, 4)))
        pattern = lines(*vecs)
        results = []
        for invariant in (slope_invariant, _mobius_slope_invariant):
            try:
                inv = invariant(pattern)
                results.append((inv, inv.render()))
            except UnderdeterminedSlopes as e:
                results.append(str(e))
        assert results[0] == results[1], vecs
        seen["underdetermined" if isinstance(results[0], str) else "defined"] += 1
        seen["repeated"] += len(set(pattern.subspaces)) < len(pattern.subspaces)
        seen["vertical"] += (0, 1) in vecs
    assert min(seen.values()) >= 200, seen


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


@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_empty_patterns_are_equivalent_by_the_identity(n):
    """Any invertible map carries no members to no members: no n^2-entry search runs."""
    empty = LinearPattern.of([], n)
    assert patterns_equivalent(empty, empty) == (True, RatMatrix.identity(n))


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


# -- frame coordinates before the elimination ------------------------------------


def _search_without_frames(p, q):
    """Reference: the bijection search with no frame filter and no rank check.

    Every dimension-respecting bijection in lex order, its kernel of maps
    sending each member into its target, and the lattice points of `_points`;
    the first invertible map found is the witness.
    """
    n = p.ambient_dim
    if len(p.subspaces) != len(q.subspaces) or sorted(p.dims()) != sorted(q.dims()):
        return False, None
    if n == 0:
        return True, RatMatrix.identity(0)
    blocks = [([i for i, s in enumerate(p.subspaces) if s.dim == d],
               [j for j, s in enumerate(q.subspaces) if s.dim == d])
              for d in sorted(set(q.dims()))]
    want = sorted(q.subspaces, key=lambda s: (s.dim, s.basis))
    for combo in itertools.product(*[itertools.permutations(t) for _, t in blocks]):
        sigma = dict(pair for (block, _), perm in zip(blocks, combo)
                     for pair in zip(block, perm))
        basis = kernel_vectors([r for i in sorted(sigma) for r in patterns._constraint_rows(
            p.subspaces[i], q.subspaces[sigma[i]], n)], n * n)
        for point in patterns._points(n, len(basis)) if basis else ():
            t = patterns._as_matrix(point, basis, n)
            if t.det() != 0 and want == sorted((image(t, s) for s in p.subspaces),
                                               key=lambda s: (s.dim, s.basis)):
                return True, t
    return False, None


def test_equal_normal_ranks_answered_by_frame_coordinates(monkeypatch):
    """0inf12 against 0inf13: equal normal ranks, different cross-ratios."""
    p, r = slopes_pattern(0, "inf", 1, 2), slopes_pattern(0, "inf", 1, 3)
    assert patterns._normal_ranks(p) == patterns._normal_ranks(r)
    calls = count_kernels(monkeypatch)
    assert patterns_equivalent(p, r) == (False, None)
    assert calls == []
    assert _search_without_frames(p, r) == (False, None)


def _member(rng, n, d):
    while True:
        s = canonicalize([[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)], n)
        if s.dim == d:
            return s


def _random_pair(rng):
    """A pattern and a GL-moved copy of it or of a copy with one member replaced.

    Rigid patterns hold n+1 or n+2 hyperplanes in general position; the others
    hold 1..n random hyperplanes.  Either kind may get members of lower
    dimension and, below six members, a repeated member.
    """
    n = rng.choice((2, 2, 3, 3, 4))
    if rng.random() < 0.6:
        normals = general_position_normals(rng, n, n + 1 + (n < 4 and rng.random() < 0.4))
    else:
        normals = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n))
                               for _ in range(rng.randint(1, n))) if any(v)] or [(1,) * n]
    members = [annihilator(canonicalize([v], n)) for v in normals]
    if n > 2:
        members += [_member(rng, n, rng.randint(1, n - 2))
                    for _ in range(rng.randint(0, 2 if n == 3 else 1))]
    if rng.random() < 0.3 and len(members) < 6:
        members.append(rng.choice(members))
    p = LinearPattern.of(members, n)
    if rng.random() < 0.5:
        k = rng.randrange(len(members))
        members[k] = _member(rng, n, members[k].dim)
    return p, moved(LinearPattern.of(members, n), random_invertible(rng, n))


def test_frame_filter_keeps_answers_and_witnesses():
    rng = random.Random(1812)
    seen = {"rigid": 0, "other": 0, "yes": 0, "no": 0, "mixed": 0, "repeated": 0,
            "Q^2": 0, "Q^3": 0, "Q^4": 0}
    for n_pair in range(120):
        p, q = _random_pair(rng)
        got = patterns_equivalent(p, q)
        assert got == _search_without_frames(p, q), (n_pair, p, q)
        seen[f"Q^{p.ambient_dim}"] += 1
        seen["rigid" if rigidity_check(p).status == "rigid" else "other"] += 1
        seen["yes" if got[0] else "no"] += 1
        seen["mixed"] += len(set(p.dims())) > 1
        seen["repeated"] += len(set(p.subspaces)) < len(p.subspaces)
    assert min(seen.values()) >= 10, seen


def test_frame_coordinates_survive_invertible_maps():
    """Coordinates of a pattern in its frame equal those of T p in the image frame."""
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(2, 4)
        members = [annihilator(canonicalize([v], n))
                   for v in general_position_normals(rng, n, n + 1 + rng.randint(1, 2))]
        p = LinearPattern(n, tuple(members))
        pinned, coords = patterns._frame(p)
        frame, others = pinned[:n + 1], pinned[n + 1:]
        assert others
        order = rng.sample(range(len(members)), len(members))   # q member k is p member order[k]
        t = random_invertible(rng, n)
        q = LinearPattern(n, tuple(image(t, members[i]) for i in order))
        where = {i: k for k, i in enumerate(order)}
        assert patterns._frame_coordinates(patterns._hyperplane_minors(q),
                                           [where[i] for i in frame],
                                           [where[i] for i in others]) == coords


def test_frame_pins_the_q3_fixture_to_one_bijection(monkeypatch):
    p, q, near = (cli._load_pattern(fixture_path(f"pattern_q3_planes{suffix}"), None)
                  for suffix in ("", "_moved", "_near"))
    calls = count_kernels(monkeypatch)
    assert patterns_equivalent(p, q) == _search_without_frames(p, q)
    assert patterns_equivalent(p, q)[0] and len(calls) == 2   # one per call
    assert patterns_equivalent(p, near) == (False, None) == _search_without_frames(p, near)
    assert len(calls) == 2


def test_constraint_rows_built_only_for_kept_bijections(monkeypatch):
    """The Q^3 fixture pairs: 5 of 25 (member, target) pairs built for _moved, none for _near."""
    p, q, near = (cli._load_pattern(fixture_path(f"pattern_q3_planes{suffix}"), None)
                  for suffix in ("", "_moved", "_near"))
    built = []
    real = patterns._constraint_rows
    monkeypatch.setattr(patterns, "_constraint_rows",
                        lambda *args: built.append(args) or real(*args))
    assert patterns_equivalent(p, q)[0] and len(built) == 5
    assert patterns_equivalent(p, near) == (False, None) and len(built) == 5


def test_rigidity_check_matches_determinants():
    def by_det(pattern):
        n = pattern.ambient_dim
        hyper = [i for i, s in enumerate(pattern.subspaces) if s.dim == n - 1]
        normals = {i: annihilator(pattern.subspaces[i]).basis[0] for i in hyper}
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
    same, witness = patterns_equivalent(p, q)
    assert same
    assert witness.det() != 0
    got = sorted((image(witness, s) for s in p.subspaces), key=lambda s: (s.dim, s.basis))
    assert got == list(q.subspaces)


# -- exactness of the lattice search ---------------------------------------------


def _proportional(a, b):
    return all(x * sum(b) == y * sum(a) for x, y in zip(a, b))


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 5))
def test_points_are_a_unisolvent_lattice(n, k):
    points = tuple(patterns._points(n, k))
    lattice = points[1:] if k >= 2 else points
    assert len(lattice) == math.comb(n + k - 1, n)
    assert all(min(t) >= 0 and math.gcd(*t) == 1 and n % sum(t) == 0 for t in lattice)
    assert not any(_proportional(a, b) for a, b in itertools.combinations(points, 2))
    # a form of degree n vanishing on the lattice is zero: the evaluation
    # matrix of the degree-n monomials on the lattice is nonsingular
    monomials = [e for e in itertools.product(range(n + 1), repeat=k) if sum(e) == n]
    evaluation = [[math.prod(x ** d for x, d in zip(t, e)) for e in monomials] for t in lattice]
    assert RatMatrix.from_rows(evaluation).det() != 0
    if k >= 2:
        assert len(set(points[0])) == k and 0 not in points[0]


def _integer_basis(basis):
    """Each kernel vector scaled to coprime integers: the det form only scales."""
    out = []
    for v in basis:
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


def _det_form(basis, n):
    """det(sum t_i B_i) expanded by Leibniz into {exponent tuple: coefficient}."""
    k = len(basis)
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]

    def entry(a, b):
        return {unit[i]: basis[i][a * n + b] for i in range(k) if basis[i][a * n + b]}

    def times(f, g):
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = {(0,) * k: (-1) ** inversions}
        for a in range(n):
            term = times(term, entry(a, perm[a]))
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def _bijection_kernels(p, q):
    """Kernel basis of the maps sending p onto q, per dimension-respecting bijection."""
    n = p.ambient_dim
    for perm in itertools.permutations(range(len(q.subspaces))):
        if all(p.subspaces[i].dim == q.subspaces[j].dim for i, j in enumerate(perm)):
            rows = [r for i, j in enumerate(perm)
                    for r in patterns._constraint_rows(p.subspaces[i], q.subspaces[j], n)]
            yield kernel_vectors(rows, n * n)


def _reference_equivalent(p, q):
    """Some bijection whose det form is not identically zero, by symbolic expansion."""
    return any(basis and _det_form(_integer_basis(basis), p.ambient_dim)
               for basis in _bijection_kernels(p, q))


def _sparse_pattern(rng, n, dims):
    while True:
        members = [canonicalize([[rng.choice((-1, 0, 0, 1)) for _ in range(n)]
                                 for _ in range(d)], n) for d in dims]
        if all(0 < s.dim < n for s in members):
            return LinearPattern.of(members, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_agrees_with_symbolic_determinants(n):
    """Seeded pairs whose candidate maps form families of dimension k >= 2."""
    rng = random.Random(6100 + n)
    answers = []
    while len(answers) < 30:
        dims = [rng.randint(1, n - 1) for _ in range(rng.randint(2, 3))]
        p = _sparse_pattern(rng, n, dims)
        q = moved(p, random_invertible(rng, n)) if rng.random() < 0.5 \
            else _sparse_pattern(rng, n, dims)
        if min(map(len, _bijection_kernels(p, q)), default=0) < 2:
            continue
        same, witness = patterns_equivalent(p, q)
        assert same == _reference_equivalent(p, q), (p, q)
        if same:
            assert witness.det() != 0
            assert moved(p, witness) == q
        else:
            assert witness is None
        answers.append(same)
    assert True in answers and False in answers


def test_q4_no_tries_every_lattice_point(monkeypatch):
    """A line inside a hyperplane against a line outside one: k = 10, answer no."""
    p = LinearPattern.of([canonicalize([(1, 0, 0, 0)]),
                          canonicalize([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])], 4)
    q = LinearPattern.of([canonicalize([(0, 0, 0, 1)]),
                          canonicalize([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])], 4)
    points = _record_grid_points(monkeypatch)
    assert patterns_equivalent(p, q) == (False, None)
    assert len(points) == 1 + math.comb(4 + 10 - 1, 4)
    assert points == [list(t) for t in patterns._points(4, 10)]


def test_no_module_imports_random():
    src = pathlib.Path(patterns.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "random" not in names, path.name
