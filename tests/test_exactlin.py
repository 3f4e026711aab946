"""Canonical subspace arithmetic, cross-checked against fraction-free elimination
and against a Fraction Gauss-Jordan reference."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gogkit import exactlin
from gogkit.exactlin import (DimensionMismatch, RatMatrix, annihilator, canonicalize, carry,
                             contains, full_space, image, intersect, kernel_vectors, preimage,
                             subspace_sum, zero_space)


def test_canonicalize_scaling():
    assert canonicalize([(2, 4)]).basis == ((1, 2),)


def test_canonicalize_full_plane():
    assert canonicalize([(1, 0), (0, 1), (1, 1)]).basis == ((1, 0), (0, 1))


def test_canonicalize_dependent_rows():
    assert canonicalize([(1, 2, 3), (2, 4, 6)]).basis == ((1, 2, 3),)


def test_canonicalize_idempotent_and_order_insensitive():
    a = canonicalize([(1, 2, 0), (0, 0, 3), (2, 4, 3)])
    b = canonicalize([(0, 0, -1), (3, 6, 1)])
    assert a == b
    assert canonicalize(a.basis, 3) == a


def test_canonicalize_fractions():
    assert canonicalize([(Fraction(1, 2), Fraction(1, 3))]).basis == ((3, 2),)


# Printed by the frozen-dataclass records; the tuple records must print the same.
# The rest of the record contract is tested over every record in test_treeball.py.
def test_linear_records_keep_repr_hash_and_cache_values():
    s = canonicalize([(2, 4, 0), (0, 0, 3)])
    assert repr(s) == "<(1,2,0),(0,0,1)> in Q^3" and repr(zero_space(2)) == "0 in Q^2"
    assert hash(s) == hash((3, ((1, 2, 0), (0, 0, 1)))) and s != zero_space(3)
    assert s._normals == ((-2, 1, 0),)
    m = RatMatrix.from_rows([[2, 1], [1, Fraction(3, 2)]])
    assert repr(m) == "RatMatrix(rows=2, cols=2, ints=((4, 2), (2, 3)), den=2)"
    assert (m._span, m._det, m._left_inverse) == (full_space(2), 2, ((0, 1), ((3, -2), (-2, 4))))


def test_canonicalize_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        canonicalize([(1, 0), (1, 0, 0)])


def test_contains_same_span():
    x_axis = canonicalize([(1, 0)])
    assert contains(x_axis, canonicalize([(2, 0)]))


def test_contains_dimension_obstruction():
    assert not contains(canonicalize([(1, 0)]), full_space(2))


def test_contains_solves_membership():
    a = canonicalize([(1, 0, 0), (0, 1, 0)])
    assert contains(a, canonicalize([(1, 1, 0)]))
    assert not contains(a, canonicalize([(1, 1, 1)]))


def test_contains_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(full_space(2), full_space(3))


def test_intersect_axes():
    assert intersect(canonicalize([(1, 0)]), canonicalize([(0, 1)])) == zero_space(2)


def test_intersect_planes():
    a = canonicalize([(1, 0, 0), (0, 1, 0)])
    b = canonicalize([(0, 1, 0), (0, 0, 1)])
    assert intersect(a, b).basis == ((0, 1, 0),)


def test_intersect_idempotent():
    a = canonicalize([(1, 2, 3), (0, 1, 1)])
    assert intersect(a, a) == a


def test_sum_axes():
    assert subspace_sum(canonicalize([(1, 0)]), canonicalize([(0, 1)])) == full_space(2)


def test_sum_zero_identity():
    a = canonicalize([(1, 2, 3)])
    assert subspace_sum(a, zero_space(3)) == a


def test_sum_transverse_lines():
    assert subspace_sum(canonicalize([(1, 1)]), canonicalize([(1, -1)])) == full_space(2)


def test_image_identity():
    s = canonicalize([(1, 2), (0, 5)])
    assert image(RatMatrix.identity(2), s) == s


def test_image_coordinate_inclusion():
    m = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert image(m, full_space(2)).basis == ((1, 0, 0), (0, 1, 0))


def test_image_column_scaling():
    assert image(RatMatrix.from_rows([[2], [4]]), full_space(1)).basis == ((1, 2),)


def test_preimage_identity():
    s = canonicalize([(3, 1)])
    assert preimage(RatMatrix.identity(2), s) == s


def test_preimage_coordinate_inclusion():
    m = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert preimage(m, canonicalize([(1, 0, 0)])).basis == ((1, 0),)


def test_preimage_of_zero_under_injective():
    m = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert preimage(m, zero_space(3)) == zero_space(2)


def test_zero_ambient_dimension():
    assert full_space(0) == zero_space(0)
    assert contains(zero_space(0), full_space(0))


def test_shape_mismatches_raise():
    with pytest.raises(DimensionMismatch):
        intersect(full_space(2), full_space(3))
    with pytest.raises(DimensionMismatch):
        subspace_sum(full_space(2), full_space(3))
    m = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(DimensionMismatch):
        image(m, full_space(3))
    with pytest.raises(DimensionMismatch):
        preimage(m, full_space(2))


# -- independent oracle: fraction-free (Bareiss) elimination ------------------


def ff_rank(rows):
    """Rank by fraction-free (integer cross-multiplication) elimination."""
    m = [list(map(int, r)) for r in rows if any(r)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            m[i] = [m[i][j] * m[rank][c] - m[i][c] * m[rank][j]
                    for j in range(cols)]
        rank += 1
        if rank == len(m):
            break
    return rank


vectors = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


def spanning_sets(n):
    return st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                    min_size=0, max_size=4)


def subspaces(n):
    """Zero, full or spanned subspaces of Q^n, the extremes drawn often."""
    return st.one_of(st.just(zero_space(n)), st.just(full_space(n)),
                     spanning_sets(n).map(lambda rows: canonicalize(rows, n)))


@st.composite
def extreme_subspace_pairs(draw):
    n = draw(st.integers(0, 5))
    return draw(subspaces(n)), draw(subspaces(n))


@given(extreme_subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_dimension_formula(pair):
    a, b = pair
    assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim


@given(extreme_subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_lattice_containments(pair):
    a, b = pair
    meet, join = intersect(a, b), subspace_sum(a, b)
    assert contains(a, meet) and contains(b, meet)
    assert contains(join, a) and contains(join, b)


def rank_contains(a, b):
    return ff_rank(list(a.basis) + list(b.basis)) == ff_rank(a.basis)


@given(extreme_subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_contains_matches_rank_oracle(pair):
    a, b = pair
    assert contains(a, b) == rank_contains(a, b)
    assert contains(b, a) == rank_contains(b, a)
    assert ff_rank(a.basis) == a.dim


def ref_annihilator(s):
    """The annihilator through Fraction kernel vectors of the basis, the way it
    was computed before subspaces cached their normals."""
    return canonicalize(kernel_vectors(s.basis, s.ambient_dim), s.ambient_dim)


@given(extreme_subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_annihilator_matches_fraction_kernel_reference(pair):
    for s in pair:
        ann = annihilator(s)
        assert ann == ref_annihilator(s)
        assert ann.dim == s.ambient_dim - s.dim
        assert annihilator(ann) == s
        assert all(type(x) is int for u in s._normals for x in u)


@given(extreme_subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_cached_normals_leave_no_elimination_to_contains(pair):
    a, b = pair
    expected = rank_contains(a, b), rank_contains(b, a)
    a._normals, b._normals    # first use caches the normals

    def refuse(rows):
        raise AssertionError(f"_echelon called on {rows}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_echelon", refuse)
        # __wrapped__ skips the lru_cache, so the check itself runs
        assert (contains.__wrapped__(a, b), contains.__wrapped__(b, a)) == expected
    # annihilator's one elimination brings its normals to canonical form; the
    # basis itself is never eliminated again
    eliminated, real = [], exactlin._echelon

    def record(rows):
        eliminated.append(list(rows))
        return real(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_echelon", record)
        annihilator(a)
    assert eliminated == [list(a._normals)]


@st.composite
def matrix_and_subspace(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    m = RatMatrix.from_rows(
        [[draw(st.integers(-5, 5)) for _ in range(k)] for _ in range(n)])
    return m, draw(subspaces(n))


@given(matrix_and_subspace())
@settings(max_examples=150, deadline=None)
def test_image_preimage_adjunction(ms):
    m, s = ms
    round_trip = image(m, preimage(m, s))
    assert contains(s, round_trip)
    if contains(m.column_span(), s):
        assert round_trip == s


@st.composite
def scrambled_spanning_sets(draw):
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    perm = draw(st.permutations(range(len(vecs))))
    scales = [draw(st.sampled_from([-3, -1, 1, 2, 5])) for _ in vecs]
    scrambled = [[scales[i] * x for x in vecs[perm[i]]] for i in range(len(vecs))]
    return n, vecs, scrambled


@given(scrambled_spanning_sets())
@settings(max_examples=150, deadline=None)
def test_canonicalize_permutation_scaling_invariant(data):
    n, vecs, scrambled = data
    assert canonicalize(vecs, n) == canonicalize(scrambled, n)


@st.composite
def subspace_triples(draw):
    n = draw(st.integers(1, 4))
    return tuple(canonicalize(draw(spanning_sets(n)), n) for _ in range(3))


@given(subspace_triples())
@settings(max_examples=150, deadline=None)
def test_contains_preorder(triple):
    a, b, c = triple
    assert contains(a, a)
    if contains(a, b) and contains(b, c):
        assert contains(a, c)
    if contains(a, b) and contains(b, a):
        assert a == b


# -- independent oracle: Gauss-Jordan over Fraction ----------------------------


def ref_rref(rows):
    """Reduced row echelon form over Q: (rows with pivot 1, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def ref_canonical_basis(rows):
    """Each RREF row scaled to a primitive integer row (its pivot is positive)."""
    out = []
    for row in ref_rref(rows)[0]:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def ref_kernel(rows, ncols):
    reduced, pivots = ref_rref(rows)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        out.append(tuple(v))
    return out


def ref_det(rows):
    """Determinant by Fraction elimination, negated once per row swap."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def ref_contains(a_rows, b_rows):
    return len(ref_rref(list(a_rows) + list(b_rows))[0]) == len(ref_rref(a_rows)[0])


rationals = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def rational_rows(draw, square=False):
    """(n, rows): k rows of n rationals, k = n for squares.  n runs from 0 to 4,
    so the matrix has 0 to 4 columns; half the draws make one column zero or
    a multiple of another, which leaves a square singular."""
    n = draw(st.integers(0, 4))
    k = n if square else draw(st.integers(0, 5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(k)]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.sampled_from([0, 1, -2, Fraction(2, 3)]))
        for row in rows:
            row[j] = c * row[i]
    return n, rows


@given(rational_rows())
@settings(max_examples=300, deadline=None)
def test_canonicalize_kernel_rank_match_fraction_reference(data):
    n, rows = data
    assert canonicalize(rows, n).basis == ref_canonical_basis(rows)
    assert RatMatrix.from_rows(rows).column_span().basis == ref_canonical_basis(list(zip(*rows)))
    kernel = kernel_vectors(rows, n)
    assert kernel == ref_kernel(rows, n)
    assert all(type(x) is Fraction for v in kernel for x in v)
    if rows:
        assert RatMatrix.from_rows(rows).rank() == len(ref_rref(rows)[0])


@given(rational_rows(square=True), st.data())
@settings(max_examples=300, deadline=None)
def test_det_and_inverse_match_fraction_reference(data, extra):
    n, rows = data
    m = RatMatrix.from_rows(rows)
    det = m.det()
    assert type(det) is Fraction and det == ref_det(rows)
    if n:
        i, j = extra.draw(st.integers(0, n - 1)), extra.draw(st.integers(0, n - 1))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert RatMatrix.from_rows(swapped).det() == (det if i == j else -det)
    if det == 0:
        with pytest.raises(ValueError):
            m.inverse()
        return
    inv = m.inverse()
    reduced, _ = ref_rref([list(r) + [int(a == b) for b in range(n)]
                           for a, r in enumerate(rows)])
    assert inv.entries == tuple(tuple(row[n:]) for row in reduced)
    assert m.mul(inv) == RatMatrix.identity(n)


@given(rational_rows(), st.data())
@settings(max_examples=300, deadline=None)
def test_contains_matches_fraction_reference(data, extra):
    n, rows = data
    other = extra.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=3))
    a, b = canonicalize(rows, n), canonicalize(other, n)
    assert contains(a, b) == ref_contains(a.basis, b.basis)
    assert contains(b, a) == ref_contains(b.basis, a.basis)


def test_det_sign_follows_row_swaps():
    assert RatMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1
    assert RatMatrix.from_rows([[0, 2, 0], [3, 0, 0], [0, 0, Fraction(1, 6)]]).det() == -1
    assert RatMatrix.from_rows([]).det() == 1


def test_inverse_of_singular_matrix_raises():
    for rows in ([[0]], [[1, 2], [Fraction(1, 2), 1]], [[1, 2, 3], [0, 1, 1], [1, 3, 4]],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]]):
        with pytest.raises(ValueError, match="singular"):
            RatMatrix.from_rows(rows).inverse()


@pytest.mark.parametrize("rows, basis", [
    ([[0], [0], [0]], ()),                                      # a zero column
    ([[0], [-4], [6]], ((0, 2, -3),)),                          # one column, made primitive
    ([[0, 1], [0, 2], [0, 3]], ((1, 2, 3),)),                   # a zero column of two
    ([[2, -1], [4, -2], [6, -3]], ((1, 2, 3),)),                # dependent columns
    ([[0, 2], [1, 0], [1, 4]], ((1, 0, 2), (0, 1, 1))),         # the first column is 0 at c1
    ([[3, 1], [0, 0], [1, 2], [5, 0]], ((1, 0, 0, 2), (0, 0, 1, -1))),
    ([[1, 2, 3], [0, 1, 1], [1, 3, 4]], ((1, 0, 1), (0, 1, 1))),  # a singular square
    ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
])
def test_column_span_of_each_shape_matches_the_elimination(rows, basis):
    """The closed forms for one column, two columns and full-rank squares,
    and the elimination that every other shape falls back to, agree with it."""
    m = RatMatrix.from_rows(rows)
    assert m.column_span().basis == basis == canonicalize(list(zip(*m.ints)), m.rows).basis


def fraction_matrix(rows, cols, entries):
    # from_rows cannot express a 0-row matrix with columns
    return RatMatrix.from_rows(entries) if rows else RatMatrix(0, cols, ())


def ref_mul(a, b):
    """The product as sums of Fraction products, entry by entry."""
    cols = list(zip(*b.entries)) if b.entries else [()] * b.cols
    return fraction_matrix(a.rows, b.cols, [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
        for row in a.entries])


def rat_matrix(draw, rows, cols, integer=False):
    entries = st.integers(-5, 5) if integer else rationals
    return fraction_matrix(rows, cols, [[Fraction(draw(entries)) for _ in range(cols)]
                                        for _ in range(rows)])


def _lowest_product(a, b):
    """a.mul(b) the way a rational product goes: integer rows over den_a * den_b,
    through `_lowest`."""
    cols = list(zip(*b.ints)) if b.ints else [()] * b.cols
    return exactlin._lowest(a.rows, b.cols, [[sum(x * y for x, y in zip(row, col)) for col in cols]
                                             for row in a.ints], a.den * b.den)


@given(st.data(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mul_matches_fraction_reference(data, n, k, m, int_a, int_b):
    """Integer factors take the fast path, which must equal the `_lowest` route."""
    a, b = rat_matrix(data.draw, n, k, int_a), rat_matrix(data.draw, k, m, int_b)
    product = a.mul(b)
    assert product == ref_mul(a, b) == _lowest_product(a, b)
    assert all(type(row) is tuple for row in product.ints)
    assert (product.rows, product.cols) == (n, m)
    assert all(type(x) is Fraction for row in product.entries for x in row)
    k2 = data.draw(st.integers(0, 3).filter(lambda j: j != k))
    with pytest.raises(DimensionMismatch):
        a.mul(rat_matrix(data.draw, k2, m))


def _written_out(x, k):
    """The rational x written with k times its denominator, as a Fraction() string."""
    return f"{x.numerator * k}/{x.denominator * k}"


@given(st.data(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_from_rows_stores_one_lowest_terms_denominator(data, n, k):
    entries = [[Fraction(data.draw(rationals)) for _ in range(k)] for _ in range(n)]
    m = RatMatrix.from_rows(entries)
    other = RatMatrix.from_rows([[_written_out(x, data.draw(st.integers(1, 6))) for x in row]
                                 for row in entries])
    assert m == other and hash(m) == hash(other)
    assert m.den > 0 and math.gcd(m.den, *[x for row in m.ints for x in row]) == 1
    assert all(type(x) is int for row in m.ints for x in row)
    assert m.entries == tuple(map(tuple, entries))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    assert (m.rows, m.cols) == ((n, k) if n else (0, 0))
    assert (m.den == 1) == all(x.denominator == 1 for row in entries for x in row)


def test_from_rows_accepts_ints_fractions_and_strings():
    m = RatMatrix.from_rows([[1, Fraction(1, 2)], ["3/4", 0.25]])
    assert (m.ints, m.den) == (((4, 2), (3, 1)), 4)
    assert RatMatrix.from_rows([[2, 4], [6, 8]]).den == 1
    assert RatMatrix.from_rows([[0, 0]]) == RatMatrix(1, 2, ((0, 0),))
    assert RatMatrix.from_rows([[2, -1]]).int_rows() == [[2, -1]]
    with pytest.raises(ValueError, match="non-integer"):
        m.int_rows()
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_rows([[1, 2], ["1/2"]])


# -- carry: a cached left inverse in place of image(preimage(...)) ------------


@st.composite
def carry_cases(draw):
    """(m_in, m_out, s): m_in injective, s spanned by mixes of its columns."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))
    rows = [[draw(rationals) for _ in range(k)] for _ in range(n)]
    m_in = RatMatrix.from_rows(rows)
    assume(m_in.rank() == k)
    m_out = RatMatrix.from_rows([[draw(rationals) for _ in range(k)]
                                 for _ in range(draw(st.integers(k, 4)))])
    mixes = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(draw(st.integers(0, k)))]
    s = canonicalize([[sum(c * x for c, x in zip(cs, row)) for row in rows]
                      for cs in mixes], n)
    return m_in, m_out, s


@given(carry_cases())
@settings(max_examples=300, deadline=None)
def test_carry_matches_image_of_preimage(case):
    m_in, m_out, s = case
    assert carry(m_in, m_out, s) == image(m_out, preimage(m_in, s))


def test_carry_of_zero_and_of_the_whole_image():
    m_in = RatMatrix.from_rows([[2, 0], [0, 3], [1, 1]])
    m_out = RatMatrix.from_rows([[1, 1], [0, 1]])
    assert carry(m_in, m_out, zero_space(3)) == zero_space(2)
    assert carry(m_in, m_out, m_in.column_span()) == m_out.column_span()
    rank0 = RatMatrix(2, 0, ((), ()))
    assert carry(rank0, RatMatrix(3, 0, ((), (), ())), zero_space(2)) == zero_space(3)


def test_carry_rejects_bad_shapes_and_spans_outside_the_image():
    m_in = RatMatrix.from_rows([[1], [0]])
    with pytest.raises(ValueError, match="outside"):
        carry(m_in, m_in, canonicalize([(0, 1)]))
    with pytest.raises(ValueError, match="not injective"):
        carry(RatMatrix.from_rows([[1, 2], [2, 4]]), RatMatrix.identity(2), zero_space(2))
    with pytest.raises(DimensionMismatch):
        carry(m_in, m_in, full_space(3))
    with pytest.raises(DimensionMismatch):
        carry(m_in, RatMatrix.identity(2), zero_space(2))


# -- the unit-determinant fast path of inverse -------------------------------------


@st.composite
def unimodular_ints(draw, n):
    """Integer rows of determinant +-1: the identity after a few row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return tuple(map(tuple, m))


@given(st.data(), st.integers(1, 4), st.booleans(), st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_inverses_equal_the_lowest_terms_route(data, n, unimodular, den):
    """At |det(ints)| = 1 the inverse is den * adj(ints), an integer matrix; it and
    every other inverse equal the Fraction Gauss-Jordan inverse in lowest terms."""
    if unimodular:
        ints = data.draw(unimodular_ints(n))
    else:
        ints = tuple(tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(n))
    m = RatMatrix.from_rows([[Fraction(x, den) for x in row] for row in ints])
    assume(m.det())
    inv = m.inverse()
    reduced, _ = ref_rref([list(r) + [int(a == b) for b in range(n)]
                           for a, r in enumerate(m.entries)])
    assert inv == RatMatrix.from_rows([row[n:] for row in reduced])
    assert all(type(row) is tuple for row in inv.ints)
    if unimodular:
        assert inv.den == 1 and inv.mul(m) == RatMatrix.identity(n)


# -- the contains cache -----------------------------------------------------------


def test_contains_cache_stays_bounded_over_many_analyses():
    """Reduction, the crossing check, the fingerprint and the depth labels of
    three radius-2 tree balls per graph, over 60 benchmark-family graphs in one
    process, ask `contains` about more distinct pairs than its cache holds,
    and the cache stops at its bound."""
    import importlib.util
    import pathlib
    import random

    from gogkit import (annotate_depth, build_ball, check_hypotheses, comm_classes,
                        complete_reduce, depth_filtration, graph_from_dict)

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(46)
    before = contains.cache_info()
    for k in range(30):
        n_edges = (16, 32)[k % 2]
        for doc in (inputs.reducible_graph(rng, n_edges), inputs.rank3_graph(rng, n_edges)):
            g = graph_from_dict(doc)
            reduced = complete_reduce(g)
            check_hypotheses(reduced)
            comm_classes(g)
            da = depth_filtration(reduced)
            for v in reduced.vertices[:3]:
                annotate_depth(build_ball(reduced, v.id, 2), da)
    info = contains.cache_info()
    assert info.maxsize == 1024
    assert info.misses - before.misses > info.maxsize >= info.currsize
