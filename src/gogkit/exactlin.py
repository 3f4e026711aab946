"""Exact rational linear algebra on canonical subspaces of Q^n.

A subspace is stored as an integer basis in reduced row echelon form, with
every row a primitive integer vector whose leading entry is positive.  This
form is canonical: two subspaces are equal iff their stored bases are equal.
The record is the tuple (ambient_dim, basis), so subspace equality and
hashing are plain tuple operations.

A matrix is integer rows over one positive denominator, and caches its column
span, determinant and left inverse.  Everything is exact and runs on Python
ints: one fraction-free Gauss-Jordan elimination (`_echelon`) serves
canonical forms, kernels and inverses, and determinants use Bareiss's
integer-preserving elimination.  Each subspace caches its integer normals on
first use: containment is dot products with them, and intersection and
preimage are kernels of them (stacked, or pulled back through the matrix).
`carry` moves a span across an injective map with two small matrix-vector
products per basis row, through the left inverse that the map caches on
first use.  fractions.Fraction appears only where a public value is
rational: RatMatrix entries, determinants and kernel vectors.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple


class DimensionMismatch(ValueError):
    """Operands live in incompatible ambient spaces or have bad shapes."""


def _int_row(row):
    """The row times the least common denominator of its entries."""
    if all(type(x) is int for x in row):
        return row
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row]


def _primitive(row):
    """An integer row over the gcd of its entries, first nonzero entry positive."""
    g = gcd(*row)
    if g == 0:
        return tuple(row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Returns (rows, pivot columns): the nonzero rows of the echelon form, each
    a primitive integer row with a positive entry at its own pivot and zero
    at every other pivot.  Divided by its pivot entry, a row is the row of the
    reduced row echelon form over Q, so both forms have the same span, rank
    and pivots.  Every row stays primitive after each update, which keeps the
    integers small.
    """
    m = [_primitive(_int_row(row)) for row in rows]
    n = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == n:
            break
        for i in range(r, n):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        pv = prow[c]    # positive: the row's leading entry
        for i in range(n):
            row = m[i]
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
    return m[:r], pivots


class _Subspace(NamedTuple):
    """The fields of RationalSubspace."""
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]


class RationalSubspace(_Subspace):
    """A subspace of Q^n in canonical integer echelon form.

    For a subgroup of Z^n this is the rational span, which only depends on
    the commensurability class of the subgroup: all finite-index sublattices
    share it.  The record is the tuple (ambient_dim, basis), so `==` and
    `hash` are tuple operations; it has no `__slots__`, which leaves room for
    the cached normals.
    """

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    @cached_property
    def _normals(self) -> tuple[tuple[int, ...], ...]:
        """Integer covectors spanning the annihilator: per non-pivot column fc, m at
        fc and -row[fc] * (m // row[p]) at each pivot p, m the lcm of the pivots."""
        pivots = [next(c for c, x in enumerate(row) if x) for row in self.basis]
        m = lcm(*[row[p] for row, p in zip(self.basis, pivots)])
        n, out = self.ambient_dim, []
        for fc in [c for c in range(n) if c not in pivots]:
            u = [m if c == fc else 0 for c in range(n)]
            for row, p in zip(self.basis, pivots):
                u[p] = -row[fc] * (m // row[p])
            out.append(tuple(u))
        return tuple(out)

    def __repr__(self):
        rows = ",".join("(" + ",".join(map(str, r)) + ")" for r in self.basis)
        return f"<{rows}> in Q^{self.ambient_dim}" if rows else f"0 in Q^{self.ambient_dim}"


def canonicalize(vectors, ambient_dim: int | None = None) -> RationalSubspace:
    """Canonical form of the span of the given rational vectors.

    Idempotent and insensitive to ordering and scaling of the input.  With an
    empty vector list, ambient_dim must be supplied.
    """
    vectors = list(vectors)
    if ambient_dim is None:
        if not vectors:
            raise DimensionMismatch("ambient_dim required for an empty spanning set")
        ambient_dim = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {ambient_dim}"
            )
    return RationalSubspace(ambient_dim, tuple(_echelon(vectors)[0]))


@lru_cache(maxsize=None)
def full_space(n: int) -> RationalSubspace:
    return canonicalize([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def zero_space(n: int) -> RationalSubspace:
    return RationalSubspace(n, ())


def _check_same_ambient(a: RationalSubspace, b: RationalSubspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


@lru_cache(maxsize=65536)
def contains(a: RationalSubspace, b: RationalSubspace) -> bool:
    """True iff b is a subspace of a (every basis row of b lies in span(a)).

    This is the coarse containment order on commensurability classes of
    subgroups of Z^n: span inclusion iff one class is commensurable into the
    other.
    """
    _check_same_ambient(a, b)
    if b.dim > a.dim:
        return False
    return not any(sum(map(mul, u, row)) for u in a._normals for row in b.basis)


def subspace_sum(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """Canonical span of the union of the two bases."""
    _check_same_ambient(a, b)
    return canonicalize(list(a.basis) + list(b.basis), a.ambient_dim)


def kernel_vectors(rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows, as tuples.

    One vector per non-pivot column fc of the echelon form, with a 1 there,
    0 at the other non-pivot columns and -row[fc] / row[p] at each pivot p.
    """
    reduced, pivots = _echelon(rows)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -Fraction(row[fc], row[p])
        out.append(tuple(v))
    return out


def annihilator(s: RationalSubspace) -> RationalSubspace:
    """The subspace of covectors y with y . x = 0 for all x in s."""
    return canonicalize(s._normals, s.ambient_dim)


def intersect(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """Canonical intersection, the common kernel of both subspaces' cached normals;
    realizes coarse intersection of abelian subgroups."""
    _check_same_ambient(a, b)
    return canonicalize(kernel_vectors(a._normals + b._normals, a.ambient_dim), a.ambient_dim)


class _Matrix(NamedTuple):
    """The fields of RatMatrix."""
    rows: int
    cols: int
    ints: tuple[tuple[int, ...], ...]
    den: int = 1


class RatMatrix(_Matrix):
    """A dense immutable rows x cols matrix over Q, the value `ints` / `den`.

    `den` is positive and coprime to the entries taken together, so equal
    matrices have equal fields; `entries` is the Fraction view.  The column
    span, determinant and left inverse are cached on first use, outside `==`,
    `repr` and `hash`, as for RationalSubspace.
    """

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        """The matrix with these rows of ints, Fractions or anything Fraction() takes."""
        rows = [[x if type(x) in (int, Fraction) else Fraction(x) for x in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        # the lcm of denominators in lowest terms leaves the rows coprime to it
        d = lcm(*[x.denominator for r in rows for x in r])
        return RatMatrix(len(rows), ncols, tuple(
            tuple(x.numerator * (d // x.denominator) for x in r) for r in rows), d)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    def int_rows(self):
        if self.den != 1:
            raise ValueError("matrix has non-integer entries")
        return [list(row) for row in self.ints]

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = list(zip(*other.ints)) if other.ints else [()] * other.cols
        return _lowest(self.rows, other.cols,
                       [[sum(x * y for x, y in zip(row, col)) for col in cols]
                        for row in self.ints], self.den * other.den)

    def rank(self) -> int:
        return self.column_span().dim

    def det(self) -> Fraction:
        return self._det

    @cached_property
    def _det(self) -> Fraction:
        """Bareiss's fraction-free elimination on the integer rows, over den^n."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self.ints]
        sign, prev = 1, 1
        for k in range(n):
            if not m[k][k]:
                i = next((i for i in range(k + 1, n) if m[i][k]), None)
                if i is None:
                    return Fraction(0)
                m[k], m[i] = m[i], m[k]
                sign = -sign
            pk = m[k][k]
            for i in range(k + 1, n):
                f = m[i][k]
                m[i] = [(x * pk - f * y) // prev for x, y in zip(m[i], m[k])]
            prev = pk
        return Fraction(sign * prev, self.den ** n)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.ints)]
        reduced, pivots = _echelon(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        # row i reads p_i x_i = rhs_i, and (A / den)^-1 = den * A^-1
        d = lcm(*[row[i] for i, row in enumerate(reduced)])
        return _lowest(n, n, [[self.den * x * (d // row[i]) for x in row[n:]]
                              for i, row in enumerate(reduced)], d)

    def column_span(self) -> RationalSubspace:
        return self._span

    @cached_property
    def _span(self) -> RationalSubspace:
        return canonicalize(list(zip(*self.ints)), self.rows)

    @cached_property
    def _left_inverse(self):
        """(P, B): the pivot coordinates P of the column span, onto which that
        span projects injectively, and B with B * ints[P] a nonzero multiple of
        the identity.  None when the columns are dependent."""
        if self._span.dim < self.cols:
            return None
        pivots = tuple(next(c for c, x in enumerate(row) if x) for row in self._span.basis)
        block = RatMatrix(self.cols, self.cols, tuple(self.ints[p] for p in pivots))
        return pivots, block.inverse().ints


def _lowest(rows: int, cols: int, ints, den: int) -> RatMatrix:
    """The matrix ints / den for a positive den, in lowest terms."""
    g = gcd(den, *[x for row in ints for x in row])
    return RatMatrix(rows, cols, tuple(tuple(x // g for x in row) for row in ints), den // g)


def image(m: RatMatrix, s: RationalSubspace) -> RationalSubspace:
    """Canonical span of {M x : x in s}, a subspace of Q^rows."""
    if s.ambient_dim != m.cols:
        raise DimensionMismatch(f"image: matrix has {m.cols} columns, "
                                f"subspace lives in Q^{s.ambient_dim}")
    return canonicalize([[sum(x * y for x, y in zip(row, v)) for row in m.ints]
                         for v in s.basis], m.rows)


def preimage(m: RatMatrix, s: RationalSubspace) -> RationalSubspace:
    """Canonical {v in Q^cols : M v in s}, the kernel of s's cached normals times M."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatch(f"preimage: matrix has {m.rows} rows, "
                                f"subspace lives in Q^{s.ambient_dim}")
    constraint = [[sum(y * row[c] for y, row in zip(u, m.ints)) for c in range(m.cols)]
                  for u in s._normals]
    return canonicalize(kernel_vectors(constraint, m.cols), m.cols)


def carry(m_in: RatMatrix, m_out: RatMatrix, s: RationalSubspace) -> RationalSubspace:
    """image(m_out, preimage(m_in, s)) for an injective m_in whose column span holds s.

    Each basis row v of s is M_in x for one x, read off the pivot coordinates
    P of that span through m_in's cached left inverse B: x = B v[P] up to
    scale, and the vectors M_out x span the result.  Raises ValueError when
    m_in is not injective or s is not inside its column span.
    """
    if s.ambient_dim != m_in.rows or m_in.cols != m_out.cols:
        raise DimensionMismatch("carry: the shapes of m_in, m_out and s do not fit")
    left = m_in._left_inverse
    if left is None or not contains(m_in._span, s):
        raise ValueError("carry: m_in is not injective or s is outside its column span")
    pivots, inv = left
    out = []
    for v in s.basis:
        # scaling x, B or either matrix leaves every span unchanged
        vp = [v[p] for p in pivots]
        x = [sum(map(mul, b, vp)) for b in inv]
        out.append([sum(map(mul, row, x)) for row in m_out.ints])
    return canonicalize(out, m_out.rows)
