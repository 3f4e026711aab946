"""Exact rational linear algebra on canonical subspaces of Q^n.

A subspace is stored as an integer basis in reduced row echelon form, with
every row a primitive integer vector whose leading entry is positive.  This
form is canonical: two subspaces are equal iff their stored bases are equal,
so subspace equality is plain data equality and results are hashable.

Everything here is exact.  Entries are Python ints / fractions.Fraction
(arbitrary precision); no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


class DimensionMismatch(ValueError):
    """Operands live in incompatible ambient spaces or have bad shapes."""


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _rref(rows):
    """Reduced row echelon form over Q.

    Mutates nothing; returns (nonzero rows with pivot 1 and zeros above and
    below each pivot, pivot column list).
    """
    m = _frac_rows(rows)
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _primitive_int_row(row):
    """Scale a rational row to a primitive integer vector, leading entry > 0."""
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of Q^n in canonical integer echelon form.

    For a subgroup of Z^n this is the rational span, which only depends on
    the commensurability class of the subgroup: all finite-index sublattices
    share it.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def basis_fractions(self):
        return [[Fraction(x) for x in row] for row in self.basis]

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
    if not vectors:
        return RationalSubspace(ambient_dim, ())
    reduced, _ = _rref(vectors)
    return RationalSubspace(ambient_dim, tuple(_primitive_int_row(r) for r in reduced))


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
    if not b.basis:
        return True
    # Reduce each row of b against a's echelon basis; membership iff zero remains.
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in a.basis]
    for row in b.basis:
        rem = [Fraction(x) for x in row]
        for arow, p in zip(a.basis, pivots):
            if rem[p] != 0:
                f = rem[p] / arow[p]
                rem = [x - f * y for x, y in zip(rem, arow)]
        if any(x != 0 for x in rem):
            return False
    return True


def subspace_sum(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """Canonical span of the union of the two bases."""
    _check_same_ambient(a, b)
    return canonicalize(list(a.basis) + list(b.basis), a.ambient_dim)


def kernel_vectors(rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows, as tuples."""
    if not rows:
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(ncols))
                for i in range(ncols)]
    reduced, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        out.append(tuple(v))
    return out


def annihilator(s: RationalSubspace) -> list[tuple[Fraction, ...]]:
    """Vectors y with y . x = 0 for all x in s; empty list for the full space."""
    return kernel_vectors(s.basis_fractions(), s.ambient_dim)


def intersect(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """Canonical intersection; realizes coarse intersection of abelian subgroups."""
    _check_same_ambient(a, b)
    n = a.ambient_dim
    if a.is_full():
        return b
    if b.is_full():
        return a
    ka, kb = a.dim, b.dim
    if ka == 0 or kb == 0:
        return zero_space(n)
    # Solve sum_i x_i a_i = sum_j y_j b_j via the nullspace of [A^T | -B^T].
    stacked = []
    for r in range(n):
        stacked.append(
            [Fraction(a.basis[i][r]) for i in range(ka)]
            + [Fraction(-b.basis[j][r]) for j in range(kb)]
        )
    vecs = []
    for w in kernel_vectors(stacked, ka + kb):
        v = [Fraction(0)] * n
        for i in range(ka):
            if w[i]:
                v = [x + w[i] * y for x, y in zip(v, a.basis[i])]
        vecs.append(v)
    return canonicalize(vecs, n)


@dataclass(frozen=True)
class RatMatrix:
    """A dense matrix over Q, immutable; rows x cols, row-major entries."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        rows = [tuple(Fraction(x) for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise DimensionMismatch("ragged matrix rows")
        else:
            ncols = 0
        return RatMatrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(tuple(Fraction(1 if i == j else 0)
                                           for j in range(n)) for i in range(n)))

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def int_rows(self):
        return [[int(x) for x in row] for row in self.entries]

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} columns vs vector of {len(v)}")
        return tuple(sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0))
                     for row in self.entries)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = list(zip(*other.entries)) if other.entries else [()] * other.cols
        ents = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
            for row in self.entries
        )
        return RatMatrix(self.rows, other.cols, ents)

    def rank(self) -> int:
        reduced, _ = _rref([list(r) for r in self.entries]) if self.rows else ([], [])
        return len(reduced)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        m = [list(r) for r in self.entries]
        det = Fraction(1)
        for c in range(n):
            piv = None
            for i in range(c, n):
                if m[i][c] != 0:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)]
               for i, r in enumerate(self.entries)]
        reduced, pivots = _rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix(n, n, tuple(tuple(row[n:]) for row in reduced))

    def column_span(self) -> RationalSubspace:
        return canonicalize([col for col in zip(*self.entries)] if self.entries else [],
                            self.rows)


def image(m: RatMatrix, s: RationalSubspace) -> RationalSubspace:
    """Canonical span of {M x : x in s}, a subspace of Q^rows."""
    if s.ambient_dim != m.cols:
        raise DimensionMismatch(
            f"image: matrix has {m.cols} columns, subspace lives in Q^{s.ambient_dim}"
        )
    return canonicalize([m.matvec(row) for row in s.basis], m.rows)


def preimage(m: RatMatrix, s: RationalSubspace) -> RationalSubspace:
    """Canonical {v in Q^cols : M v in s}."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatch(
            f"preimage: matrix has {m.rows} rows, subspace lives in Q^{s.ambient_dim}"
        )
    ann = annihilator(s)
    if not ann:
        return full_space(m.cols)
    constraint = [list(RatMatrix.from_rows([row]).mul(m).entries[0]) for row in ann]
    return canonicalize(kernel_vectors(constraint, m.cols), m.cols)
