"""Linear pattern invariants for abelian vertex groups.

The incident edge ends at a vertex of rank n cut out a finite multiset of
proper nonzero subspaces of Q^n.  Quasi-isometries that respect such a
pattern are boundedly close to affine maps once the pattern contains n+1
hyperplanes in general position, so the linear-equivalence class of the
pattern is the meaningful invariant.  For patterns of lines in the plane the
slope multiset up to Mobius transformations is a complete invariant; it is
canonicalized here by minimizing over all frames sending three of the slopes
to (0, oo, 1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactlin import (DimensionMismatch, RatMatrix, RationalSubspace, annihilator,
                       canonicalize, image, kernel_vectors)
from .oracle import UnsupportedOracle

DEFAULT_SEED = 94301


class UnderdeterminedSlopes(ValueError):
    """Fewer than three distinct slopes: no canonical frame exists."""


@dataclass(frozen=True)
class LinearPattern:
    """A multiset of proper nonzero subspaces of Q^n, canonically ordered."""

    ambient_dim: int
    subspaces: tuple[RationalSubspace, ...]

    @staticmethod
    def of(subspaces, ambient_dim: int | None = None) -> "LinearPattern":
        subspaces = list(subspaces)
        if ambient_dim is None:
            if not subspaces:
                raise DimensionMismatch("ambient_dim required for an empty pattern")
            ambient_dim = subspaces[0].ambient_dim
        for s in subspaces:
            if s.ambient_dim != ambient_dim:
                raise DimensionMismatch("pattern members in different ambient spaces")
            if s.dim == 0 or s.dim == ambient_dim:
                raise ValueError("pattern members must be proper and nonzero")
        return LinearPattern(ambient_dim,
                             tuple(sorted(subspaces, key=lambda s: (s.dim, s.basis))))

    def dims(self):
        return tuple(s.dim for s in self.subspaces)


def vertex_edge_pattern(g, vid: str):
    """Pattern of incident edge-end image spans at a vertex.

    Both ends of a loop contribute one member each.  Full-rank and zero spans
    carry no pattern information and are dropped; the returned notes say
    which ends were dropped and why.
    """
    if g.oracle_mode != "abelian":
        raise UnsupportedOracle("patterns need the abelian oracle")
    n = g.vertex(vid).rank
    orc = g.oracle()
    members = []
    notes = []
    for (e, i) in sorted(g.ends_at(vid), key=lambda p: (p[0].id, p[1])):
        span = orc.class_of(e.id, i)
        if span.dim == 0:
            notes.append((e.id, i, "zero span excluded"))
        elif span.dim == n:
            notes.append((e.id, i, "full-rank span excluded"))
        else:
            members.append(span)
    return LinearPattern.of(members, n), notes


@dataclass(frozen=True)
class RigidityVerdict:
    status: str                     # "rigid" | "inconclusive"
    witness: tuple[int, ...] | None = None


def _normal_covector(s: RationalSubspace):
    return _int_annihilator(s)[0]


def rigidity_check(pattern: LinearPattern) -> RigidityVerdict:
    """Search for n+1 hyperplanes in general position.

    General position means every n of the n+1 normal covectors are linearly
    independent.  Finding such a subset certifies rigidity of the pattern;
    not finding one decides nothing, so the negative verdict is inconclusive
    rather than "not rigid".
    """
    n = pattern.ambient_dim
    hyper = [i for i, s in enumerate(pattern.subspaces) if s.dim == n - 1]
    if len(hyper) < n + 1:
        return RigidityVerdict("inconclusive")
    normals = {i: _normal_covector(pattern.subspaces[i]) for i in hyper}
    for combo in itertools.combinations(hyper, n + 1):
        ok = True
        for subset in itertools.combinations(combo, n):
            m = RatMatrix.from_rows([normals[i] for i in subset])
            if m.det() == 0:
                ok = False
                break
        if ok:
            return RigidityVerdict("rigid", combo)
    return RigidityVerdict("inconclusive")


# -- slopes ------------------------------------------------------------------
#
# A line through the origin of Q^2 is recorded by its slope as a normalized
# integer pair (p, q) ~ p/q with gcd 1, q >= 0, and (1, 0) for the vertical
# line.  Mobius maps act by integer 2x2 determinants, which keeps the whole
# computation in exact integer arithmetic.

INF = (1, 0)


def _norm_slope(p: int, q: int):
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a slope")
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def line_slope(s: RationalSubspace):
    if s.ambient_dim != 2 or s.dim != 1:
        raise DimensionMismatch("slopes are defined for lines in Q^2")
    x, y = s.basis[0]
    return _norm_slope(y, x)


def _frame_images(frame, slopes):
    """Images of all slopes under the frame map, sorted with their keys."""
    (pp, pq), (qp, qq), (rp, rq) = frame
    c_rq = rp * qq - rq * qp
    c_rp = rp * pq - rq * pp
    out = []
    for (sp, sq) in slopes:
        num = (sp * pq - sq * pp) * c_rq
        den = (sp * qq - sq * qp) * c_rp
        g = gcd(abs(num), abs(den))
        if g:
            num //= g
            den //= g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        key = (1, Fraction(0)) if den == 0 else (0, Fraction(num, den))
        out.append((key, (num, den)))
    out.sort()
    return out


def _slope_key(s):
    return (1, Fraction(0)) if s[1] == 0 else (0, Fraction(s[0], s[1]))


@dataclass(frozen=True)
class SlopeInvariant:
    """Canonical Mobius-normalized slope multiset of a plane line pattern."""

    slopes: tuple

    def render(self) -> str:
        return "{" + ", ".join("oo" if q == 0 else (f"{p}" if q == 1 else f"{p}/{q}")
                               for (p, q) in self.slopes) + "}"


def slope_invariant(pattern: LinearPattern) -> SlopeInvariant:
    """Invariant of a plane line pattern under invertible linear maps.

    Every ordered triple of distinct slopes is sent to (0, oo, 1) by its
    unique Mobius map; the lexicographically least resulting multiset (with
    oo sorting above every rational) is the invariant.  Linear maps of Q^2
    act on slopes precisely by rational Mobius maps, so equal invariants
    characterize linearly equivalent 4-line patterns.
    """
    if pattern.ambient_dim != 2 or any(s.dim != 1 for s in pattern.subspaces):
        raise DimensionMismatch("slope invariant needs a pattern of lines in Q^2")
    slopes = [line_slope(s) for s in pattern.subspaces]
    distinct = sorted(set(slopes), key=_slope_key)
    if len(distinct) < 3:
        raise UnderdeterminedSlopes(
            f"need at least 3 distinct slopes, got {len(distinct)}")
    best = None
    for frame in itertools.permutations(distinct, 3):
        keyed = _frame_images(frame, slopes)
        key = tuple(k for k, _ in keyed)
        if best is None or key < best[0]:
            best = (key, tuple(s for _, s in keyed))
    return SlopeInvariant(best[1])


# -- exact pattern equivalence -------------------------------------------------


@lru_cache(maxsize=4096)
def _int_annihilator(s: RationalSubspace):
    return canonicalize(annihilator(s), s.ambient_dim).basis


def _constraint_rows(v_space: RationalSubspace, w_space: RationalSubspace, n: int):
    """Linear constraints on T (row-major n^2 unknowns) forcing T v in w."""
    rows = []
    for u in _int_annihilator(w_space):
        for v in v_space.basis:
            rows.append([Fraction(u[a] * v[b])
                         for a in range(n) for b in range(n)])
    return rows


def _as_matrix(coeffs, basis, n):
    ents = [[Fraction(0)] * n for _ in range(n)]
    for c, vec in zip(coeffs, basis):
        if c:
            for a in range(n):
                for b in range(n):
                    ents[a][b] += c * vec[a * n + b]
    return RatMatrix.from_rows(ents)


def patterns_equivalent(p: LinearPattern, q: LinearPattern, *, rng=None,
                        samples: int = 20, coeff_bound: int = 10 ** 6):
    """Decide whether an invertible rational matrix carries one pattern to the other.

    For each dimension-respecting bijection, the matrices sending each member
    into its target form a linear space; the question is whether it contains
    an invertible element.  Random evaluations give a fast certificate of
    existence.  For ambient dimension at most 3 a nonexistence certificate is
    exact: the determinant is a polynomial of degree <= n in each parameter,
    so it vanishes identically iff it vanishes on the grid {0..n}^k.  Returns
    (answer, witness matrix or None); deterministic for a fixed seed, with
    the lexicographically least bijection found first.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("patterns in different ambient spaces")
    n = p.ambient_dim
    if len(p.subspaces) != len(q.subspaces) or sorted(p.dims()) != sorted(q.dims()):
        return False, None
    rng = rng if rng is not None else random.Random(DEFAULT_SEED)

    by_dim = {}
    for j, s in enumerate(q.subspaces):
        by_dim.setdefault(s.dim, []).append(j)
    dim_blocks = []
    for d in sorted(by_dim):
        block_p = [i for i, s in enumerate(p.subspaces) if s.dim == d]
        dim_blocks.append((block_p, by_dim[d]))

    want = sorted(q.subspaces, key=lambda s: (s.dim, s.basis))

    def verified(t: RatMatrix):
        if t.det() == 0:
            return False
        got = sorted((image(t, s) for s in p.subspaces),
                     key=lambda s: (s.dim, s.basis))
        return want == got

    row_cache = {}

    def rows_for(i, j):
        if (i, j) not in row_cache:
            row_cache[(i, j)] = _constraint_rows(p.subspaces[i], q.subspaces[j], n)
        return row_cache[(i, j)]

    for perm_combo in itertools.product(
            *[itertools.permutations(targets) for _, targets in dim_blocks]):
        sigma = {}
        for (block_p, _), perm in zip(dim_blocks, perm_combo):
            for i, j in zip(block_p, perm):
                sigma[i] = j
        rows = []
        for i in sorted(sigma):
            rows.extend(rows_for(i, sigma[i]))
        basis = kernel_vectors(rows, n * n)
        if not basis:
            continue
        if len(basis) == 1:
            # one-parameter family: invertibility is scale-invariant
            t = _as_matrix([Fraction(1)], basis, n)
            if verified(t):
                return True, t
            if n <= 3:
                continue
        grid_size = (n + 1) ** len(basis)
        if n > 3 or grid_size > samples:
            for _ in range(samples):
                coeffs = [Fraction(rng.randint(-coeff_bound, coeff_bound))
                          for _ in basis]
                t = _as_matrix(coeffs, basis, n)
                if verified(t):
                    return True, t
        if n <= 3:
            for point in itertools.product(range(n + 1), repeat=len(basis)):
                t = _as_matrix([Fraction(c) for c in point], basis, n)
                if verified(t):
                    return True, t
            continue  # exact: no invertible solution under this bijection
    return False, None
