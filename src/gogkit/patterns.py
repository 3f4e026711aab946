"""Linear pattern invariants for abelian vertex groups.

The incident edge ends at a vertex of rank n cut out a finite multiset of
proper nonzero subspaces of Q^n.  Quasi-isometries that respect such a
pattern are boundedly close to affine maps once the pattern contains n+1
hyperplanes in general position, so the linear-equivalence class of the
pattern is the meaningful invariant.  The slope invariant and the equivalence
search read one thing: the projective frame coordinates of hyperplanes,
computed from the minors of their cached integer normals.  For patterns of
lines in the plane the slope multiset up to Mobius transformations is a
complete invariant; it is the n = 2 reading of frame coordinates, minimized
over all frames, each sent to the slopes (0, oo, 1).  Linear equivalence
itself is decided exactly in every dimension by one fixed, finite search,
with no sampling and no seed.  When one pattern is rigid, the search skips,
before any elimination, each bijection that breaks the frame coordinates of
its hyperplanes; no equivalence breaks them, so answers and witnesses are
those of the full search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, prod
from typing import NamedTuple

from .exactlin import (DimensionMismatch, RatMatrix, RationalSubspace, _echelon,
                       _primitive, image, kernel_vectors)
from .oracle import UnsupportedOracle

class UnderdeterminedSlopes(ValueError):
    """Fewer than three distinct slopes: no canonical frame exists."""


class LinearPattern(NamedTuple):
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
    for (e, i) in g.ends_at(vid):
        span = orc.class_of(e.id, i)
        if span.dim == 0:
            notes.append((e.id, i, "zero span excluded"))
        elif span.dim == n:
            notes.append((e.id, i, "full-rank span excluded"))
        else:
            members.append(span)
    return LinearPattern.of(members, n), notes


class RigidityVerdict(NamedTuple):
    status: str                     # "rigid" | "inconclusive"
    witness: tuple[int, ...] | None = None


def _rank(rows) -> int:
    return len(_echelon(rows)[0])


@lru_cache(maxsize=1024)
def _normal_ranks(pattern: LinearPattern):
    """Sorted (k, rank) over every set of k = 2..n hyperplane normals.

    An invertible T sends hyperplanes to hyperplanes and their normals by
    T^-T up to scale, so it preserves the rank of every set of normals:
    patterns with different normal ranks are never linearly equivalent.
    """
    n = pattern.ambient_dim
    normals = [s._normals[0] for s in pattern.subspaces if s.dim == n - 1]
    return tuple(sorted((k, _rank(rows))
                        for k in range(2, n + 1)
                        for rows in itertools.combinations(normals, k)))


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
    normals = {i: pattern.subspaces[i]._normals[0] for i in hyper}
    for combo in itertools.combinations(hyper, n + 1):
        if all(_rank([normals[i] for i in subset]) == n
               for subset in itertools.combinations(combo, n)):
            return RigidityVerdict("rigid", combo)
    return RigidityVerdict("inconclusive")


# -- slopes ------------------------------------------------------------------
#
# A line through the origin of Q^2 is recorded by its slope as a normalized
# integer pair (p, q) ~ p/q with gcd 1, q >= 0, and (1, 0) for the vertical
# line.  A primitive row (q, p), first nonzero entry positive, is that pair
# read backwards: a canonical basis row, or a row of frame coordinates.


def line_slope(s: RationalSubspace):
    if s.ambient_dim != 2 or s.dim != 1:
        raise DimensionMismatch("slopes are defined for lines in Q^2")
    x, y = s.basis[0]
    return (y, x)


def _slope_key(s):
    return (1, Fraction(0)) if s[1] == 0 else (0, Fraction(s[0], s[1]))


class SlopeInvariant(NamedTuple):
    """Canonical Mobius-normalized slope multiset of a plane line pattern."""

    slopes: tuple

    def render(self) -> str:
        return "{" + ", ".join("oo" if q == 0 else (f"{p}" if q == 1 else f"{p}/{q}")
                               for (p, q) in self.slopes) + "}"


def slope_invariant(pattern: LinearPattern) -> SlopeInvariant:
    """Invariant of a plane line pattern under invertible linear maps.

    The n = 2 reading of projective frame coordinates: for every ordered frame
    (a, b, c) of distinct lines, a, b and c go to the slopes 0, oo and 1, and
    each other line, with frame coordinates (c0, c1), to c1/c0.  That is the
    unique Mobius map sending the frame there.  The lexicographically least
    resulting multiset (with oo sorting above every rational) is the
    invariant.  Linear maps of Q^2 act on slopes precisely by rational Mobius
    maps, so equal invariants characterize linearly equivalent 4-line patterns.
    """
    if pattern.ambient_dim != 2 or any(s.dim != 1 for s in pattern.subspaces):
        raise DimensionMismatch("slope invariant needs a pattern of lines in Q^2")
    distinct = len(set(pattern.subspaces))
    if distinct < 3:
        raise UnderdeterminedSlopes(f"need at least 3 distinct slopes, got {distinct}")
    subs, minors = pattern.subspaces, _hyperplane_minors(pattern)
    members = range(len(subs))
    images = []
    # distinct lines in the plane are in general position: every frame has coordinates
    for frame in itertools.permutations([i for i in members if subs[i] not in subs[:i]], 3):
        others = _frame_coordinates(minors, frame, [i for i in members if i not in frame])
        slopes = [(0, 1), (1, 0), (1, 1)] + [(c1, c0) for c0, c1 in others]
        images.append(sorted((_slope_key(s), s) for s in slopes))
    return SlopeInvariant(tuple(s for _, s in min(images)))


# -- projective frames -----------------------------------------------------------


@lru_cache(maxsize=256)
def _hyperplane_minors(pattern: LinearPattern):
    """det of every n distinct hyperplane normals, keyed by their indices in order."""
    n = pattern.ambient_dim
    hyper = [i for i, s in enumerate(pattern.subspaces) if s.dim == n - 1]
    normals = {i: pattern.subspaces[i]._normals[0] for i in hyper}
    minors = {}
    for rows in itertools.combinations(hyper, n):
        det = int(RatMatrix.from_rows([normals[i] for i in rows]).det())
        for order in itertools.permutations(rows):
            odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
            minors[order] = -det if odd else det
    return minors


def _frame_coordinates(minors, frame, others):
    """Frame coordinates of each member of `others`, or None off general position.

    With frame normals h_0..h_n, H the matrix of rows h_0..h_{n-1} and H_{j<-x}
    that matrix with row j replaced by x, Cramer's rule makes the ratios
    det H_{j<-v} / det H_{j<-h_n}, j < n, the coordinates of v.  Rescaling any
    normal rescales the whole tuple, and an invertible map moves every normal
    by one matrix, so the tuple up to scale (a primitive integer row, first
    nonzero entry positive) is kept by every map carrying the frame, in order,
    onto its image.  The frame is in general position iff det H and every
    det H_{j<-h_n} are nonzero.
    """
    *base, last = frame
    dens = [minors[(*base[:j], last, *base[j + 1:])] for j in range(len(base))]
    if 0 in dens or minors[tuple(base)] == 0:
        return None
    scale = [prod(dens) // d for d in dens]
    return tuple(_primitive([minors[(*base[:j], w, *base[j + 1:])] * scale[j]
                             for j in range(len(base))])
                 for w in others)


@lru_cache(maxsize=1024)
def _frame(pattern: LinearPattern):
    """(frame + other hyperplanes, their frame coordinates), or None if not rigid.

    The frame is the general-position (n+1)-set that `rigidity_check` finds.
    """
    verdict = rigidity_check(pattern)
    if verdict.status != "rigid":
        return None
    n = pattern.ambient_dim
    others = tuple(i for i, s in enumerate(pattern.subspaces)
                   if s.dim == n - 1 and i not in verdict.witness)
    return (verdict.witness + others,
            _frame_coordinates(_hyperplane_minors(pattern), verdict.witness, others))


# -- exact pattern equivalence -------------------------------------------------


def _constraint_rows(v_space: RationalSubspace, w_space: RationalSubspace, n: int):
    """Linear constraints on T (row-major n^2 unknowns) forcing T v in w."""
    rows = []
    for u in w_space._normals:
        for v in v_space.basis:
            rows.append([u[a] * v[b] for a in range(n) for b in range(n)])
    return rows


def _as_matrix(coeffs, basis, n):
    return RatMatrix.from_rows([[sum(c * vec[a * n + b] for c, vec in zip(coeffs, basis) if c)
                                 for b in range(n)] for a in range(n)])


def _points(n: int, k: int):
    """Points t of N^k on which a form of degree n vanishes only if it is zero.

    The simplex lattice {t : sum t = n}, C(n+k-1, n) points by stars and bars,
    each divided by the gcd of its coordinates.  For k >= 2 a probe with
    distinct prime coordinates comes first, to find an invertible map at once
    when there is one: lattice points are mostly zero, and (1, 2, ..., k)
    would fill a block of free entries as [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    which is singular.  The probe changes no answer, only which witness is found.
    The points are generated lazily and the lattice skips the probe, so an
    answer found at the probe costs nothing for the C(n+k-1, n) points behind it.
    """
    probe = ()
    if k >= 2:
        primes = (c for c in itertools.count(2) if all(c % d for d in range(2, c)))
        probe = tuple(itertools.islice(primes, k))
        yield probe
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        cuts = (-1, *bars, n + k - 1)
        t = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        t = tuple(x // gcd(*t) for x in t)
        if t != probe:
            yield t


def patterns_equivalent(p: LinearPattern, q: LinearPattern):
    """Decide whether an invertible rational matrix carries one pattern to the other.

    First the ranks of every set of hyperplane normals are compared: an
    invertible map preserves them, so a difference decides "no" exactly, in
    every dimension, before any bijection is tried.  When p is rigid, a
    bijection sigma is skipped unless sigma sends p's frame (`_frame`) to
    hyperplanes in general position and every other hyperplane of p to one
    with the same frame coordinates in that image frame.  An invertible map
    sending each member onto its target carries the frame onto the image
    frame and keeps frame coordinates, so a skipped bijection has no witness
    and the skip changes neither the answer nor which witness comes first.
    For each bijection left, the matrices sending each member into its
    target form a space with basis B_1..B_k, and det(sum t_i B_i) is a form of
    degree n in t.  A form vanishing on the simplex lattice {t in N^k : sum t
    = n} is zero: with t_k = n - sum_{i<k} t_i it becomes a polynomial of
    degree <= n vanishing on the principal lattice of a simplex, which is
    unisolvent for that degree, so the form vanishes where sum t = n, hence by
    homogeneity wherever sum t != 0, hence everywhere.  Scaling a point scales
    the determinant by a nonzero factor, so the points of `_points` decide
    exactly.  An invertible member of the space maps each member onto its
    target.  Returns (answer, witness matrix or None); deterministic, with the
    lexicographically least bijection found first.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("patterns in different ambient spaces")
    n = p.ambient_dim
    if len(p.subspaces) != len(q.subspaces) or sorted(p.dims()) != sorted(q.dims()):
        return False, None
    if not p.subspaces:
        return True, RatMatrix.identity(n)     # any invertible map carries nothing to nothing
    if _normal_ranks(p) != _normal_ranks(q):
        return False, None

    dim_blocks = [([i for i, s in enumerate(p.subspaces) if s.dim == d],
                   [j for j, s in enumerate(q.subspaces) if s.dim == d])
                  for d in sorted(set(q.dims()))]
    # built on first use, by a bijection that the frame filter keeps
    constraints = cache(lambda i, j: _constraint_rows(p.subspaces[i], q.subspaces[j], n))
    want = sorted(q.subspaces, key=lambda s: (s.dim, s.basis))
    frame = _frame(p)
    if frame is not None:
        pinned, coords = frame
        minors, passes = _hyperplane_minors(q), {}
    for perm_combo in itertools.product(
            *[itertools.permutations(targets) for _, targets in dim_blocks]):
        sigma = dict(pair for (block_p, _), perm in zip(dim_blocks, perm_combo)
                     for pair in zip(block_p, perm))
        if frame is not None:
            key = tuple(sigma[i] for i in pinned)
            if key not in passes:
                passes[key] = _frame_coordinates(minors, key[:n + 1], key[n + 1:]) == coords
            if not passes[key]:
                continue
        basis = kernel_vectors([r for i in sorted(sigma) for r in constraints(i, sigma[i])], n * n)
        for point in _points(n, len(basis)) if basis else ():
            t = _as_matrix(point, basis, n)
            if t.det() != 0 and want == sorted((image(t, s) for s in p.subspaces),
                                               key=lambda s: (s.dim, s.basis)):
                return True, t
    return False, None
