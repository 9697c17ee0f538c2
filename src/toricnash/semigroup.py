"""Validation and classification of planar affine semigroup generators.

A usable generator set spans a strictly convex two-dimensional cone, spans
the full integer lattice, and is minimal: no generator is a nonnegative
integer combination of the others.  After validation the generators are
reordered into the canonical block layout

    edge-1 block (x) | interior block (y) | edge-2 block (z)

with edge blocks sorted outward from the origin and the interior block
sorted lexicographically, so downstream output is reproducible.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .errors import (
    ConeNotStrictlyConvex,
    ConeNotTwoDimensional,
    InvalidGeneratorSet,
    InvariantViolation,
    LatticeNotFull,
    NotMinimal,
    TooFewGenerators,
)


class LatticePoint(NamedTuple):
    u: int
    v: int


def cross(a: LatticePoint, b: LatticePoint) -> int:
    return a.u * b.v - a.v * b.u


def primitive(p: LatticePoint) -> LatticePoint:
    g = gcd(p.u, p.v)
    return LatticePoint(p.u // g, p.v // g)


def _point(p) -> LatticePoint:
    """p as a LatticePoint if it is a pair of non-bool ints."""
    try:
        u, v = p
    except (TypeError, ValueError):
        raise InvalidGeneratorSet(f"not a coordinate pair: {p!r}")
    if not isinstance(u, int) or not isinstance(v, int) \
            or isinstance(u, bool) or isinstance(v, bool):
        raise InvalidGeneratorSet(f"non-integer coordinates: {p!r}")
    return LatticePoint(u, v)


def compute_cone_rays(pts: tuple) -> tuple:
    """Primitive extreme rays of the cone of pts, the LatticePoints that
    validate has read, counterclockwise order.

    Ray 1 is the first generator with every generator on its
    counterclockwise side (cross(ray1, q) >= 0), ray 2 the first with every
    generator on its clockwise side.  Raises ConeNotTwoDimensional when all
    generators are collinear and ConeNotStrictlyConvex when the cone
    contains a line (angular width of pi or more): then a ray is missing
    or cross(ray1, ray2) <= 0.
    """
    if not pts:
        raise InvalidGeneratorSet("empty generator set")
    if all(cross(pts[0], q) == 0 for q in pts):
        raise ConeNotTwoDimensional(
            "all generators lie on one line through the origin")
    ray1 = next((p for p in pts if all(cross(p, q) >= 0 for q in pts)), None)
    ray2 = next((p for p in pts if all(cross(q, p) >= 0 for q in pts)), None)
    if ray1 is None or ray2 is None or cross(ray1, ray2) <= 0:
        raise ConeNotStrictlyConvex("the cone spanned contains a line")
    return primitive(ray1), primitive(ray2)


def check_generates_Z2(pts: tuple) -> bool:
    """True when pts, the LatticePoints that validate has read, span the
    full lattice: the gcd of all 2x2 minors of the generator matrix is 1."""
    g = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            g = gcd(g, abs(cross(pts[i], pts[j])))
            if g == 1:
                return True
    return g == 1


def semigroup_membership(p, vs: ValidatedSemigroup) -> bool:
    """Decide p in the semigroup of vs by bounded exhaustive search in
    heights.  p must be a pair of non-bool ints, as validate reads them,
    else InvalidGeneratorSet."""
    q = _point(p)
    u1, u2 = vs.rays
    return _member(vs.heights, 0, (cross(u1, q), cross(q, u2)), {})


def _member(heights: tuple, k: int, target: tuple, memo: dict) -> bool:
    """True when target is a nonnegative integer combination of heights[k:].
    The heights p -> (cross(u1, p), cross(p, u2)) are linear in p with
    determinant -cross(u1, u2) != 0, hence injective on Z^2, so the search
    is exact in heights.  A coefficient of g above t // h for a height
    h > 0 of g leaves the cone, and the last generator must give target
    exactly.  memo holds each (k, target) decided."""
    if target == (0, 0):
        return True
    t1, t2 = target
    if k == len(heights) or t1 < 0 or t2 < 0:
        return False
    h1, h2 = heights[k]
    top = min(t // h for t, h in ((t1, h1), (t2, h2)) if h)
    if k == len(heights) - 1:
        return target == (top * h1, top * h2)
    found = memo.get((k, target))
    if found is None:
        found = memo[k, target] = any(
            _member(heights, k + 1, (t1 - lam * h1, t2 - lam * h2), memo)
            for lam in range(top, -1, -1))
    return found


class ValidatedSemigroup(NamedTuple):
    """A validated generator set: its LatticePoints in canonical block order.

    l, m and n count the edge-1, interior and edge-2 generators, which
    occupy the canonical positions in that order.  permutation maps
    canonical positions to input positions:
    points[i] == input[permutation[i]].
    heights[i] is (cross(u1, p), cross(p, u2)) for p = points[i] and
    (u1, u2) = rays; their sums, degree_weights, make relations homogeneous.
    """

    points: tuple
    l: int
    m: int
    n: int
    permutation: tuple
    heights: tuple

    @property
    def rays(self) -> tuple:
        """Primitive edge rays of the cone, counterclockwise."""
        return primitive(self.points[0]), primitive(self.points[-1])

    @property
    def degree_weights(self) -> tuple:
        return tuple(map(sum, self.heights))

    @property
    def N(self) -> int:
        return len(self.points)

    @property
    def r(self) -> int:
        return self.N - 2

    @property
    def x_indices(self) -> range:
        return range(0, self.l)

    @property
    def y_indices(self) -> range:
        return range(self.l, self.l + self.m)

    @property
    def z_indices(self) -> range:
        return range(self.l + self.m, self.N)


def validate(points: Sequence) -> ValidatedSemigroup:
    """Check every standing hypothesis and canonicalize the generator order.

    points must be a list or tuple of pairs of non-bool ints, each read by
    _point, distinct and nonzero; InvalidGeneratorSet otherwise, in that
    order.  The result's points are these LatticePoints in canonical order.
    Raising order after that: cone shape first (so a single generator
    reports ConeNotTwoDimensional, not a count problem), then lattice
    fullness, generator count, and minimality.  One compute_cone_rays call
    gives the two extreme rays and so each generator's heights
    cross(ray1, p) and cross(p, ray2): a zero height puts it on that edge,
    the rest form the interior.  Both rays are generator directions, so an
    empty edge is an InvariantViolation.  The height sums, checked
    positive, are the degree weights and order each edge outward.
    """
    if not isinstance(points, (list, tuple)):
        raise InvalidGeneratorSet("generators must be a list or tuple")
    pts = tuple(map(_point, points))
    if len(set(pts)) != len(pts):
        raise InvalidGeneratorSet("duplicate generator")
    if (0, 0) in pts:
        raise InvalidGeneratorSet("the origin is not a generator")
    ray1, ray2 = compute_cone_rays(pts)
    heights = tuple((cross(ray1, p), cross(p, ray2)) for p in pts)
    edge1 = [i for i, h in enumerate(heights) if not h[0]]
    edge2 = [i for i, h in enumerate(heights) if not h[1]]
    interior = [i for i, h in enumerate(heights) if all(h)]
    if not edge1 or not edge2:
        raise InvariantViolation("a cone ray carries no generator")
    if not check_generates_Z2(pts):
        raise LatticeNotFull("generators span a proper sublattice")
    if len(pts) < 3:
        raise TooFewGenerators(f"need at least 3 generators, got {len(pts)}")
    weights = list(map(sum, heights))
    if min(weights) <= 0:
        raise InvariantViolation("a height sum is not positive")
    for i, p in enumerate(pts):
        if _member(heights[:i] + heights[i + 1:], 0, heights[i], {}):
            raise NotMinimal(i, p)

    perm = (tuple(sorted(edge1, key=weights.__getitem__))
            + tuple(sorted(interior, key=lambda i: pts[i]))
            + tuple(sorted(edge2, key=weights.__getitem__)))
    return ValidatedSemigroup(tuple(pts[i] for i in perm), len(edge1),
                              len(interior), len(edge2), perm,
                              tuple(heights[i] for i in perm))
