"""Validation and classification of planar affine semigroup generators.

A usable generator set spans a strictly convex two-dimensional cone, spans
the full integer lattice, and is minimal: no generator is a nonnegative
integer combination of the others.  After validation the generators are
reordered into the canonical block layout

    edge-1 block (x) | interior block (y) | edge-2 block (z)

with edge blocks sorted by increasing squared norm and the interior block
sorted lexicographically, so downstream output is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def dot(a: LatticePoint, b: LatticePoint) -> int:
    return a.u * b.u + a.v * b.v


def primitive(p: LatticePoint) -> LatticePoint:
    g = gcd(p.u, p.v)
    return LatticePoint(p.u // g, p.v // g)


def norm2(p: LatticePoint) -> int:
    return p.u * p.u + p.v * p.v


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered list of pairwise distinct nonzero lattice points."""

    points: tuple

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise InvalidGeneratorSet("duplicate generator")
        for p in self.points:
            if p == (0, 0):
                raise InvalidGeneratorSet("the origin is not a generator")

    def __len__(self) -> int:
        return len(self.points)


def generator_set(pairs: Sequence[Sequence[int]]) -> GeneratorSet:
    pts = []
    for p in pairs:
        try:
            u, v = p
        except (TypeError, ValueError):
            raise InvalidGeneratorSet(f"not a coordinate pair: {p!r}")
        if not isinstance(u, int) or not isinstance(v, int) \
                or isinstance(u, bool) or isinstance(v, bool):
            raise InvalidGeneratorSet(f"non-integer coordinates: {p!r}")
        pts.append(LatticePoint(u, v))
    return GeneratorSet(tuple(pts))


def compute_cone_rays(gens: GeneratorSet) -> tuple:
    """Primitive extreme rays of the cone, counterclockwise order.

    Raises ConeNotTwoDimensional when all generators are collinear and
    ConeNotStrictlyConvex when the cone contains a line (angular width of
    pi or more).
    """
    pts = gens.points
    if not pts:
        raise InvalidGeneratorSet("empty generator set")
    dirs = []
    for p in pts:
        d = primitive(p)
        if d not in dirs:
            dirs.append(d)
    if all(cross(dirs[0], d) == 0 for d in dirs):
        raise ConeNotTwoDimensional(
            "all generators lie on one line through the origin")
    # Scan ordered direction pairs for a counterclockwise wedge of angular
    # width below pi containing every generator.
    for d1 in dirs:
        for d2 in dirs:
            if cross(d1, d2) <= 0:
                continue
            if all(cross(d1, p) >= 0 and cross(p, d2) >= 0 for p in pts):
                return d1, d2
    raise ConeNotStrictlyConvex("the cone spanned contains a line")


def check_generates_Z2(gens: GeneratorSet) -> bool:
    """True when the generators span the full lattice: the gcd of all 2x2
    minors of the generator matrix is 1."""
    pts = gens.points
    g = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            g = gcd(g, abs(cross(pts[i], pts[j])))
            if g == 1:
                return True
    return g == 1


def _dual_vector(ray1: LatticePoint, ray2: LatticePoint,
                 pts: tuple) -> LatticePoint:
    """Sum of the inward edge normals of the cone from ray1 counterclockwise
    to ray2; InvariantViolation unless w . p > 0 for every p in pts."""
    w = LatticePoint(ray2.v - ray1.v, ray1.u - ray2.u)
    if not all(dot(w, p) > 0 for p in pts):
        raise InvariantViolation("dual vector is not positive on a generator")
    return w


def semigroup_membership(p, vs: ValidatedSemigroup) -> bool:
    """Decide p in the semigroup of vs by bounded exhaustive search.

    The first and last canonical points lie on validate's two rays, so they
    give its dual vector w, paired to vs.degree_weights; w is strictly
    positive, which caps every coefficient at w.p // w.gen."""
    pts = vs.gens.points
    rays = primitive(pts[0]), primitive(pts[-1])
    w = _dual_vector(*rays, pts)
    return _member(pts, rays, w, vs.degree_weights, 0, LatticePoint(*p), {})


def _member(pts: tuple, rays: tuple, w: LatticePoint, wg: list, k: int,
            target: LatticePoint, memo: dict) -> bool:
    """True when target is a nonnegative integer combination of pts[k:],
    which lie in the cone of rays; wg[i] is w . pts[i] for the strictly
    positive dual vector w.  memo holds each (k, target) decided.  With
    one generator g left, target must be lam g for lam = w.target / w.g."""
    if target == (0, 0):
        return True
    if k == len(pts) or cross(rays[0], target) < 0 \
            or cross(target, rays[1]) < 0:
        return False
    wt, g = dot(w, target), pts[k]
    if k == len(pts) - 1:
        lam, rest = divmod(wt, wg[k])
        return not rest and target == (lam * g.u, lam * g.v)
    found = memo.get((k, target))
    if found is None:
        found = memo[k, target] = any(
            _member(pts, rays, w, wg, k + 1, LatticePoint(
                target.u - lam * g.u, target.v - lam * g.v), memo)
            for lam in range(wt // wg[k], -1, -1))
    return found


@dataclass(frozen=True)
class ValidatedSemigroup:
    """A validated generator set in canonical block order.

    l, m and n count the edge-1, interior and edge-2 generators, which
    occupy the canonical positions in that order.  permutation maps
    canonical positions to input positions:
    gens.points[i] == original.points[permutation[i]].
    degree_weights are the pairings w . generator for the interior dual
    vector w; every binomial relation is homogeneous for them.
    """

    gens: GeneratorSet
    l: int
    m: int
    n: int
    permutation: tuple
    degree_weights: tuple

    @property
    def N(self) -> int:
        return len(self.gens.points)

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


def validate(gens: GeneratorSet) -> ValidatedSemigroup:
    """Check every standing hypothesis and canonicalize the generator order.

    Raising order: cone shape first (so a single generator reports
    ConeNotTwoDimensional, not a count problem), then lattice fullness,
    generator count, and minimality.  One compute_cone_rays call gives the
    two extreme rays: generators on ray1 form edge 1, those on ray2 edge 2,
    the rest the interior.  Both rays are generator directions, so an empty
    edge is an InvariantViolation.  The same rays give the interior dual
    vector w, checked positive on every generator, which bounds every
    minimality search and gives the degree weights.
    """
    ray1, ray2 = compute_cone_rays(gens)
    pts = gens.points
    edge1 = [i for i, p in enumerate(pts) if cross(ray1, p) == 0]
    edge2 = [i for i, p in enumerate(pts) if cross(p, ray2) == 0]
    interior = [i for i, p in enumerate(pts)
                if cross(ray1, p) and cross(p, ray2)]
    if not edge1 or not edge2:
        raise InvariantViolation("a cone ray carries no generator")
    if not check_generates_Z2(gens):
        raise LatticeNotFull("generators span a proper sublattice")
    if len(gens) < 3:
        raise TooFewGenerators(
            f"need at least 3 generators, got {len(gens)}")
    w = _dual_vector(ray1, ray2, pts)
    wg = [dot(w, p) for p in pts]
    for i, p in enumerate(pts):
        if _member(pts[:i] + pts[i + 1:], (ray1, ray2), w,
                   wg[:i] + wg[i + 1:], 0, p, {}):
            raise NotMinimal(i, p)

    def edge_key(i):
        return norm2(pts[i])

    perm = (tuple(sorted(edge1, key=edge_key))
            + tuple(sorted(interior, key=lambda i: pts[i]))
            + tuple(sorted(edge2, key=edge_key)))
    canonical = GeneratorSet(tuple(pts[i] for i in perm))
    return ValidatedSemigroup(canonical, len(edge1), len(interior),
                              len(edge2), perm, tuple(wg[i] for i in perm))
