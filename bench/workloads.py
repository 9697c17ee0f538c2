"""Inputs of the three benchmark workloads, made from a seed.

Every input is a (label, InputSpec, expected refusal) triple.  The expected
refusal is the name of the validation error the surface must be refused
with, or None for a surface that must be analysed.

sweep and ideal are fixed surfaces; the seed only shuffles the order in
which each surface's generators are given.  validate() puts generators in
canonical order, so the cost and the answer of a named surface do not
depend on the seed.

batch is every small surface of a fixed population, posed differently for
each seed: the seed shears it, shuffles its generators, picks its term
order and relation family, and picks which invalid generator sets join the
batch and where each item sits in the pass.
"""
from __future__ import annotations

import itertools
import random
from math import gcd

from toricnash.cli import InputSpec

_CYC6 = [(1, i) for i in range(6)]

# The nash minor sweep does most of the work on these; together they reach
# the never_equal (cyc6), exists_equal (through dim1_selector) and
# always_equal verdicts.
SWEEP = [
    ("cyc6/lex", _CYC6, "lex"),
    ("cyc6/degrevlex", _CYC6, "degrevlex"),
    ("exists/lex", [(7, 0), (9, 0), (3, 1), (7, 4), (6, 6)], "lex"),
    ("always/degrevlex", [(5, 0), (7, 0), (2, 3), (0, 5), (0, 7)],
     "degrevlex"),
]

# toric_ideal does most of the work on these.  The first two are bound by
# minimal_generators, the last two by the final lex Buchberger and the
# check that the minimal generators regenerate the basis.
IDEAL = [
    ("mingens-a/lex", [(11, 0), (12, 0), (13, 0), (1, 1), (0, 11)], "lex"),
    ("mingens-b/lex", [(7, 0), (8, 0), (9, 0), (10, 0), (1, 1), (0, 7)],
     "lex"),
    ("buchberger-a/lex", [(2, 0), (1, 2), (4, 2), (4, 3), (1, 3)], "lex"),
    ("buchberger-b/lex", [(2, 0), (1, 4), (3, 2), (4, 3), (0, 2)], "lex"),
]

NAMED = {"sweep": SWEEP, "ideal": IDEAL}

# batch population: generator sets of 3 or 4 distinct nonzero points of
# [0, BOX]^2.  Five-generator sets are left out: they cost 10 to 100 times
# more than four-generator ones, so a handful of them would set the pass
# time and make it depend on the seed.
BOX = 3
SIZES = (3, 4)
INVALID_SHARE = 0.05
GROEBNER_SHARE = 1 / 3
SHEAR_SHARE = 0.3
_SHEARS = [((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((1, 1), (0, 1)),
           ((1, -1), (0, 1))]


# --- an independent validity oracle ----------------------------------------
#
# The batch is split into valid and invalid generator sets without calling
# the library, so the benchmark can tell when the library refuses a valid
# surface or accepts an invalid one.  The checks follow the order in which
# validate() raises.  Population points lie in the first quadrant, where
# w = (1, 1) pairs positively with every point: the cone is strictly convex
# and w bounds the search for semigroup membership.


def _cross(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _in_semigroup(p, gens) -> bool:
    """p is a sum of elements of gens: breadth-first search below w . p."""
    limit = p[0] + p[1]
    frontier, seen = {(0, 0)}, set()
    while frontier:
        nxt = set()
        for q in frontier:
            for g in gens:
                r = (q[0] + g[0], q[1] + g[1])
                if r == p:
                    return True
                if r[0] + r[1] < limit and r not in seen:
                    seen.add(r)
                    nxt.add(r)
        frontier = nxt
    return False


def expected_refusal(points):
    """Name of the validation error for points, or None when they are valid.

    points are at least three distinct nonzero points of the first quadrant.
    """
    pairs = list(itertools.combinations(points, 2))
    if all(_cross(p, q) == 0 for p, q in pairs):
        return "ConeNotTwoDimensional"
    g = 0
    for p, q in pairs:
        g = gcd(g, _cross(p, q))
    if g != 1:
        return "LatticeNotFull"
    for i, p in enumerate(points):
        if _in_semigroup(p, points[:i] + points[i + 1:]):
            return "NotMinimal"
    return None


def population():
    """(valid, invalid) generator sets of the batch population.

    invalid holds (points, error name) pairs.
    """
    box = [(u, v) for u in range(BOX + 1) for v in range(BOX + 1)
           if (u, v) != (0, 0)]
    valid, invalid = [], []
    for k in SIZES:
        for pts in itertools.combinations(box, k):
            err = expected_refusal(list(pts))
            if err is None:
                valid.append(list(pts))
            else:
                invalid.append((list(pts), err))
    return valid, invalid


# --- workloads ----------------------------------------------------------------


def _shear(points, rng):
    """Apply a random unimodular shear, if the result stays in the box.

    A shear is an automorphism of the lattice, so it keeps the validity of
    a generator set and the name of its validation error.
    """
    (a, b), (c, d) = rng.choice(_SHEARS)
    out = [(a * u + b * v, c * u + d * v) for u, v in points]
    if all(abs(u) <= BOX and abs(v) <= BOX for u, v in out):
        return out
    return points


def _exact_share(n, share, rng):
    """n booleans, round(n * share) of them True, in random order."""
    k = round(n * share)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def batch_inputs(seed: int) -> list:
    rng = random.Random(seed)
    # the pose of each valid set is drawn once for all seeds: it sets the
    # set's cost, and the slowest few sets set latency_tail_s
    pose = random.Random("batch-pose")
    valid, invalid = population()
    chosen = [(pts, None) for pts in valid]
    chosen += rng.sample(invalid, round(len(valid) * INVALID_SHARE))
    n = len(chosen)
    groebner = _exact_share(n, GROEBNER_SHARE, pose)
    degrevlex = _exact_share(n, 0.5, pose)
    out = []
    for (pts, err), gro, drl in zip(chosen, groebner, degrevlex):
        pts = list(pts)
        if pose.random() < SHEAR_SHARE:
            pts = _shear(pts, pose)
        rng.shuffle(pts)
        spec = InputSpec(tuple(pts), "degrevlex" if drl else "lex", None,
                         "groebner" if gro else "minimal")
        out.append((spec, err))
    rng.shuffle(out)
    return [(f"batch-{i}", spec, err) for i, (spec, err) in enumerate(out)]


def named_inputs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}-{seed}")
    out = []
    for label, gens, order in NAMED[workload]:
        gens = list(gens)
        rng.shuffle(gens)
        out.append((label, InputSpec(tuple(gens), order), None))
    return out


def inputs(workload: str, seed: int) -> list:
    if workload == "batch":
        return batch_inputs(seed)
    return named_inputs(workload, seed)
