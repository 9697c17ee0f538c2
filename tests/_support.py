"""Shared fixtures data, random input generation, and independent oracles."""
from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import add, le, mul
from typing import NamedTuple, Optional, Sequence

import toricnash as tn
from toricnash.algebra import (
    ORDERS,
    Binomial,
    TermOrder,
    binomial_from_vector,
    derivative,
    determinant,
)
from toricnash.errors import (
    ConeNotStrictlyConvex,
    ConeNotTwoDimensional,
    EmptyIdeal,
    InvalidGeneratorSet,
    InvariantViolation,
    LengthMismatch,
    NonMonomialResidue,
    NotSquare,
)
from toricnash.ideal import (
    ToricIdeal,
    _forcing_variables,
    _saturate_elements,
    int_rank,
    lattice_kernel,
    minimal_generators,
    normal_form,
)
from toricnash.nash import (
    OrbitSet,
    _Sweep,
    _subset_report,
    monomial_classes,
    singular_orbits,
    subset_minors,
)
from toricnash.semigroup import cross, primitive

FIXTURE_A = [(1, 0), (1, 1), (1, 2), (1, 3)]
FIXTURE_B = [(2, 0), (3, 0), (2, 6), (0, 4), (0, 5)]
FIXTURE_C = [(2, 0), (1, 2), (0, 3), (0, 5)]

# pytest ids of a parametrize over ORDERS: lex_order, degrevlex_order
ORDER_IDS = [f"{kind}_order" for kind in ORDERS]

# canonical variable order: x block | y block | z block
IDEAL_A = [
    ((1, 0, 1, 0), (0, 2, 0, 0)),
    ((1, 0, 0, 1), (0, 1, 1, 0)),
    ((0, 1, 0, 1), (0, 0, 2, 0)),
]
IDEAL_B = [
    ((0, 0, 0, 5, 0), (0, 0, 0, 0, 4)),
    ((0, 2, 0, 0, 6), (0, 0, 3, 3, 0)),
    ((0, 2, 0, 2, 2), (0, 0, 3, 0, 0)),
    ((1, 0, 0, 0, 2), (0, 0, 1, 1, 0)),
    ((1, 0, 0, 4, 0), (0, 0, 1, 0, 2)),
    ((1, 0, 2, 0, 0), (0, 2, 0, 3, 0)),
    ((2, 0, 0, 3, 0), (0, 0, 2, 0, 0)),
    ((2, 0, 1, 1, 0), (0, 2, 0, 0, 2)),
    ((3, 0, 0, 0, 0), (0, 2, 0, 0, 0)),
]
IDEAL_C = [
    ((0, 0, 5, 0), (0, 0, 0, 3)),
    ((1, 0, 0, 2), (0, 2, 2, 0)),
    ((1, 0, 3, 0), (0, 2, 0, 1)),
    ((2, 0, 1, 1), (0, 4, 0, 0)),
]

# minor monomial sets for the three row pairs of IDEAL_A
J12 = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
J13 = [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
J23 = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)]


def build(points):
    vs = tn.validate(points)
    return vs, tn.toric_ideal(vs)


def binomials(pairs):
    return [Binomial(tuple(p), tuple(m)) for p, m in pairs]


def pi(vs, alpha):
    pts = vs.points
    return (sum(a * p.u for a, p in zip(alpha, pts)),
            sum(a * p.v for a, p in zip(alpha, pts)))


def nf_exponent(exp, ideal):
    nf = normal_form({tuple(exp): 1}, ideal.gb)
    assert len(nf) == 1, f"monomial class of {exp} has non-monomial NF"
    (term,) = nf
    return term


def nf_classes(exps, ideal):
    return frozenset(nf_exponent(e, ideal) for e in exps)


def minor_classes(rows, ideal):
    """Normal-form exponents of the minor monomials of rows, coefficients
    dropped: monomial_classes over subset_minors' triples."""
    return monomial_classes(
        [exp for _, _, exp in subset_minors(rows, ideal)[0]], ideal)


def evaluate(p: dict, point: Sequence[int]) -> int:
    """p, an {exponent: coefficient} dict, at an integer point;
    LengthMismatch when an exponent of p and the point differ in length."""
    total = 0
    for exp, coeff in p.items():
        if len(exp) != len(point):
            raise LengthMismatch("evaluation point of wrong length")
        v = coeff
        for e, x in zip(exp, point):
            if e:
                v *= x ** e
        total += v
    return total


def ideal_member(p: dict, gb) -> bool:
    """Whether p lies in the ideal of the Groebner basis gb."""
    return not normal_form(p, gb)


def contains(big: OrbitSet, small: OrbitSet) -> bool:
    """Whether every orbit closure of small is one of big."""
    return small.has_O1 <= big.has_O1 and small.has_O2 <= big.has_O2


# --- independent oracles -----------------------------------------------------


def brute_membership(p, points, cap=40):
    """Breadth-first closure of the semigroup up to the target bound."""
    target = tuple(p)
    frontier = {(0, 0)}
    seen = set(frontier)
    box = max(abs(target[0]), abs(target[1]), cap)
    while frontier:
        new = set()
        for (u, v) in frontier:
            for (gu, gv) in points:
                q = (u + gu, v + gv)
                if q in seen:
                    continue
                if abs(q[0]) > box or abs(q[1]) > box:
                    continue
                new.add(q)
                seen.add(q)
        frontier = new
    return target in seen


def shift_coefficient(f, var, point, k):
    """Coefficient of t^k in f(point + t * e_var), exactly.

    Independent of the derivative code: expands each side of the binomial
    with the binomial theorem.
    """
    coeff = 0
    for exp, sign in ((f.plus, 1), (f.minus, -1)):
        e = exp[var]
        if e < k:
            continue
        rest = sign * math.comb(e, k) * point[var] ** (e - k)
        for i, (ei, xi) in enumerate(zip(exp, point)):
            if i != var and ei:
                rest *= xi ** ei
        coeff += rest
    return coeff


def det_along_row(matrix, row):
    """Cofactor expansion along an arbitrary row (independent of the
    library's first-row expansion), of {exponent: coefficient} dicts."""
    n = len(matrix)
    if n == 1:
        return {e: c for e, c in matrix[0][0].items() if c}
    acc: dict = {}
    for j in range(n):
        entry = matrix[row][j]
        if not entry:
            continue
        sub = [[matrix[i][k] for k in range(n) if k != j]
               for i in range(n) if i != row]
        sign = (-1) ** (row + j)
        minor = det_along_row(sub, 0)
        for e1, c1 in entry.items():
            for e2, c2 in minor.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + sign * c1 * c2
    return {e: c for e, c in acc.items() if c}


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination; NotSquare unless
    every row has as many entries as there are rows.  The oracle for the
    sweep's c_S numerator and the det(R_K) of per_pair_subset_minors."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NotSquare(f"matrix is {n}x{len(row)}")
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # each entry is a minor of the input: the division is exact
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def _fraction_reduce(m, ncols) -> int:
    """Bring the first ncols columns of the Fraction matrix m to reduced
    row echelon form in place, by Gauss-Jordan elimination; returns the
    rank (independent of the library's integer elimination,
    ideal._echelon)."""
    rank = 0
    for col in range(ncols):
        if rank == len(m):
            break
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_rank(rows):
    """Rank over the rationals, by _fraction_reduce."""
    m = [[Fraction(x) for x in row] for row in rows]
    return _fraction_reduce(m, len(m[0])) if m else 0


def _rewrite(exp, elements):
    """Normal form of one monomial: rewrite by the first element whose
    leading term divides it, until none does."""
    changed = True
    while changed:
        changed = False
        for b in elements:
            if all(map(le, b.plus, exp)):
                exp = tuple(e - p + m for e, p, m in zip(exp, b.plus, b.minus))
                changed = True
                break
    return exp


def oriented_binomial(a, b, order) -> Optional[Binomial]:
    """Binomial x^a - x^b with the larger order.key first; None when a == b.
    order.key raises LengthMismatch for a side of the wrong length."""
    ka, kb = order.key(a), order.key(b)
    if ka == kb:
        return None
    return Binomial(a, b) if ka > kb else Binomial(b, a)


def plain_buchberger(gens, order):
    """Reduced Groebner basis by Buchberger's loop with the coprime
    criterion only: every other pair's S-binomial is reduced (independent
    of the library's Gebauer-Moller pair update)."""
    basis = []
    for b in gens:
        ob = oriented_binomial(b.plus, b.minus, order)
        if ob is not None and ob not in basis:
            basis.append(ob)
    heap = []
    counter = itertools.count()

    def push_pairs(j):
        for i in range(j):
            lcm = tuple(map(max, basis[i].plus, basis[j].plus))
            heapq.heappush(heap, (order.key(lcm), next(counter), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if all(x == 0 or y == 0 for x, y in zip(f.plus, g.plus)):
            continue
        u = tuple(c - p + m for c, p, m in zip(lcm, f.plus, f.minus))
        v = tuple(c - p + m for c, p, m in zip(lcm, g.plus, g.minus))
        rem = oriented_binomial(_rewrite(u, basis), _rewrite(v, basis), order)
        if rem is not None:
            basis.append(rem)
            push_pairs(len(basis) - 1)

    basis.sort(key=lambda b: order.key(b.plus))
    kept = []
    for b in basis:
        if not any(all(map(le, k.plus, b.plus)) for k in kept):
            kept.append(b)
    reduced = [oriented_binomial(b.plus, _rewrite(b.minus, kept), order)
               for b in kept]
    reduced.sort(key=lambda b: order.key(b.plus))
    return tn.GroebnerBasis(order, tuple(reduced))


def assert_reduced_groebner(gens, gb):
    """Check that gb is a reduced Groebner basis containing gens, by
    _rewrite alone (independent of the engine that built gb): every input
    binomial and every S-binomial of gb reduces to zero, every element is
    oriented by gb.order, and no leading term divides a term of another
    element."""
    order = gb.order
    elements = gb.elements
    for b in gens:
        assert _rewrite(b.plus, elements) == _rewrite(b.minus, elements), \
            f"input {b} does not reduce to zero"
    for f, g in itertools.combinations(elements, 2):
        lcm = tuple(map(max, f.plus, g.plus))
        u = tuple(c - p + m for c, p, m in zip(lcm, f.plus, f.minus))
        v = tuple(c - p + m for c, p, m in zip(lcm, g.plus, g.minus))
        assert _rewrite(u, elements) == _rewrite(v, elements), \
            f"S-binomial of {f} and {g} does not reduce to zero"
    for i, b in enumerate(elements):
        assert order.key(b.plus) > order.key(b.minus), f"{b} not oriented"
        for j, c in enumerate(elements):
            if i != j:
                assert not all(map(le, c.plus, b.plus)), \
                    f"leading term of {c} divides that of {b}"
                assert not all(map(le, c.plus, b.minus)), \
                    f"leading term of {c} divides the trailing term of {b}"


def membership_minimal_generators(gb):
    """Irredundant subset of a reduced basis by ideal membership: prune in
    increasing leading-term order, dropping an element that lies in the
    ideal of the other kept ones (a fresh degrevlex basis per test)."""
    test_order = TermOrder("degrevlex", gb.nvars)
    kept = sorted(gb.elements, key=lambda b: gb.order.key(b.plus))
    for b in list(kept):
        others = [h for h in kept if h is not b]
        if others and ideal_member({b.plus: 1, b.minus: -1},
                                   plain_buchberger(others, test_order)):
            kept.remove(b)
    return tuple(kept)


def full_saturation_ideal(vs, order) -> ToricIdeal:
    """toric_ideal with the kernel binomials saturated by every variable,
    not only by the ones they force: the oracle for _forcing_variables."""
    gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
    gb = tn.buchberger(
        _saturate_elements(gens, range(vs.N), vs.degree_weights), order)
    return ToricIdeal(vs, gb, minimal_generators(gb, vs.degree_weights))


class RankedDegrevlex(NamedTuple):
    """The weighted degrevlex order that ranks the variables as ranking
    lists them, most significant first, with the nvars, degree and key
    that buchberger reads of an order."""

    ranking: tuple
    weights: tuple
    kind = "degrevlex"

    @property
    def nvars(self) -> int:
        return len(self.ranking)

    def degree(self, exp) -> int:
        return sum(map(mul, self.weights, exp))

    def key(self, exp) -> tuple:
        return reference_key(self, exp, self.ranking)


def reference_saturation(elements, variables, weights) -> list:
    """_saturate_elements by ranking each var last in the order in place of
    moving it last in the binomials: buchberger under the RankedDegrevlex
    that ranks var last, then the common power of var stripped at var.
    The oracle for _saturate_elements."""
    nvars = len(weights)
    current = list(elements)
    for var in variables:
        order = RankedDegrevlex(
            tuple(j for j in range(nvars) if j != var) + (var,), tuple(weights))
        stripped = []
        for b in tn.buchberger(current, order).elements:
            k = min(b.plus[var], b.minus[var])
            stripped.append(Binomial(
                b.plus[:var] + (b.plus[var] - k,) + b.plus[var + 1:],
                b.minus[:var] + (b.minus[var] - k,) + b.minus[var + 1:]))
        current = stripped
    return current


def box_semigroups(max_coord, sizes) -> list:
    """Every valid semigroup of k generators in [0, max_coord]^2, for each
    k in sizes."""
    box = [(u, v) for u in range(max_coord + 1) for v in range(max_coord + 1)
           if (u, v) != (0, 0)]
    out = []
    for k in sizes:
        for pts in itertools.combinations(box, k):
            try:
                out.append(tn.validate(list(pts)))
            except tn.ToricNashError:
                continue
    return out


def random_semigroups(seed, max_coord, sizes, count) -> list:
    """count distinct valid semigroups of k points of [0, max_coord]^2,
    k drawn from sizes, in the order a generator seeded with seed first
    draws them."""
    rng = random.Random(seed)
    box = [(u, v) for u in range(max_coord + 1) for v in range(max_coord + 1)
           if (u, v) != (0, 0)]
    sizes = list(sizes)
    seen, out = set(), []
    while len(out) < count:
        pts = sorted(rng.sample(box, rng.choice(sizes)))
        if tuple(pts) in seen:
            continue
        seen.add(tuple(pts))
        try:
            out.append(tn.validate(pts))
        except tn.ToricNashError:
            continue
    return out


def check_toric_ideals(surfaces) -> int:
    """Assert that toric_ideal saturates each surface by at most two
    variables, by none when it has three generators (one kernel vector
    generates the lattice ideal), that this saturation equals
    reference_saturation, that the ideal equals full_saturation_ideal under
    lex and degrevlex, and that check_orbit_ranks holds for each of those
    ideals; returns the number of surfaces."""
    count = 0
    for vs in surfaces:
        gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
        sigma = _forcing_variables(gens, vs.N)
        assert len(sigma) <= 2 and (vs.N > 3 or sigma == ()), vs.points
        assert _saturate_elements(gens, sigma, vs.degree_weights) == \
            reference_saturation(gens, sigma, vs.degree_weights), \
            vs.points
        for kind in ORDERS:
            ideal = tn.toric_ideal(vs, kind)
            full = full_saturation_ideal(vs, TermOrder(kind, vs.N))
            assert ideal.gb.elements == full.gb.elements, vs.points
            assert ideal.minimal_gens == full.minimal_gens, vs.points
            check_orbit_ranks(ideal)
        count += 1
    return count


def orbit_representatives(vs) -> dict:
    """A 0/1 point of each torus orbit of the surface."""
    l, m, n = vs.l, vs.m, vs.n
    return {
        "torus": (1,) * vs.N,
        "O1": (0,) * (l + m) + (1,) * n,
        "O2": (1,) * l + (0,) * (m + n),
        "origin": (0,) * vs.N,
    }


def derivative_rank(family, point, nvars) -> int:
    """Rank of the Jacobian of family at the point, from the evaluated
    derivative polynomials."""
    return int_rank([[evaluate(derivative(f, i), point)
                      for i in range(nvars)] for f in family])


def derivative_drops(family, vs) -> dict:
    """For each orbit point, whether derivative_rank of family drops below
    the codimension r there: the Jacobian definition of the singular
    locus, the oracle for nash.singular_orbits."""
    return {name: derivative_rank(family, point, vs.N) < vs.r
            for name, point in orbit_representatives(vs).items()}


def check_orbit_ranks(ideal) -> None:
    """Assert that the Jacobians of the minimal generators and of the
    Groebner basis of ideal have full rank on the torus, drop at the
    origin, and drop at O1 and O2 exactly where singular_orbits says."""
    vs = ideal.semigroup
    sigma = singular_orbits(vs)
    expected = {"torus": False, "O1": sigma.has_O1, "O2": sigma.has_O2,
                "origin": True}
    for fam in (ideal.minimal_gens, ideal.gb.elements):
        assert derivative_drops(fam, vs) == expected, vs.points


def cyclic_quotient(n, q) -> list:
    """The Hilbert basis of cone((1, 0), (q, n)) for coprime 0 < q < n:
    the nonzero points of the parallelogram the two rays span that are no
    sum of two nonzero points of the cone.  A summand of a point of the
    parallelogram lies in it too, so only its points are tried.  (u, v)
    lies in the cone when v >= 0 and n u - q v >= 0."""
    def in_cone(u, v):
        return v >= 0 and n * u - q * v >= 0

    cell = [(u, v) for u in range(q + 2) for v in range(n + 1)
            if (u, v) != (0, 0) and in_cone(u, v) and n * u - q * v <= n]
    return [p for p in cell if not any(
        a != p and in_cone(p[0] - a[0], p[1] - a[1]) for a in cell)]


def check_sweep_order(surfaces, seed=0) -> tuple:
    """Assert that one _Sweep over the r-subsets of the minimal generators
    and of the Groebner basis, under lex and degrevlex, visited in a
    shuffled order, gives each subset the minors of
    per_pair_subset_minors, and each full-rank subset the zero locus of
    those minors by the height rule of _subset_report; returns the number
    of surfaces and the number of fallback minors compared."""
    rng = random.Random(seed)
    count = fallbacks = 0
    for vs in surfaces:
        for kind in ORDERS:
            ideal = tn.toric_ideal(vs, kind)
            for fam in (ideal.minimal_gens, ideal.gb.elements):
                subsets = list(itertools.combinations(range(len(fam)), vs.r))
                rng.shuffle(subsets)
                sweep = _Sweep(ideal, fam)
                for idx in subsets:
                    chosen = [fam[i] for i in idx]
                    oracle = per_pair_subset_minors(chosen, ideal)
                    assert sweep.minors(idx) == oracle, (vs.points, idx)
                    fallbacks += oracle[1]
                    if oracle[0]:
                        report = _subset_report(None, sweep, idx)
                        assert report.zero_locus == tn.zero_locus(
                            oracle[0], vs), (vs.points, idx)
        count += 1
    return count, fallbacks


def report_minors(analysis, report=None) -> list:
    """The minors analysis.minors gives each report, as lists of
    (selection, coefficient, exponent) triples; those of report alone when
    it is given."""
    out = list(analysis.minors())
    return out if report is None else out[analysis.reports.index(report)]


def pair_scan_cone_rays(pts) -> tuple:
    """Reference for compute_cone_rays on the LatticePoints pts: the first
    ordered pair of distinct generator directions whose counterclockwise
    wedge, of angular width below pi, holds every generator; raises what
    compute_cone_rays raises."""
    if not pts:
        raise InvalidGeneratorSet("empty generator set")
    dirs = []
    for p in pts:
        d = primitive(p)
        if d not in dirs:
            dirs.append(d)
    if all(cross(dirs[0], d) == 0 for d in dirs):
        raise ConeNotTwoDimensional("collinear")
    for d1 in dirs:
        for d2 in dirs:
            if cross(d1, d2) > 0 and all(
                    cross(d1, p) >= 0 and cross(p, d2) >= 0 for p in pts):
                return d1, d2
    raise ConeNotStrictlyConvex("the cone spanned contains a line")


# GL2(Z) maps as (first row, second row): two reflections, one of which
# leaves the first quadrant, a quarter turn, which leaves it too, and shears
GL2_MAPS = [((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((0, -1), (1, 0)),
            ((1, 1), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (-3, 1))]


def check_gl2_invariance(surfaces, seed=0) -> Counter:
    """Assert that analyze under lex reads the same surface off each
    surface's generators mapped by one GL2_MAPS entry, drawn with a
    generator seeded with seed, and shuffled: N, s_min, the predicted and
    observed verdicts and sigma agree, with O1 and O2 swapped when the map
    has determinant -1 (it swaps the cone's two edges).  Returns how
    often each map was drawn."""
    rng = random.Random(seed)
    drawn = Counter()
    for vs in surfaces:
        (a, b), (c, d) = m = rng.choice(GL2_MAPS)
        drawn[m] += 1
        pts = [(a * u + b * v, c * u + d * v) for u, v in vs.points]
        rng.shuffle(pts)
        image = tn.validate(pts)
        ideal, mapped = tn.toric_ideal(vs), tn.toric_ideal(image)
        before, after = tn.analyze(ideal), tn.analyze(mapped)
        sigma = before.sigma
        if a * d - b * c == -1:
            sigma = OrbitSet(sigma.has_O2, sigma.has_O1)
        assert (image.N, mapped.s_min, after.verdict.predicted,
                after.verdict.observed, after.sigma) == \
            (vs.N, ideal.s_min, before.verdict.predicted,
             before.verdict.observed, sigma), (vs.points, m)
    return drawn


def check_prefix_wedges(ideal, seed=0) -> tuple:
    """Assert, for one _Sweep over the r-subsets of the minimal generators
    and one over those of the Groebner basis, each visited in a shuffled
    order, that the reference minor behind c_S is int_det of the subset's
    difference rows over the columns 1..N-2: zero exactly when minors is
    empty, else every minor's coefficient times the sweep's reference is
    that minor times (-1)^(a+b) det(g_a, g_b).  Then the sweep must have
    memoised exactly the prefixes of the subsets, the empty one included,
    each holding int_det of its rows over each choice of inner columns
    and the column sums of their plus sides.  Returns (subsets,
    rank-deficient subsets)."""
    vs, rng = ideal.semigroup, random.Random(seed)
    pts = vs.points
    inner = range(1, vs.N - 1)
    subsets = zeros = 0
    for fam in (ideal.minimal_gens, ideal.gb.elements):
        rows = [b.difference() for b in fam]
        order = list(itertools.combinations(range(len(fam)), vs.r))
        rng.shuffle(order)
        sweep = _Sweep(ideal, fam)
        for idx in order:
            numerator = int_det([[rows[i][c] for c in inner] for i in idx])
            minors, _ = sweep.minors(idx)
            assert bool(minors) == bool(numerator), (pts, idx)
            for (a, b), coeff, _ in minors:
                det_ab = (-1) ** (a + b) * (pts[a].u * pts[b].v
                                            - pts[a].v * pts[b].u)
                assert coeff * sweep.reference == numerator * det_ab, \
                    (pts, idx, (a, b))
            subsets += 1
            zeros += not numerator
        assert set(sweep.wedges) == {idx[:k] for idx in order
                                     for k in range(vs.r)}
        for prefix, (wedge, sums) in sweep.wedges.items():
            assert sorted(wedge) == list(
                itertools.combinations(inner, len(prefix)))
            for cols, value in wedge.items():
                assert value == int_det([[rows[i][c] for c in cols]
                                         for i in prefix]), (prefix, cols)
            assert sums == tuple(sum(fam[i].plus[c] for i in prefix)
                                 for c in range(vs.N)), prefix
    return subsets, zeros


def reference_key(order, exp, ranking=None) -> tuple:
    """TermOrder.key by generator expressions over a ranking of the
    variables, most significant first, x_0 > x_1 > ... by default: the
    oracle for key, and the key of RankedDegrevlex."""
    if len(exp) != order.nvars:
        raise LengthMismatch("exponent length differs from variable count")
    if ranking is None:
        ranking = range(order.nvars)
    if order.kind == "lex":
        return tuple(exp[i] for i in ranking)
    weights = order.weights or (1,) * order.nvars
    return (sum(w * e for w, e in zip(weights, exp)),
            tuple(-exp[i] for i in reversed(ranking)))


# The oracle for ideal._lll_reduce: textbook LLL over Fraction, which
# recomputes the whole orthogonalization after every change of the basis.


def fraction_lll(vectors: Sequence[Sequence[int]]) -> list:
    """Size-reduce an integer lattice basis (textbook LLL, delta = 3/4).

    Plain elimination leaves kernel vectors with needlessly large entries,
    which makes every basis computation downstream explode; short vectors
    keep them cheap.  Dimensions here are tiny, so the quadratic
    re-orthogonalization below costs nothing.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    if n <= 1:
        return [tuple(v) for v in b]

    def fdot(u, v):
        return sum(Fraction(x) * y for x, y in zip(u, v))

    def gso():
        gs, mu, norms = [], [[Fraction(0)] * n for _ in range(n)], []
        for i in range(n):
            w = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = fdot(b[i], gs[j]) / norms[j]
                w = [x - mu[i][j] * y for x, y in zip(w, gs[j])]
            gs.append(w)
            norms.append(fdot(w, w))
        return gs, mu, norms

    delta = Fraction(3, 4)
    gs, mu, norms = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                gs, mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            gs, mu, norms = gso()
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


def per_pair_subset_minors(family_subset: Sequence[Binomial],
                           ideal: ToricIdeal) -> tuple:
    """(minors, fallbacks) in the shape of nash.subset_minors, evaluated
    column pair by column pair, each rebuilding the subset's difference
    rows and taking det(R_K) from int_det.

    A minor is det(R_K) times its closed-form monomial when that exponent
    is nonnegative.  Otherwise it counts as a fallback and is expanded
    exactly: algebra.determinant of the algebra.derivative entries, each
    term's monomial normal form by _rewrite, not the library's
    monomial_nf.  The reduced minor must be a single term with coefficient
    det(R_K): more terms raise NonMonomialResidue, zero or another
    coefficient InvariantViolation.
    """
    vs = ideal.semigroup
    rows = [b.difference() for b in family_subset]
    plus_sums = [sum(col) for col in zip(*(b.plus for b in family_subset))]
    out, fallbacks = [], 0
    for sel in itertools.combinations(range(vs.N), 2):
        cols = [i for i in range(vs.N) if i not in sel]
        det_rk = int_det([[row[c] for c in cols] for row in rows])
        if det_rk == 0:
            continue
        exp = tuple(s - 1 + (i in sel) for i, s in enumerate(plus_sums))
        if min(exp) >= 0:
            out.append((sel, det_rk, exp))
            continue
        fallbacks += 1
        terms = determinant([[derivative(b, c) for c in cols]
                             for b in family_subset])
        reduced: dict = {}
        for e, c in terms.items():
            nf = _rewrite(e, ideal.gb.elements)
            reduced[nf] = reduced.get(nf, 0) + c
        reduced = {e: c for e, c in reduced.items() if c}
        if len(reduced) > 1:
            raise NonMonomialResidue(
                f"minor reduced to {len(reduced)} terms for columns {sel}")
        if not reduced:
            raise InvariantViolation(
                "nonzero coefficient minor reduced to zero")
        ((nf, coeff),) = reduced.items()
        if coeff != det_rk:
            raise InvariantViolation(
                "reduced minor coefficient differs from the difference-matrix "
                "determinant")
        out.append((sel, coeff, nf))
    return out, fallbacks


def is_constant(mono: tuple) -> bool:
    """Whether the (selection, coefficient, exponent) triple mono is a
    constant."""
    return all(e == 0 for e in mono[2])


def index_zero_locus(monomials, vs) -> OrbitSet:
    """The orbit test of nash.zero_locus by index lists: a monomial
    vanishes on the z-axis orbit when it has an x or y variable, on the
    x-axis orbit when it has a y or z variable; is_constant refuses a
    constant minor."""
    if not monomials:
        raise EmptyIdeal("no monomials given")
    xy = list(vs.x_indices) + list(vs.y_indices)
    yz = list(vs.y_indices) + list(vs.z_indices)
    has_o1 = has_o2 = True
    for mono in monomials:
        if is_constant(mono):
            raise InvariantViolation("constant minor: empty zero locus")
        exp = mono[2]
        if not any(exp[i] for i in xy):
            has_o1 = False
        if not any(exp[i] for i in yz):
            has_o2 = False
    return OrbitSet(has_o1, has_o2)


def reference_monomial_str(coeff: int, exp, names) -> str:
    """coeff * x^exp as a report prints it, written apart from cli: the
    factors name or name^e joined by *, then the coefficient in front
    unless it is 1 (a bare minus for -1); a constant is its coefficient."""
    body = ""
    for name, e in zip(names, exp):
        if e:
            body += ("*" if body else "") + name + (f"^{e}" if e > 1 else "")
    if not body:
        return str(coeff)
    return {1: body, -1: "-" + body}.get(coeff, f"{coeff}*{body}")


def reference_binomial_str(b: Binomial, names) -> str:
    return (f"{reference_monomial_str(1, b.plus, names)} - "
            f"{reference_monomial_str(1, b.minus, names)}")


def disagreeing_sigma(monkeypatch):
    """Make analyze read sigma as the closure of O1 alone; the minors of
    fixture A, whose sigma is the origin, do not vanish on it."""
    monkeypatch.setattr(tn.nash, "singular_orbits",
                        lambda vs: OrbitSet(True, False))


def support_witness(analysis, vs):
    """The witness by minor supports, an oracle for Analysis.witness: for a
    one-dimensional sigma, the first full-rank report when both closures
    are singular, else the first with a minor supported on the x block
    (sigma has only O1) or on the z block (only O2); None otherwise."""
    sigma = analysis.sigma
    if sigma.dimension != 1:
        return None
    both = sigma.has_O1 and sigma.has_O2
    block = set(vs.x_indices if sigma.has_O1 else vs.z_indices)
    for report, minors in zip(analysis.reports, report_minors(analysis)):
        supports = ({i for i, e in enumerate(exp) if e}
                    for _, _, exp in minors)
        if report.rank_ok and (both or any(s and s <= block
                                           for s in supports)):
            return report
    return None


# --- fiber minima: normal forms from the semigroup ----------------------------
#
# Under a Groebner basis of a toric ideal, the normal form of x^e is the
# order-minimal monomial of its fiber {x^f : sum f_j g_j = sum e_j g_j}
# (Sturmfels, Groebner Bases and Convex Polytopes, ch. 4).  fiber_minima
# lists each fiber from the generators alone, with no basis.


def fiber_minima(exps, points, order) -> dict:
    """{exp: order-minimal exponent of the fiber of deg(x^exp)} for exps,
    the degree of x^e being sum e_j points[j]; each degree's fiber is
    listed once, by a search over the variables that enters only states
    from which the rest of the degree is reachable."""
    n = len(points)
    w = next(w for w in itertools.product(range(-3, 4), repeat=2)
             if all(w[0] * u + w[1] * v > 0 for u, v in points))
    wg = [w[0] * u + w[1] * v for u, v in points]
    reach: dict = {}

    def steps(j, d):
        # the remainders d - f g_j, f = 0, 1, ..., while w . d stays >= 0
        f, (u, v) = 0, d
        while w[0] * u + w[1] * v >= 0:
            yield f, (u, v)
            f, u, v = f + 1, u - points[j][0], v - points[j][1]

    def reachable(j, d):
        if j == n:
            return d == (0, 0)
        got = reach.get((j, d))
        if got is None:
            got = reach[(j, d)] = any(reachable(j + 1, rest)
                                      for _, rest in steps(j, d))
        return got

    def fiber(j, d):
        if j == n:
            yield ()
            return
        for f, rest in steps(j, d):
            if reachable(j + 1, rest):
                for tail in fiber(j + 1, rest):
                    yield (f,) + tail

    minima: dict = {}
    out = {}
    for e in exps:
        d = (sum(c * p[0] for c, p in zip(e, points)),
             sum(c * p[1] for c, p in zip(e, points)))
        if d not in minima:
            minima[d] = min(fiber(0, d), key=order.key)
        out[e] = minima[d]
    return out


def random_binomial_family(rng, nvars, size):
    """size binomials in nvars variables with exponents 0..2."""
    family = []
    while len(family) < size:
        plus = tuple(rng.randint(0, 2) for _ in range(nvars))
        minus = tuple(rng.randint(0, 2) for _ in range(nvars))
        if plus != minus:
            family.append(Binomial(plus, minus))
    return family


def in_integer_span(basis, v):
    """Solve v = sum c_i basis_i over the rationals; True when the unique
    solution is integral."""
    rows = [list(b) for b in basis]
    n = len(rows)
    m = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(v[j])]
         for j in range(len(v))]
    rank = _fraction_reduce(m, n)
    sol = [Fraction(0)] * n
    for i in range(rank):
        col = next(j for j in range(n) if m[i][j])
        sol[col] = m[i][n]
    for i in range(len(m)):
        if all(x == 0 for x in m[i][:n]) and m[i][n] != 0:
            return False  # inconsistent: v not even in the rational span
    return all(x.denominator == 1 for x in sol)


# --- random population --------------------------------------------------------

_SHEARS = [((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((1, 1), (0, 1)),
           ((1, -1), (0, 1))]


def _shear(points, rng, max_coord):
    (a, b), (c, d) = rng.choice(_SHEARS)
    out = [(a * u + b * v, c * u + d * v) for (u, v) in points]
    if all(abs(x) <= max_coord and abs(y) <= max_coord for x, y in out):
        return out
    return points


def _uniform_candidate(rng, max_coord):
    s = rng.choice([3, 3, 4, 4, 4, 5, 5, 6])
    pts = set()
    while len(pts) < s:
        p = (rng.randint(0, max_coord), rng.randint(0, max_coord))
        if p != (0, 0):
            pts.add(p)
    pts = sorted(pts)
    if rng.random() < 0.3:
        pts = _shear(pts, rng, max_coord)
    return pts


def _narrow_candidate(rng, max_coord):
    # arithmetic families along a line of height 1: these tend to have a
    # point singular locus, which uniform sampling rarely produces
    d = rng.choice([3, 3, 4, 5])
    cols = sorted(rng.sample(range(1, d), rng.randint(1, d - 1)))
    pts = [(1, 0)] + [(1, j) for j in cols] + [(1, d)]
    if rng.random() < 0.5:
        pts = _shear(pts, rng, max_coord)
    return pts


def random_semigroup(rng, max_coord=6):
    while True:
        if rng.random() < 0.3:
            pts = _narrow_candidate(rng, max_coord)
        else:
            pts = _uniform_candidate(rng, max_coord)
        try:
            return tn.validate(pts)
        except tn.ToricNashError:
            continue


def sweep_cost(ideal):
    n = ideal.semigroup.N
    return math.comb(ideal.s_min, ideal.semigroup.r) * math.comb(n, 2)


def build_population(seed=20240817, count=52, max_cost=2500):
    """Valid random semigroups with their ideals, capped so the exhaustive
    minor sweeps in the acceptance suite stay inside their time budget."""
    rng = random.Random(seed)
    population = []
    while len(population) < count:
        vs = random_semigroup(rng)
        ideal = tn.toric_ideal(vs)
        if len(ideal.gb.elements) > 30 or sweep_cost(ideal) > max_cost:
            continue
        population.append((vs, ideal))
    return population
