"""Lattice kernels, binomial Groebner bases, and the toric ideal pipeline.

The defining ideal of the surface is the lattice ideal of the kernel of the
generator matrix.  It is computed the standard way: take the ideal of a
kernel basis, then saturate with respect to every variable.  Everything in
sight is a pure difference of two monomials, and S-polynomials and
reductions of such differences stay differences, so the Buchberger loop
below never touches a general polynomial.  It skips a pair when the two
leading terms are coprime, and by the chain criterion: when a third
element's leading term divides the lcm of the pair's and neither pair it
forms with the two is still pending (Cox-Little-O'Shea, Ideals, Varieties,
and Algorithms, section 2.9).

Saturation by one variable recomputes the basis under a graded reverse-lex
order that ranks the variable last and then strips the common variable
power from every element.  That trick requires the ideal to be homogeneous
for the (strictly positive) degree weights attached to the order, which
holds for every ideal this library builds: the weights come from a vector
that pairs strictly positively with all semigroup generators.

Minimal generators need no Groebner basis.  A binomial x^u - x^v lies in
the ideal of a set of binomials exactly when u reaches v by moves
x^plus <-> x^minus of the set (Diaconis-Sturmfels, Ann. Statist. 26, 1998;
Sturmfels, Groebner Bases and Convex Polytopes, ch. 4).  Every move keeps
the weighted degree, and with strictly positive weights only finitely many
monomials share a degree, so that fiber is finite and the search ends.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import le, mul
from typing import Iterable, List, Optional, Sequence

from .algebra import (
    Binomial,
    Polynomial,
    TermOrder,
    binomial_from_vector,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    lex_order,
    oriented_binomial,
)
from .errors import InvariantViolation
from .semigroup import ValidatedSemigroup

# --- integer kernel --------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """Integer basis of the relation lattice of the generator matrix."""

    vectors: tuple

    def __len__(self) -> int:
        return len(self.vectors)


def _row_reduce_column(rows: List[List[int]], pivot_row: int, col: int) -> bool:
    """Clear column col below pivot_row with unimodular row operations.

    Returns True when a pivot was found (and moved to pivot_row).
    """
    piv = None
    for i in range(pivot_row, len(rows)):
        if rows[i][col] != 0:
            piv = i
            break
    if piv is None:
        return False
    rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
    for i in range(pivot_row + 1, len(rows)):
        while rows[i][col] != 0:
            a, b = rows[pivot_row][col], rows[i][col]
            if abs(a) > abs(b):
                rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
                continue
            q = b // a
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
    return True


def _lll_reduce(vectors: Sequence[Sequence[int]]) -> list:
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


def lattice_kernel(vs: ValidatedSemigroup) -> LatticeBasis:
    """Basis of all integer vectors v with sum(v_i * generator_i) == 0.

    Row-reduces the generator columns of [generators | identity]; rows whose
    generator part vanishes carry the kernel vectors in the identity part.
    The result is LLL-reduced so the binomials it seeds stay small.
    """
    pts = vs.gens.points
    s = len(pts)
    rows = [[p.u, p.v] + [1 if j == i else 0 for j in range(s)]
            for i, p in enumerate(pts)]
    pivot = 0
    for col in range(2):
        if _row_reduce_column(rows, pivot, col):
            pivot += 1
    basis = []
    for row in _lll_reduce([row[2:] for row in rows[pivot:]]):
        v = list(row)
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        v = [x // g for x in v]
        for x in v:
            if x != 0:
                if x < 0:
                    v = [-y for y in v]
                break
        basis.append(tuple(v))
    basis.sort()
    for v in basis:
        acc = (sum(c * p.u for c, p in zip(v, pts)),
               sum(c * p.v for c, p in zip(v, pts)))
        if acc != (0, 0):
            raise InvariantViolation("kernel vector fails the relation check")
    if len(basis) != s - 2:
        raise InvariantViolation("kernel rank is not s - 2")
    return LatticeBasis(tuple(basis))


# --- binomial Groebner engine -----------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis of a binomial ideal under a fixed order."""

    order: TermOrder
    elements: tuple

    @property
    def nvars(self) -> int:
        return self.order.nvars

    def __len__(self) -> int:
        return len(self.elements)


def monomial_nf(exp, elements) -> tuple:
    """Exponent of the normal form of x^exp against the binomials elements.

    Rewrites x^exp by the first element whose leading exponent plus divides
    it, to x^(exp - plus + minus), until no element applies; each step
    strictly decreases the monomial, so this terminates.  Every element is
    a pure difference x^plus - x^minus, so the normal form of a monomial is
    again one monomial with coefficient 1, and against a Groebner basis
    (gb.elements) it is the unique one: normal_form of x^exp has the single
    term x^monomial_nf(exp, gb.elements).  Normal forms are linear, so a
    polynomial reduces term by term through this function.
    """
    while True:
        for b in elements:
            if all(map(le, b.plus, exp)):
                exp = tuple(e - p + m for e, p, m in zip(exp, b.plus, b.minus))
                break
        else:
            return exp


def _reduce_binomial(u, v, elements, order) -> Optional[Binomial]:
    """Remainder of x^u - x^v on division by binomials; None when zero."""
    u = monomial_nf(u, elements)
    v = monomial_nf(v, elements)
    return oriented_binomial(u, v, order)


def _autoreduce(elements: List[Binomial], order: TermOrder) -> List[Binomial]:
    """Minimize leading terms, then reduce every trailing term."""
    elements = sorted(set(elements), key=lambda b: order.key(b.plus))
    kept: List[Binomial] = []
    for b in elements:
        if any(exp_divides(k.plus, b.plus) for k in kept):
            continue
        kept.append(b)
    out: List[Binomial] = list(kept)
    for i, b in enumerate(out):
        minus = monomial_nf(b.minus, out)
        if minus != b.minus:
            nb = oriented_binomial(b.plus, minus, order)
            if nb is None:
                raise InvariantViolation("basis element reduced to zero")
            out[i] = nb
    out.sort(key=lambda b: order.key(b.plus))
    return out


def buchberger(gens: Iterable[Binomial], order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal spanned by gens.

    Pair selection follows the normal strategy (smallest lcm of leading
    terms first).  A pair (i, j) is skipped when its leading terms are
    coprime, or by the chain criterion: some other element k has a leading
    term dividing their lcm, and neither (i, k) nor (j, k) is still pending.
    """
    basis: List[Binomial] = []
    seen = set()
    for b in gens:
        ob = oriented_binomial(b.plus, b.minus, order)
        if ob is not None and (ob.plus, ob.minus) not in seen:
            seen.add((ob.plus, ob.minus))
            basis.append(ob)

    heap: list = []
    pending = set()  # pairs (i, j), i < j, not yet popped from the heap
    counter = itertools.count()

    def push_pairs(j: int) -> None:
        for i in range(j):
            lcm = exp_lcm(basis[i].plus, basis[j].plus)
            heapq.heappush(heap, (order.key(lcm), next(counter), i, j, lcm))
            pending.add((i, j))

    def chained(i: int, j: int, lcm) -> bool:
        for k, h in enumerate(basis):
            if (k != i and k != j and all(map(le, h.plus, lcm))
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.remove((i, j))
        f, g = basis[i], basis[j]
        if exp_add(f.plus, g.plus) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        if chained(i, j, lcm):
            continue
        u = exp_add(exp_sub(lcm, f.plus), f.minus)
        v = exp_add(exp_sub(lcm, g.plus), g.minus)
        rem = _reduce_binomial(u, v, basis, order)
        if rem is not None:
            basis.append(rem)
            push_pairs(len(basis) - 1)

    return GroebnerBasis(order, tuple(_autoreduce(basis, order)))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Complete multivariate division of p by the basis.

    The result contains no term divisible by a leading term; it is the
    unique normal form since the basis is a Groebner basis.
    """
    order = gb.order
    elements = gb.elements
    work = dict(p.terms)
    out: dict = {}
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        reducer = None
        for b in elements:
            if exp_divides(b.plus, exp):
                reducer = b
                break
        if reducer is None:
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
            continue
        new = exp_add(exp_sub(exp, reducer.plus), reducer.minus)
        s = work.get(new, 0) + coeff
        if s:
            work[new] = s
        else:
            work.pop(new, None)
    return Polynomial(out)


def ideal_member(p: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(p, gb).is_zero()


def same_ideal(fam_a: Sequence[Binomial], fam_b: Sequence[Binomial],
               order: TermOrder) -> bool:
    """Ideal equality through reduced-basis equality under one order."""
    ga = buchberger(fam_a, order)
    gb = buchberger(fam_b, order)
    return ga.elements == gb.elements


# --- saturation --------------------------------------------------------------


def _saturate_elements_once(elements: Sequence[Binomial], var: int, nvars: int,
                            weights: Optional[Sequence[int]]) -> tuple:
    """One variable saturation step on a raw binomial list.

    Returns (new elements, True when any power was stripped).  The output
    is a basis of (ideal : var^infinity) under the step's own order.
    """
    ranking = tuple(j for j in range(nvars) if j != var) + (var,)
    sat_order = TermOrder("degrevlex", ranking,
                          None if weights is None else tuple(weights))
    lowered = buchberger(elements, sat_order)
    stripped = []
    changed = False
    for b in lowered.elements:
        k = min(b.plus[var], b.minus[var])
        if k:
            plus = b.plus[:var] + (b.plus[var] - k,) + b.plus[var + 1:]
            minus = b.minus[:var] + (b.minus[var] - k,) + b.minus[var + 1:]
            b = Binomial(plus, minus)
            changed = True
        stripped.append(b)
    return stripped, changed


def _saturate_elements(elements: Sequence[Binomial], nvars: int,
                       weights: Optional[Sequence[int]]) -> list:
    """Generators of (ideal : (product of all variables)^infinity).

    Sweeps the variables until a full pass strips nothing.  All work stays
    in the cheap graded reverse-lex orders; callers convert to their target
    order once at the end.
    """
    current = list(elements)
    while True:
        changed = False
        for var in range(nvars):
            current, c = _saturate_elements_once(current, var, nvars, weights)
            changed = changed or c
        if not changed:
            return current


# --- minimal generators and the full pipeline --------------------------------


def _connected(start, goal, moves) -> bool:
    """True when x^start reaches x^goal by moves (a, b): x^a -> x^b.

    Breadth-first search over the monomials reachable from start; it ends
    only when that set is finite.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        exp = queue.popleft()
        for a, b in moves:
            if all(map(le, a, exp)):
                nxt = tuple(e - x + y for e, x, y in zip(exp, a, b))
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def minimal_generators(gb: GroebnerBasis, weights: Sequence[int]) -> tuple:
    """Irredundant generating subset of the reduced basis.

    Prunes in increasing leading-term order; an element b is dropped when
    x^b.plus reaches x^b.minus by moves x^h.plus <-> x^h.minus of the other
    kept elements h, which holds exactly when b lies in their ideal.  For
    these positively graded ideals any irredundant subset has the minimal
    possible cardinality.

    The search runs over the fiber of b, the monomials of its weighted
    degree, which every move keeps.  That fiber is finite only when the
    weights are strictly positive and every element is homogeneous for
    them; both are checked first, and a failure raises InvariantViolation
    instead of starting a search that might not end.
    """
    if len(weights) != gb.nvars or any(w <= 0 for w in weights):
        raise InvariantViolation("degree weights are not strictly positive")
    for b in gb.elements:
        if sum(map(mul, weights, b.plus)) != sum(map(mul, weights, b.minus)):
            raise InvariantViolation(
                "basis element is not homogeneous for the degree weights")
    kept = sorted(gb.elements, key=lambda b: gb.order.key(b.plus))
    for b in list(kept):
        moves = [m for h in kept if h is not b
                 for m in ((h.plus, h.minus), (h.minus, h.plus))]
        if _connected(b.plus, b.minus, moves):
            kept.remove(b)
    return tuple(kept)


@dataclass(frozen=True)
class ToricIdeal:
    """The defining binomial ideal of a validated semigroup.

    gb is the reduced Groebner basis under the requested order and
    minimal_gens an irredundant generating subset of it (s_min elements).
    """

    semigroup: ValidatedSemigroup
    gb: GroebnerBasis
    minimal_gens: tuple

    @property
    def s_min(self) -> int:
        return len(self.minimal_gens)

    @property
    def order(self) -> TermOrder:
        return self.gb.order


def _check_no_unit_sides(elements: Iterable[Binomial]) -> None:
    for b in elements:
        for side in (b.plus, b.minus):
            if sum(side) == 1:
                raise InvariantViolation(
                    "relation with a bare-variable side; generators were "
                    "not minimal")


def toric_ideal(vs: ValidatedSemigroup,
                order: Optional[TermOrder] = None) -> ToricIdeal:
    """Defining ideal of the toric surface of vs under the given order."""
    order = order or lex_order(vs.N)
    if order.nvars != vs.N:
        raise InvariantViolation("term order has the wrong variable count")
    kernel = lattice_kernel(vs)
    gens = []
    for v in kernel.vectors:
        b = binomial_from_vector(v, order)
        if b is not None:
            gens.append(b)
    saturated = _saturate_elements(gens, vs.N, vs.degree_weights)
    gb = buchberger(saturated, order)
    mingens = minimal_generators(gb, vs.degree_weights)
    _check_no_unit_sides(gb.elements)
    # mingens must generate the same ideal as the full basis
    regenerated = buchberger(mingens, order)
    if regenerated.elements != gb.elements:
        raise InvariantViolation("pruned generators span a smaller ideal")
    return ToricIdeal(vs, gb, mingens)

