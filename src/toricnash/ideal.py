"""Lattice kernels, binomial Groebner bases, and the toric ideal pipeline.

The defining ideal of the surface is the lattice ideal I_L of the kernel L
of the generator matrix.  toric_ideal builds it in four steps:

- lattice_kernel: an LLL-reduced basis of L;
- _saturate_elements: the ideal of the basis binomials, saturated by the
  one or two variables that _forcing_variables finds (none for rank 1);
- buchberger: the reduced Groebner basis under the requested order, with
  monomial_nf as its reduction;
- minimal_generators: an irredundant generating subset of that basis, or
  _betti_generators, the same subset searched only in the Betti degrees
  of the saturated set where the basis holds more elements than needed.

normal_form divides a general polynomial, an {exponent: coefficient}
dict, by a basis for nash.minor_symbolic and returns a fresh dict.
_echelon is the library's one integer row elimination: lattice_kernel
runs it on two columns, int_rank on all.
"""
from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque, namedtuple
from functools import cached_property
from operator import add, le, mul, sub
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence

from .algebra import Binomial, TermOrder, binomial_from_vector, int_weights
from .errors import InvariantViolation, LengthMismatch
from .semigroup import ValidatedSemigroup

# --- integer kernel --------------------------------------------------------


def _echelon(rows: List[List[int]], ncols: int) -> int:
    """Bring the first ncols columns of rows to echelon form in place, by
    row swaps and Euclid steps, and return the number of pivots.  These
    steps can be undone over Z, so the rows keep their lattice and the
    pivot count is the rank of those columns over Q."""
    pivot = 0
    for col in range(ncols):
        piv = next((i for i in range(pivot, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pivot], rows[piv] = rows[piv], rows[pivot]
        for i in range(pivot + 1, len(rows)):
            while rows[i][col] != 0:
                a, b = rows[pivot][col], rows[i][col]
                if abs(a) > abs(b):
                    rows[pivot], rows[i] = rows[i], rows[pivot]
                    continue
                q = b // a
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot])]
        pivot += 1
    return pivot


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: _echelon's pivot count over every column
    of a copy of rows."""
    m = [list(row) for row in rows]
    return _echelon(m, len(m[0]) if m else 0)


def _lll_reduce(vectors: Sequence[Sequence[int]]) -> list:
    """LLL-reduce an independent integer lattice basis (delta = 3/4).

    Plain elimination leaves kernel vectors with needlessly large entries,
    which makes every basis computation downstream explode; short vectors
    keep them cheap.  Integral LLL (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7): Gram determinants d[i] of the
    first i vectors and lam[k][j] = d[j+1] * mu[k][j], no fractions.  Full
    size reduction of b_k (j = k-1 .. 0, mu rounded half to even) before
    each Lovasz test gives the textbook Gram-Schmidt result.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(map(mul, b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise InvariantViolation("lattice basis is not independent")
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            # q = round(lam / d[j+1]), ties to even
            q, r = divmod(2 * lam[k][j] + d[j + 1], 2 * d[j + 1])
            if r == 0 and q % 2:
                q -= 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        ll = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * ll * ll:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new = (d[k - 1] * d[k + 1] + ll * ll) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - ll * t) // d[k]
            lam[i][k - 1] = (new * t + ll * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return [tuple(v) for v in b]


def lattice_kernel(vs: ValidatedSemigroup) -> tuple:
    """Basis, as a tuple of vectors, of all integer vectors v with
    sum(v_i * generator_i) == 0.

    _echelon reduces the generator columns of [generators | identity];
    rows whose generator part vanishes carry the kernel vectors in the
    identity part.  The row operations are unimodular, so these rows are a
    basis of the saturated lattice and each vector is primitive.
    The result is LLL-reduced so the binomials it seeds stay small.
    """
    pts = vs.gens.points
    s = len(pts)
    rows = [[p.u, p.v] + [1 if j == i else 0 for j in range(s)]
            for i, p in enumerate(pts)]
    pivot = _echelon(rows, 2)
    basis = []
    for row in _lll_reduce([row[2:] for row in rows[pivot:]]):
        v = list(row)
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
    return tuple(basis)


# --- binomial Groebner engine -----------------------------------------------


def _derived(plus, minus) -> Binomial:
    """x^plus - x^minus derived from checked Binomials, not checked again."""
    return tuple.__new__(Binomial, (plus, minus))


def _reducer_row(plus, minus) -> tuple:
    """The row (i, plus[i], plus, minus - plus) that monomial_nf scans for
    x^plus - x^minus, i being the coordinate of plus's largest entry."""
    i = plus.index(max(plus))
    return (i, plus[i], plus, tuple(map(sub, minus, plus)))


class GroebnerBasis(namedtuple("GroebnerBasis", "order elements")):
    """A reduced Groebner basis of a binomial ideal under a fixed order.

    reducers holds the reducer row of each element for monomial_nf, in
    element order, built on first use and then kept in the instance dict.
    """

    @property
    def nvars(self) -> int:
        return self.order.nvars

    @cached_property
    def reducers(self) -> tuple:
        return tuple(_reducer_row(b.plus, b.minus) for b in self.elements)


def monomial_nf(exp, reducers) -> tuple:
    """Exponent of the normal form of x^exp against binomials given as
    reducer rows (i, plus[i], plus, minus - plus), as in gb.reducers.

    Rewrites x^exp by the first binomial x^plus - x^minus whose leading
    exponent plus divides it, to x^(exp + minus - plus), until none
    applies; each step strictly decreases the monomial, so this
    terminates.  A row (i, plus[i], plus, delta) is tested on its pivot
    coordinate i, where plus is largest, before the full divisibility
    test, which rejects most rows at one comparison and picks the same
    first divisor.  Every binomial is a pure difference, so the normal form
    of a monomial is again one monomial with coefficient 1, and against a
    Groebner basis (gb.reducers) it is the unique one: normal_form of
    x^exp has the single term x^monomial_nf(exp, gb.reducers).  Normal
    forms are linear, so a polynomial reduces term by term through this
    function.  An exp whose length is not the rows' raises LengthMismatch.
    """
    if reducers and len(exp) != len(reducers[0][2]):
        raise LengthMismatch(f"exponent length {len(exp)} != "
                             f"{len(reducers[0][2])} variables")
    while True:
        for i, p, plus, delta in reducers:
            if exp[i] >= p and all(map(le, plus, exp)):
                exp = tuple(map(add, exp, delta))
                break
        else:
            return exp


def buchberger(gens: Iterable[Binomial], order: TermOrder,
               lattice: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal spanned by gens.

    Every binomial it meets is a pure difference of two monomials, and so
    are its S-binomials and reductions, so it never touches a general
    polynomial.  Buchberger's algorithm with the Gebauer-Moller pair update
    (Gebauer-Moller, On an installation of Buchberger's algorithm, J.
    Symbolic Comput. 6, 1988; Becker-Weispfenning, Groebner Bases, 1993,
    procedure UPDATE).  The loop keeps a live list of elements, as reducer
    rows, and each pending pair holds its two rows and the lcm of their
    leading terms.  Pairs are taken by the degree of their lcm first
    (order.degree), then by order.key, as the sugar strategy does for a
    homogeneous ideal (Giovini-Mora-Niesi-Robbiano-Traverso, "One sugar
    cube, please", ISSAC 1991): a degrevlex key begins with that degree,
    so there this is the normal strategy (smallest lcm first), and under
    lex it keeps high-degree pairs from entering early.

    Every binomial enters the same way, the inputs first and then each
    pair's S-binomial: x^u - x^v leaves x^monomial_nf(u) - x^monomial_nf(v)
    against the live list, oriented by order.key, or nothing when the two
    agree.  A nonzero h joins through update(LT(h), TT(h)), TT being the
    trailing term:

    - B: a pending pair (f, g) goes when LT(h) divides its lcm and both
      lcm(f, h) and lcm(g, h) differ from that lcm;
    - M, F: of the new pairs (g, h), g live, one goes when the lcm of
      another divides its lcm, and of several with equal lcms only one
      stays; after that the pairs with coprime leading terms go;
    - with lattice, a new pair whose S-binomial sides lcm - LT(g) + TT(g)
      and lcm - LT(h) + TT(h) share a variable is not queued either, but
      its lcm still counts for criterion M;
    - live elements whose leading term LT(h) divides leave the live list,
      and h joins it.

    LT(h) is a normal form, so no live leading term divides it, and update
    retires the live elements whose leading term it divides: the leading
    terms stay minimal.  At the end the live list is a Groebner basis, and
    replacing each trailing term by its normal form, which is never larger,
    makes it the reduced one.  An input whose length differs from the
    variable count raises LengthMismatch, from key while the live list is
    empty and from monomial_nf after that.  The returned elements are built
    once, by _derived, from the exponents that the run derived.

    lattice=True asserts that gens generate a lattice ideal I_L and are
    homogeneous for some strictly positive weights w; the caller vouches
    for it, and then the common-factor skip (as in the completion
    procedures for lattice ideals, Hemmecke-Malkin, Computing generating
    sets of lattice ideals and Markov bases of lattices, J. Symbolic
    Comput. 44, 2009) is exact.  By induction on the w-degree d, the final
    basis is a Groebner basis in every degree below d.  A skipped pair of
    degree d has the S-binomial x^u - x^v = x^m (x^(u-m) - x^(v-m)) with
    m = min(u, v) != 0.  The quotient lies in I_L, the ideal gens
    generate, because u - v lies in L; it has degree below d, so it has a
    standard representation, and times x^m that is a standard
    representation of the S-binomial with every term below the lcm.  On an
    unsaturated ideal the skip loses elements (the kernel binomials of
    (2,0),(3,0),(1,1),(0,1) under lex give 2 elements instead of 4), so
    saturation runs leave lattice False.
    """
    key, degree = order.key, order.degree

    live: list = []  # reducer rows (i, plus[i], plus, minus - plus)
    heap: list = []  # (degree, order.key(lcm), tiebreak, f, g, lcm)
    counter = itertools.count()

    def update(hp, hm) -> None:
        i, p, _, hdelta = row = _reducer_row(hp, hm)
        if heap:
            kept = [e for e in heap
                    if not (e[5][i] >= p and all(map(le, hp, e[5]))
                            and tuple([x if x > y else y for x, y
                                       in zip(e[3][2], hp)]) != e[5]
                            and tuple([x if x > y else y for x, y
                                       in zip(e[4][2], hp)]) != e[5])]
            if len(kept) != len(heap):
                heap[:] = kept
                heapq.heapify(heap)
        hdeg = sum(hp)
        new = []
        for g in live:
            lcm = tuple([x if x > y else y for x, y in zip(g[2], hp)])
            deg = sum(lcm)
            new.append((deg, deg != sum(g[2]) + hdeg, lcm, g))
        # a proper divisor has a smaller degree, so it comes first; of equal
        # lcms the coprime pair comes first and the others are dropped
        new.sort(key=lambda e: e[:2])
        minimal: list = []
        for _, not_coprime, lcm, g in new:
            for m in minimal:
                if all(map(le, m, lcm)):
                    break
            else:
                minimal.append(lcm)
                if not_coprime and not (lattice and any([
                        l + x and l + y
                        for l, x, y in zip(lcm, g[3], hdelta)])):
                    heapq.heappush(heap, (degree(lcm), key(lcm),
                                          next(counter), g, row, lcm))
        live[:] = [g for g in live
                   if not (g[2][i] >= p and all(map(le, hp, g[2])))]
        live.append(row)

    def enter(u, v) -> None:
        a, b = monomial_nf(u, live), monomial_nf(v, live)
        if a != b:
            if key(a) > key(b):
                update(a, b)
            else:
                update(b, a)

    for b in gens:
        enter(b.plus, b.minus)

    while heap:
        *_, f, g, lcm = heapq.heappop(heap)
        # lcm - plus + minus of each element
        enter(tuple(map(add, lcm, f[3])), tuple(map(add, lcm, g[3])))

    out = []
    for _, _, plus, delta in sorted(live, key=lambda g: key(g[2])):
        minus = monomial_nf(tuple(map(add, plus, delta)), live)
        if minus == plus:
            raise InvariantViolation("basis element reduced to zero")
        out.append(_derived(plus, minus))
    return GroebnerBasis(order, tuple(out))


def normal_form(p: Mapping, gb: GroebnerBasis) -> dict:
    """Complete multivariate division of the {exponent: coefficient} map p
    by the basis: no term of the result is divisible by a leading term, so
    it is the unique normal form since the basis is a Groebner basis.

    p's zero coefficients are dropped once.  Terms leave work largest
    first and a reduction step only makes smaller exponents, so each
    irreducible exponent reaches out once, with a nonzero coefficient.
    """
    order = gb.order
    elements = gb.elements
    work = {e: c for e, c in p.items() if c}
    out: dict = {}
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        reducer = None
        for b in elements:
            if all(map(le, b.plus, exp)):
                reducer = b
                break
        if reducer is None:
            out[exp] = coeff
            continue
        new = tuple(map(add, map(sub, exp, reducer.plus), reducer.minus))
        s = work.get(new, 0) + coeff
        if s:
            work[new] = s
        else:
            work.pop(new, None)
    return out


# --- saturation --------------------------------------------------------------


def _forcing_variables(basis: Sequence[Binomial], nvars: int) -> tuple:
    """The variables to saturate lattice-basis binomials by: none for one
    vector v, as x^(v+) - x^(v-) generates I_L for L = Zv (x^u - x^w with
    u - w = kv is x^min(u,w) times a multiple of it), else the first single
    variable that forces, else the first pair, else all nvars.  sigma
    forces when its closure, which adds every variable of one side of a
    basis binomial once all of the other side's are in it, reaches all
    nvars variables; at most O(nvars^2) closures are taken.
    """
    if len(basis) == 1:
        return ()
    supports = [(frozenset(i for i, e in enumerate(b.plus) if e),
                 frozenset(i for i, e in enumerate(b.minus) if e))
                for b in basis]

    def forces(sigma) -> bool:
        closed = set(sigma)
        grown = True
        while grown:
            grown = False
            for plus, minus in supports:
                if (plus <= closed) != (minus <= closed):
                    closed |= plus | minus
                    grown = True
        return len(closed) == nvars

    for sigma in itertools.chain(((i,) for i in range(nvars)),
                                 itertools.combinations(range(nvars), 2)):
        if forces(sigma):
            return sigma
    return tuple(range(nvars))


def _saturate_elements(elements: Sequence[Binomial], variables: Iterable[int],
                       weights: Sequence[int]) -> list:
    """Generators of (ideal : (product of the given variables)^infinity).

    One pass over the variables: the step for var moves var last in every
    binomial and in the weights, recomputes the basis under the weighted
    graded reverse-lex order, which ranks the last variable lowest, strips
    the common power of that variable from every element and moves var
    back, which gives (ideal : var^infinity); and (I : x_i^infinity) :
    x_j^infinity = I : (x_i x_j)^infinity.  All work stays in the cheap
    graded reverse-lex orders; callers convert to their target order once
    at the end.  Stripping the power of var is exact only for an ideal
    that is homogeneous for the strictly positive weights of those orders,
    which holds for every ideal this library builds: the weights are the
    generators' height sums, positive on the cone (semigroup.validate).

    For the binomials of a basis B of the lattice L, the variables
    _forcing_variables gives suffice (Hosten-Sturmfels, GRIN, IPCO 1995):
    I_B and I_L agree once every variable is inverted; if sigma forces,
    every point of V(I_B) with x_sigma != 0 lies in the torus, so no
    associated prime of I_B[x_sigma^-1] contains a variable, each is a
    nonzerodivisor modulo it, and I_B : x_sigma^infinity = I_L.  The moved
    and stripped relations rearrange checked Binomials: _derived builds them.
    """
    weights = tuple(weights)
    current = list(elements)
    for var in variables:
        last = TermOrder("degrevlex", len(weights),
                         weights[:var] + weights[var + 1:] + (weights[var],))
        moved = [_derived(*(s[:var] + s[var + 1:] + (s[var],) for s in b))
                 for b in current]
        current = []
        for b in buchberger(moved, last).elements:
            k = min(b.plus[-1], b.minus[-1])
            current.append(
                _derived(*(s[:var] + (s[-1] - k,) + s[var:-1] for s in b)))
    return current


# --- minimal generators and the full pipeline --------------------------------


def _connected(start, goal, moves) -> Optional[list]:
    """Moves (a, b): x^a -> x^b that take x^start to x^goal, or None.

    Breadth-first search over the monomials reachable from start, with a
    parent pointer per visited monomial to read the path back; it ends
    only when that set is finite.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        exp = queue.popleft()
        for move in moves:
            a, b = move
            if all(map(le, a, exp)):
                nxt = tuple(e - x + y for e, x, y in zip(exp, a, b))
                if nxt in parent:
                    continue
                parent[nxt] = (exp, move)
                if nxt == goal:
                    path = []
                    while parent[nxt] is not None:
                        nxt, move = parent[nxt]
                        path.append(move)
                    path.reverse()
                    return path
                queue.append(nxt)
    return None


def _prune(elements, key, fixed=()) -> list:
    """Irredundant subset of the homogeneous binomials elements beside
    fixed, which all stay: greedy in increasing key(plus) order.

    b goes when x^b.plus reaches x^b.minus in its fiber by the moves of
    fixed and the other kept elements, that is when b lies in their ideal
    (Diaconis-Sturmfels, Ann. Statist. 26, 1998); in these positively
    graded ideals the result has the minimal cardinality.  Certified by
    replaying the paths in reverse drop order, each step an allowed move
    dividing the current monomial, b's moves allowed after its path: a
    failure raises InvariantViolation.
    """
    kept = sorted(elements, key=lambda b: key(b.plus))
    fixed = [m for h in fixed for m in ((h.plus, h.minus), (h.minus, h.plus))]
    dropped = []
    for b in list(kept):
        moves = [m for h in kept if h is not b
                 for m in ((h.plus, h.minus), (h.minus, h.plus))]
        moves += fixed
        path = _connected(b.plus, b.minus, moves)
        if path is not None:
            kept.remove(b)
            dropped.append((b, path))
    allowed = {m for h in kept for m in ((h.plus, h.minus), (h.minus, h.plus))}
    allowed.update(fixed)
    for b, path in reversed(dropped):
        exp = b.plus
        for a, c in path:
            if (a, c) not in allowed or not all(map(le, a, exp)):
                exp = None
                break
            exp = tuple(e - x + y for e, x, y in zip(exp, a, c))
        if exp != b.minus:
            raise InvariantViolation("pruned generators span a smaller ideal")
        allowed.update(((b.plus, b.minus), (b.minus, b.plus)))
    return kept


def minimal_generators(gb: GroebnerBasis, weights: Sequence[int]) -> tuple:
    """Irredundant generating subset of the reduced basis: _prune over all
    of it in increasing leading-term order.  Its fibers are finite, as the
    checks first raise InvariantViolation for weights that are not strictly
    positive or an element not homogeneous for them.  The weights are read
    by TermOrder's rule (int_weights)."""
    weights = int_weights(weights, gb.nvars)
    if any(w <= 0 for w in weights):
        raise InvariantViolation("degree weights are not strictly positive")
    for b in gb.elements:
        if sum(map(mul, weights, b.plus)) != sum(map(mul, weights, b.minus)):
            raise InvariantViolation(
                "basis element is not homogeneous for the degree weights")
    return tuple(_prune(gb.elements, gb.order.key))


def _betti_generators(gb: GroebnerBasis, saturated: Sequence[Binomial],
                      heights: Sequence[tuple]) -> tuple:
    """minimal_generators of gb, a basis of the ideal saturated generates,
    by toric_ideal's rules; a degree is sum(e_j * heights_j) over either
    side.  Certified by InvariantViolation unless the kept elements are as
    many as the minimal generators of saturated and _prune drops all of
    those beside them."""
    h1, h2 = zip(*heights)
    degree = {}
    for b in itertools.chain(saturated, gb.elements):
        d = degree[b] = (sum(map(mul, h1, b.plus)), sum(map(mul, h2, b.plus)))
        if d != (sum(map(mul, h1, b.minus)), sum(map(mul, h2, b.minus))):
            raise InvariantViolation(
                "basis element is not homogeneous for the degree weights")
    key = gb.order.key
    minimal = _prune(saturated, key)
    mu = Counter(degree[m] for m in minimal)
    betti: dict = {}
    for b in gb.elements:
        betti.setdefault(degree[b], []).append(b)
    fixed = [b for d, bs in betti.items() if len(bs) == mu[d] for b in bs]
    kept = set(fixed).union(_prune(
        [b for d, bs in betti.items() if len(bs) > mu[d] > 0 for b in bs],
        key, fixed))
    mingens = tuple(b for b in gb.elements if b in kept)
    if len(mingens) != len(minimal):
        raise InvariantViolation(
            "minimal generator count differs from the saturated set's")
    pairs = set(map(frozenset, mingens))
    if _prune([m for m in minimal if frozenset(m) not in pairs], key, mingens):
        raise InvariantViolation("pruned generators span a smaller ideal")
    return mingens


class ToricIdeal(NamedTuple):
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


def toric_ideal(vs: ValidatedSemigroup, order: str = "lex") -> ToricIdeal:
    """Defining ideal of the toric surface of vs under the named order.

    |sigma| + 1 Buchberger runs (saturation by the one or two variables
    sigma that the lattice basis forces, none for N = 3, then the final
    basis, with lattice=True since its input generates the lattice ideal
    and is homogeneous for vs.degree_weights).  The minimal generators are
    minimal_generators'.  A final basis with four or more elements beyond
    the saturated set gets them from _betti_generators, as the degrees D
    of a minimal generating set and its count mu_D in each do not depend
    on the set (Briales et al., JPAA 124, 1998):
    - an element of no such D goes, since I_D is generated below D;
    - a D holding mu_D basis elements keeps them;
    - a D holding more runs the greedy with the moves of the elements in
      these degrees alone, since the others lie in their ideal.
    With fewer extra elements that route costs about what it saves.  Both
    routes certify by path replay; recomputing the basis from the minimal
    generators is a test oracle only.  order is a name in ORDERS,
    as analyze's family is in FAMILIES; TermOrder(order, N) raises
    ValueError for another.
    """
    order = TermOrder(order, vs.N)
    gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
    saturated = _saturate_elements(gens, _forcing_variables(gens, vs.N),
                                   vs.degree_weights)
    gb = buchberger(saturated, order, True)
    if len(gb.elements) < len(saturated) + 4:
        mingens = minimal_generators(gb, vs.degree_weights)
    else:
        mingens = _betti_generators(gb, saturated, vs.heights)
    _check_no_unit_sides(gb.elements)
    return ToricIdeal(vs, gb, mingens)

