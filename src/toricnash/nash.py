"""Jacobian minors of r = N - 2 chosen binomials, their zero loci, the
singular locus and the dichotomy verdict.

- Minors: a _Sweep checks each r-subset down to (c_S, D_S), from which
  _expand makes its (selection, coefficient, exponent) triples, exact by
  _Sweep.check, which reduces one monomial per fallback degree;
  subset_minors reads one subset, minor_monomial_formula one selection.
  minor_symbolic, the symbolic determinant reduced to normal form as a
  fresh {exponent: coefficient} dict, is the tests' reference.
- Orbit sets: zero loci and the singular locus sigma are unions of
  torus-orbit closures, each one OrbitSet; singular_orbits reads sigma off
  the cone's two edges, _subset_report a subset's locus off two height
  sums and zero_locus, its oracle, off the minors.
- Verdicts: predict reads the verdict off sigma and N; analyze is the only
  code that sweeps a whole family, into one Analysis, and checks it;
  singular_locus, search_all_subsets, dim1_selector and verify_dichotomy
  each read one field of it.  These readers, rank and the minor oracles are
  not exported: the benchmark's bindings and the tests import them here.
"""
from __future__ import annotations

import itertools
from math import gcd
from operator import add, attrgetter, le, mul
from typing import NamedTuple, Optional, Sequence

from .algebra import Binomial, derivative, determinant
from .errors import (
    EmptyIdeal,
    InvariantViolation,
    LengthMismatch,
    NonMonomialResidue,
    NotSquare,
    SigmaDimensionError,
    TheoremViolation,
    TorusSingular,
)
from .ideal import ToricIdeal, int_rank, monomial_nf, normal_form
from .semigroup import ValidatedSemigroup, cross

# --- minors -------------------------------------------------------------------


def rank(family: Sequence[Binomial]) -> int:
    """Generic Jacobian rank of the family: the rank of its difference rows,
    as ideal.int_rank counts it."""
    return int_rank([b.difference() for b in family])


def _normalize_selection(selection, nvars: int) -> tuple:
    """selection as a sorted pair of distinct non-bool ints in
    range(nvars); ValueError otherwise."""
    try:
        a, b = sorted(selection)
    except (TypeError, ValueError):
        a = b = None
    if a != b and all(type(i) is int and 0 <= i < nvars for i in (a, b)):
        return (a, b)
    raise ValueError(f"column selection {selection} invalid for "
                     f"{nvars} variables")


def _check_lengths(family: Sequence[Binomial], n: int):
    for b in family:
        if b.nvars != n:
            raise LengthMismatch(f"binomial has {b.nvars} variables, not {n}")


def minor_symbolic(family_subset: Sequence[Binomial], selection,
                   ideal: ToricIdeal) -> dict:
    """Jacobian minor with the two selected columns deleted, reduced, as a
    fresh {exponent: coefficient} dict.

    A binomial of another length than N raises LengthMismatch first.  The
    reduced result must be zero or a single term; anything else means the
    inputs do not define a toric surface and raises NonMonomialResidue.
    """
    vs = ideal.semigroup
    _check_lengths(family_subset, vs.N)
    sel = _normalize_selection(selection, vs.N)
    cols = [i for i in range(vs.N) if i not in sel]
    matrix = [[derivative(f, i) for i in cols] for f in family_subset]
    det = determinant(matrix)
    reduced = normal_form(det, ideal.gb)
    if len(reduced) > 1:
        raise NonMonomialResidue(
            f"minor reduced to {len(reduced)} terms for columns {sel}")
    return reduced


def _walk(exp, reducers, path: set) -> tuple:
    """Rewrite x^exp by monomial_nf's rule until it reaches path or a normal
    form, adding each exponent it leaves to path: (last, whether in path)."""
    while exp not in path:
        path.add(exp)
        for i, p, plus, delta in reducers:
            if exp[i] >= p and all(map(le, plus, exp)):
                exp = tuple(map(add, exp, delta))
                break
        else:
            return exp, False
    return exp, True


def _laplace(row: Sequence[int], minors: dict, cols: tuple) -> int:
    """Integer minor over the columns cols of some rows with row appended
    last, by Laplace expansion along row; minors maps each sorted
    (len(cols) - 1)-subset of cols to that minor of the other rows."""
    k = len(cols)
    acc = 0
    for p, j in enumerate(cols):
        if row[j]:
            term = row[j] * minors[cols[:p] + cols[p + 1:]]
            acc += -term if (k - 1 + p) % 2 else term
    return acc


def _expand(pairs, coords, normal_forms, c_s: int, base: tuple) -> list:
    """The minors of a full-rank subset with c_S = c_s and D_S = base, as
    (selection, coefficient, exponent) triples in pair order, from a
    _Sweep's pairs and coords: the closed form base + e_a + e_b, or for a
    fallback normal_forms[T_S + g_a + g_b] (_Sweep.check)."""
    # base >= -1, so base + e_a + e_b >= 0 exactly when (a, b) holds each
    # negative entry: when the bitmask neg of those meets no kept column
    neg = sum([1 << j for j, e in enumerate(base) if e < 0])
    if neg:
        t_u, t_v = [sum(map(mul, base, coord)) for coord in coords]
    out = []
    for sel, kept, det_ab, (u, v) in pairs:
        if not neg & kept:
            a, b = sel
            exp = list(base)
            exp[a] += 1
            exp[b] += 1
            exp = tuple(exp)
        else:
            exp = normal_forms[t_u + u, t_v + v]
        out.append((sel, c_s * det_ab, exp))
    return out


class _Sweep:
    """What every r-subset of one family shares in a sweep, built once.

    rows are the family's difference rows, each checked here to be a
    relation of the generators, coords the two coordinate vectors of the
    generators, sides the (support bitmask, exponent) of each row's
    trailing and leading side; pairs lists (selection, bitmask of the kept
    columns, (-1)^(a+b) det(g_a, g_b), g_a + g_b) for every column pair
    (a, b) with a nonzero determinant, in pair order; reducers are the
    basis's reducer rows.  deg_memo maps each fallback degree D of the
    sweep to its checked normal form and wedges the _wedge entry of each
    prefix of family rows, () included, whatever the order in which
    subsets are visited; inner are the columns 1..N-2, and rule serves
    _subset_report.  A binomial of another length than N raises
    LengthMismatch, before any row is checked.
    """

    def __init__(self, ideal: ToricIdeal, family: Sequence[Binomial]):
        vs = ideal.semigroup
        pts = vs.points
        _check_lengths(family, vs.N)
        self.family = family
        self.reducers = ideal.gb.reducers
        self.rows = [b.difference() for b in family]
        self.coords = tuple(zip(*pts))
        if any(sum(map(mul, row, coord))
               for row in self.rows for coord in self.coords):
            raise InvariantViolation(
                "difference row is not a relation of the generators")
        self.reference = (-1) ** (vs.N - 1) * cross(pts[0], pts[-1])
        self.pairs = pairs = []
        for a, b in itertools.combinations(range(vs.N), 2):
            det_ab = cross(pts[a], pts[b])
            if det_ab:
                pairs.append(((a, b), (1 << vs.N) - 1 ^ 1 << a ^ 1 << b,
                              -det_ab if (a + b) % 2 else det_ab,
                              tuple(map(add, pts[a], pts[b]))))
        self.rule = [(h, -min([h[a] + h[b] for (a, b), _, _, _ in pairs]))
                     for h in zip(*vs.heights)]
        self.deg_memo = {}
        self.sides = [tuple((sum(1 << j for j, e in enumerate(side) if e),
                             side) for side in (b.minus, b.plus))
                      for b in family]
        self.inner = tuple(range(1, vs.N - 1))
        self.wedges = {(): ({(): 1}, (0,) * vs.N)}

    def _wedge(self, prefix: tuple) -> tuple:
        """(minors, sums) of the family rows at the indices prefix, k of
        them: minors maps every k-subset of the inner columns 1..N-2 (a
        sorted tuple) to that minor of the difference rows, sums holds the
        column sums of the rows' plus sides.  Built from the entry of
        prefix[:-1] by Laplace expansion along the last row (_laplace) and
        memoised in wedges under prefix, whatever the order of the subsets;
        the chain starts at the entry of (), the minor 1 of no rows."""
        entry = self.wedges.get(prefix)
        if entry is None:
            i = prefix[-1]
            row, plus = self.rows[i], self.family[i].plus
            prev, sums = self._wedge(prefix[:-1])
            minors = {cols: _laplace(row, prev, cols) for cols in
                      itertools.combinations(self.inner, len(prefix))}
            entry = self.wedges[prefix] = minors, tuple(map(add, sums, plus))
        return entry

    def check(self, subset: tuple) -> tuple:
        """(c_S, D_S, number of fallback pairs) of the family rows at the
        indices subset; D_S is None when c_S = 0.

        Closed form.  Modulo the toric ideal x^minus = x^plus, so x_j times
        the derivative of x^plus - x^minus by x_j is (plus_j - minus_j)
        x^plus, and the minor without the columns K = {a, b} times
        x^(1 - e_a - e_b), 1 = (1, ..., 1), is det(R_K) x^(sum of the rows'
        plus sides).  The ideal is prime and holds no monomial, so the minor
        is det(R_K) x^(D_S + e_a + e_b), D_S = (sum of the plus sides) - 1,
        whenever that exponent is nonnegative.  (The minor ideal is x^(D_S)
        times the logarithmic Jacobian ideal; Gonzalez Perez-Teissier,
        RACSAM 108, 2014.)

        Pluecker.  The rows are relations of the generators g_j, so by
        Pluecker duality every det(R_K) is c_S (-1)^(a+b) det(g_a, g_b) for
        one integer c_S, and the subset has full rank r exactly when
        c_S != 0; then it has a minor for every pair.  c_S is the minor over
        the columns 1..N-2, the _laplace step of the last row on the
        _wedge of the others, divided by (-1)^(N-1) det(g_0, g_(N-1)),
        which is nonzero since g_0 and g_(N-1) lie on the two edges; a
        remainder raises InvariantViolation.

        Fallbacks.  With deg x^e = sum_j e_j g_j in Z^2, every term of the
        minor has the degree D = T_S + g_a + g_b, T_S = deg x^(D_S), and
        monomials of one degree are congruent modulo the toric ideal
        (Sturmfels, Groebner Bases and Convex Polytopes, ch. 4), so they
        share one normal form.  So a pair whose closed form has a negative
        entry (a fallback) needs one monomial of degree D, once per D in the
        sweep: sum_i side_i - 1_K for one side of each row that covers K,
        each kept column positive in a chosen side (_covers, all trailing
        sides first, as those start nearer the normal form).  _fallback
        reduces the first; its normal form must have degree D, and the
        second's rewrites must land on its path, else NonMonomialResidue.
        No cover (the minor reduced to zero), a degree off D, or at the
        sweep's first fallback a det(R_K) of the rows other than c_S
        (-1)^(a+b) det(g_a, g_b) raise InvariantViolation.  The normal form
        is kept in deg_memo; every fallback of D is it times det(R_K).
        """
        i = subset[-1]
        last, plus = self.rows[i], self.family[i].plus
        wedge, sums = self._wedge(subset[:-1])
        c_s, rest = divmod(_laplace(last, wedge, self.inner), self.reference)
        if rest:
            raise InvariantViolation(
                "reference minor is not a multiple of det(g_0, g_(N-1))")
        if not c_s:
            return 0, None, 0
        base = tuple([s + e - 1 for s, e in zip(sums, plus)])
        neg = sum([1 << j for j, e in enumerate(base) if e < 0])
        if not neg:
            return c_s, base, 0
        # the fallbacks, which _expand reads from normal forms
        t_u, t_v = [sum(map(mul, base, coord)) for coord in self.coords]
        fallbacks, covers = 0, None
        for sel, kept, det_ab, (u, v) in self.pairs:
            if not neg & kept:
                continue
            fallbacks += 1
            degree = (t_u + u, t_v + v)
            if degree not in self.deg_memo:
                covers = covers or self._covers(subset)
                self.deg_memo[degree] = self._fallback(
                    subset, covers, sel, kept, c_s * det_ab, degree)
        return c_s, base, fallbacks

    def _covers(self, subset: tuple) -> list:
        """(support bitmask, sum_i side_i - 1) per choice of a side of each
        subset row: all trailing first, the first row's changing fastest."""
        out = [(0, (-1,) * len(self.coords[0]))]
        for i in reversed(subset):
            out = [(mask | m, tuple(map(add, exp, side)))
                   for mask, exp in out for m, side in self.sides[i]]
        return out

    def _fallback(self, subset, covers, sel, kept, det_rk, degree) -> tuple:
        """The checked normal form of degree (check, Fallbacks)."""
        if not self.deg_memo:  # the sweep's first fallback
            cols = tuple(c for c in range(len(self.coords[0])) if c not in sel)
            minors = {(): 1}
            for k, i in enumerate(subset, 1):
                minors = {c: _laplace(self.rows[i], minors, c)
                          for c in itertools.combinations(cols, k)}
            if minors[cols] != det_rk:
                raise InvariantViolation("minor coefficient differs from "
                                         "c_S (-1)^(a+b) det(g_a, g_b)")
        exps = []
        for mask, exp in covers:
            if mask & kept == kept:
                exp = list(exp)
                for c in sel:
                    exp[c] += 1
                exps.append(tuple(exp))
                if len(exps) == 2:
                    break
        if not exps:
            raise InvariantViolation(
                "nonzero coefficient minor reduced to zero")
        path = set()
        nf, _ = _walk(exps[0], self.reducers, path)
        if tuple(sum(map(mul, nf, g)) for g in self.coords) != degree:
            raise InvariantViolation(
                f"fallback normal form is off its degree {degree}")
        if exps[1:] and not _walk(exps[1], self.reducers, path)[1]:
            raise NonMonomialResidue(
                f"minor has two normal forms for columns {sel}")
        return nf

    def minors(self, subset: tuple) -> tuple:
        """(minors, fallbacks) as subset_minors gives them: check, _expand."""
        c_s, base, fallbacks = self.check(subset)
        return (_expand(self.pairs, self.coords, self.deg_memo, c_s, base)
                if c_s else []), fallbacks


def subset_minors(family_subset: Sequence[Binomial],
                  ideal: ToricIdeal) -> tuple:
    """(minors, fallbacks) for one r-subset, over all C(N, 2) column pairs.

    minors lists the nonvanishing minors as _expand's (selection,
    coefficient, exponent) triples in pair order: selection is the pair K
    of deleted columns and the coefficient the integer minor det(R_K) of
    the difference rows; it is empty exactly when the subset is below full
    rank.  fallbacks counts the minors whose closed form had a negative
    exponent.  _Sweep.check gives the arguments and its checks' errors; a
    row that is not a relation of the generators raises
    InvariantViolation.  NotSquare when family_subset does not have r
    binomials, then LengthMismatch when one of them does not have N
    variables.  This is a sweep of the one subset; analyze sweeps every
    subset of a family, which then share prefix minors and the normal form
    of each degree.
    """
    vs = ideal.semigroup
    if len(family_subset) != vs.r:
        raise NotSquare(f"need {vs.r} binomials for {vs.N} variables, "
                        f"got {len(family_subset)}")
    return _Sweep(ideal, family_subset).minors(tuple(range(vs.r)))


def minor_monomial_formula(family_subset: Sequence[Binomial], selection,
                           ideal: ToricIdeal) -> Optional[tuple]:
    """subset_minors' (selection, det(R_K), exponent) triple for
    selection, with its checks and errors; None when the minor vanishes.
    ValueError when selection is not a pair of distinct columns.
    """
    sel = _normalize_selection(selection, ideal.semigroup.N)
    return next((m for m in subset_minors(family_subset, ideal)[0]
                 if m[0] == sel), None)


def monomial_classes(exps, ideal: ToricIdeal) -> frozenset:
    """Normal-form exponents of the monomials with exponents exps.

    Congruent monomials share a normal form, so this is the canonical way
    to compare a computed minor set against a printed one.  An exponent of
    the wrong length raises LengthMismatch.
    """
    reducers = ideal.gb.reducers
    return frozenset(monomial_nf(tuple(exp), reducers) for exp in exps)


# --- orbit sets and the singular locus ---------------------------------------


class OrbitSet(NamedTuple):
    """A union of torus-orbit closures inside the surface.

    has_O1 marks the closure of the one-dimensional orbit along the z block
    (edge 2), has_O2 the one along the x block (edge 1).  The origin is
    always part of the set, and is singular: a Jacobian row survives at
    the origin only for a side of degree below 2, which toric_ideal
    (degree 1) and minimal_generators (degree 0) refuse with
    InvariantViolation.  The dense orbit is never part of the set.
    """

    has_O1: bool
    has_O2: bool

    @property
    def dimension(self) -> int:
        return 1 if (self.has_O1 or self.has_O2) else 0


_LOCI = tuple((OrbitSet(o, False), OrbitSet(o, True)) for o in (False, True))


def singular_orbits(vs: ValidatedSemigroup) -> OrbitSet:
    """The one-dimensional orbit closures in the singular locus, read off
    the generators on the cone's two edge rays.

    Let rho be an edge ray with primitive vector u, m_i u the generators
    on it, S_rho the part of the semigroup S on rho and w, the height, the
    primitive functional that vanishes on rho and is nonnegative on the
    cone (cross(u1, p) on edge 1, cross(p, u2) on edge 2).  The orbit of
    rho is smooth exactly when the localisation S + Z S_rho is Z x N
    (Cox-Little-Schenck, Toric Varieties, ch. 1 and 3).  Its height-0
    part is Z gcd(m_i) u; heights of generators are nonnegative and add
    up, so an element of height 1 is one generator of height 1 plus
    height-0 ones.  So the orbit is singular exactly when gcd(m_i) != 1
    or no generator has height 1.  O2 is the orbit of the edge-1 (x
    block) ray, O1 that of the edge-2 (z block) ray; u1, u2 are vs.rays,
    and vs.heights holds each generator's two heights.
    """
    pts = vs.points
    h1, h2 = zip(*vs.heights)
    o1 = gcd(*(gcd(*p) for p in pts[vs.l + vs.m:])) != 1 or 1 not in h2
    o2 = gcd(*(gcd(*p) for p in pts[:vs.l])) != 1 or 1 not in h1
    return OrbitSet(o1, o2)


def zero_locus(monomials, vs: ValidatedSemigroup) -> OrbitSet:
    """Orbit-closure decomposition of the vanishing set of the monomials,
    given as subset_minors' (selection, coefficient, exponent) triples.

    A monomial vanishes on the z-axis orbit exactly when it involves an x
    or y variable, and on the x-axis orbit exactly when it involves a y or
    z variable; the whole set vanishes on an orbit when every monomial
    does.  The blocks are contiguous (x, then y, then z), so each test is
    one slice of an exponent, which must have length N (LengthMismatch).
    No monomial raises EmptyIdeal.  It is the oracle of _subset_report's.
    """
    l, lm, n = vs.l, vs.l + vs.m, vs.N
    has_o1 = has_o2 = True
    exp = None
    for _, _, exp in monomials:
        if len(exp) != n:
            raise LengthMismatch(f"exponent length {len(exp)} != {n}")
        if not any(exp):
            raise InvariantViolation("constant minor: empty zero locus")
        if not any(exp[:lm]):
            has_o1 = False
        if not any(exp[l:]):
            has_o2 = False
    if exp is None:
        raise EmptyIdeal("no monomials given")
    return OrbitSet(has_o1, has_o2)


# --- exhaustive search and verdicts -------------------------------------------


class NashReport(NamedTuple):
    """Outcome for one r-subset of the generating family.

    c_s, base and fallbacks are what _Sweep.check gives, from which
    Analysis.minors makes the minors; base, zero_locus and equals_sigma
    are None below full rank.
    """

    subset: tuple
    c_s: int
    base: Optional[tuple]
    zero_locus: Optional[OrbitSet]
    equals_sigma: Optional[bool]
    fallbacks: int

    rank_ok = property(lambda self: self.c_s != 0)


def _subset_report(sigma: OrbitSet, sweep: _Sweep,
                   subset: tuple) -> NashReport:
    """The report of one subset, its zero locus by two integer comparisons.

    With the heights h1, h2 of singular_orbits, mu the least h_a + h_b over
    the pairs and theta = sum_j h_j - mu, a full-rank subset holds O1
    exactly when sum_j (base_j + 1) h2_j > theta2, and O2 the same with h1:
    each pair has a minor of degree T_S + g_a + g_b (_Sweep.check), and as
    heights are nonnegative and h2 is 0 only on the z block, each involves
    x or y exactly when h2(T_S) + mu2 = sum_j base_j h2_j + mu2 > 0.
    sweep.rule holds (h, -mu) per height, _LOCI the four loci."""
    c_s, base, fallbacks = sweep.check(subset)
    if not c_s:  # below full rank
        return NashReport(subset, 0, None, None, None, 0)
    (h1, f1), (h2, f2) = sweep.rule
    locus = _LOCI[sum(map(mul, base, h2)) > f2][
        sum(map(mul, base, h1)) > f1]
    return NashReport(subset, c_s, base, locus, locus == sigma, fallbacks)


def predict(vs: ValidatedSemigroup) -> tuple:
    """(sigma, predicted, answer) from singular_orbits and N alone: the
    verdict the theorem predicts and whether some full-rank subset's zero
    locus is sigma, which analyze checks.

    - A curve sigma: always_equal when both closures are singular (every
      subset works), else exists_equal; answer yes.
    - A point with N = 3: out_of_scope, answer yes.  The one subset is the
      whole ideal, so by the Jacobian criterion its minors cut out sigma.
    - A point with N >= 4: never_equal, answer no.  Such a surface is no
      complete intersection: that is Cohen-Macaulay, and a 2-dimensional
      Cohen-Macaulay ring with an isolated singularity satisfies R1 and
      S2, so it is normal (Serre's criterion; Matsumura, Commutative Ring
      Theory, Thm 23.8); a normal toric surface is a cyclic quotient with
      s_min = C(N-1, 2) > N - 2 (Riemenschneider, Math. Ann. 209, 1974;
      Wahl, Ann. Sci. ENS 10, 1977).
    """
    sigma = singular_orbits(vs)
    if sigma.dimension:
        both = sigma.has_O1 and sigma.has_O2
        return sigma, "always_equal" if both else "exists_equal", True
    return (sigma, "out_of_scope", True) if vs.N == 3 else (
        sigma, "never_equal", False)


def classify_ci(ideal: ToricIdeal) -> tuple:
    """(is_hypersurface, is_complete_intersection) by generator count."""
    n = ideal.semigroup.N
    return (n == 3, ideal.s_min == n - 2)


class TheoremVerdict(NamedTuple):
    """Predicted versus observed shape of the minor-ideal search.

    predicted/observed range over always_equal, exists_equal, never_equal
    and out_of_scope; analyze raises rather than return a mismatch.
    """

    is_hypersurface: bool
    is_complete_intersection: bool
    predicted: str
    observed: str


class Analysis(NamedTuple):
    """Everything one sweep yields.

    sigma is the singular locus as predict gives it, an OrbitSet; witness
    is the first report whose zero locus equals it when it is
    one-dimensional (None when it is a point).  minors reads the sweep's
    pairs, coords and normal_forms (deg_memo's items).
    """

    sigma: OrbitSet
    reports: tuple
    verdict: TheoremVerdict
    witness: Optional[NashReport]
    pairs: tuple
    coords: tuple
    normal_forms: tuple

    def dim1_witness(self) -> NashReport:
        """The witness report; SigmaDimensionError unless the singular
        locus is one-dimensional."""
        if self.witness is None:
            raise SigmaDimensionError(
                "witness construction requires a one-dimensional singular "
                "locus")
        return self.witness

    def minors(self):
        """One list of _expand triples per report, in order: the minors
        _Sweep.minors gives it, empty below full rank."""
        normal_forms = dict(self.normal_forms)
        for r in self.reports:
            yield _expand(self.pairs, self.coords, normal_forms, r.c_s,
                          r.base) if r.c_s else []


FAMILIES = {"minimal": attrgetter("minimal_gens"),  # ideal -> family
            "groebner": attrgetter("gb.elements")}


def analyze(ideal: ToricIdeal, family: str = "minimal") -> Analysis:
    """Singular locus, subset reports, verdict and witness from one sweep.

    sigma is read off the cone's two edges (singular_orbits).  The sweep
    reports every r-subset of the family (a name in FAMILIES; ValueError
    otherwise), in subset-index order, from one _Sweep of the family
    (_subset_report).  Their height rule is held once against zero_locus
    of the witness's minors, else the first full-rank report's, and by the
    Jacobian criterion all minors together vanish on exactly sigma, for
    any generating family; a disagreement raises InvariantViolation.  On
    the torus the Jacobian is the difference matrix, whose rank is the
    same for both families (their rows span one lattice), so a rank drop
    there makes every c_S zero and raises TorusSingular.

    The search checks predict's verdict, and classify_ci that a point
    sigma with N >= 4 is no complete intersection.  A mismatch raises
    TheoremViolation, so a one-dimensional singular locus has a report
    whose zero locus equals it; the witness is the first one.
    """
    if not (isinstance(family, str) and family in FAMILIES):
        raise ValueError(f"unknown family {family!r}")
    fam = FAMILIES[family](ideal)
    vs = ideal.semigroup
    sigma, predicted, _ = predict(vs)
    sweep = _Sweep(ideal, fam)
    reports = tuple(_subset_report(sigma, sweep, subset)
                    for subset in itertools.combinations(range(len(fam)),
                                                         vs.r))
    valid = [r for r in reports if r.rank_ok]
    if not valid:
        raise TorusSingular("no subset of the family reaches full rank")
    equal = [r for r in valid if r.equals_sigma]
    # a one-dimensional sigma predicts a match, which the checks below find
    witness = equal[0] if sigma.dimension == 1 and equal else None
    probe = witness or valid[0]
    minors = _expand(sweep.pairs, sweep.coords, sweep.deg_memo, probe.c_s,
                     probe.base)
    if zero_locus(minors, vs) != probe.zero_locus:
        raise InvariantViolation(
            f"height rule and zero_locus disagree on subset {probe.subset}")
    if OrbitSet(all(r.zero_locus.has_O1 for r in valid),
                all(r.zero_locus.has_O2 for r in valid)) != sigma:
        raise InvariantViolation(
            "edge rule and minor ideal disagree about the singular locus")

    is_hyp, is_ci = classify_ci(ideal)
    if sigma.dimension == 0 and is_ci and not is_hyp:
        raise TheoremViolation(
            "complete intersection with isolated singular origin in "
            f"{vs.N} > 3 variables; this should be impossible and needs "
            "investigation")
    if not equal:
        observed = "never_equal"
    elif predicted == "out_of_scope" or (
            predicted == "always_equal" and len(equal) == len(valid)):
        observed = predicted
    else:
        # with a single one-dimensional closure the claim being tested is
        # bare existence, so extra matching subsets do not change the
        # category; with both, one subset that misses fails it
        observed = "exists_equal"
    if predicted != observed:
        raise TheoremViolation(
            f"predicted {predicted} but observed {observed} for generators "
            f"{[tuple(p) for p in vs.points]}")
    verdict = TheoremVerdict(is_hyp, is_ci, predicted, observed)
    return Analysis(sigma, reports, verdict, witness, tuple(sweep.pairs),
                    sweep.coords, tuple(sweep.deg_memo.items()))


# --- entry points: reads of one analysis --------------------------------------


def singular_locus(ideal: ToricIdeal) -> OrbitSet:
    """The singular locus analyze(ideal) finds, cross-checked against the
    zero locus of the minors; raises what analyze raises."""
    return analyze(ideal).sigma


def search_all_subsets(ideal: ToricIdeal, family: str = "minimal") -> list:
    """Reports for every r-subset of the family, in subset-index order, as
    analyze(ideal, family) gives them; raises what analyze raises."""
    return list(analyze(ideal, family).reports)


def dim1_selector(ideal: ToricIdeal, family: str = "minimal") -> NashReport:
    """The witness subset of analyze(ideal, family) when the singular locus
    has dimension 1 (SigmaDimensionError otherwise); its zero locus
    necessarily equals the singular locus."""
    return analyze(ideal, family).dim1_witness()


def verify_dichotomy(ideal: ToricIdeal,
                     family: str = "minimal") -> TheoremVerdict:
    """The verdict of analyze(ideal, family); raises on a mismatch."""
    return analyze(ideal, family).verdict
