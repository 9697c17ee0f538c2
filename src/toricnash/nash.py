"""Jacobian minors, orbit zero loci, the singular locus, and the dichotomy.

For a toric surface in N variables with defining binomials f_1,...,f_s and
codimension r = N - 2, every r x r minor of the Jacobian of r chosen
binomials is, modulo the defining ideal, an integer times a single
monomial.  The integer is the corresponding minor of the exponent
difference matrix and the monomial has exponent

    (sum of leading exponents over the chosen rows) - (1,...,1) + indicator(K)

where K is the pair of deleted columns.  When that exponent has a negative
entry the congruence class is still a monomial class, and
minor_monomial_formula recovers a representative without symbolic algebra:
a sparse integer Laplace expansion of the minor ({exponent: coefficient},
entries read from the binomials' exponents) reduced term by term with the
monomial normal form of the Groebner basis.  minor_symbolic, the symbolic
determinant reduced to normal form, stays as the reference the tests hold
it against.

Zero loci of the resulting monomial ideals and the singular locus itself
are unions of torus-orbit closures; an OrbitSet records which of the two
one-dimensional closures are present (the origin always is, the dense
torus never).

One Analysis is one subset sweep: analyze reads the singular locus, every
subset's minors, the verdict and its witness from it, and singular_locus,
search_all_subsets, verify_dichotomy and dim1_selector run one sweep each.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .algebra import Binomial, Monomial, Polynomial, derivative, determinant
from .errors import (
    EmptyIdeal,
    InvariantViolation,
    NonMonomialResidue,
    NotSquare,
    RankDeficient,
    SigmaDimensionError,
    TheoremViolation,
    TorusSingular,
    WitnessNotFound,
)
from .ideal import ToricIdeal, monomial_nf, normal_form
from .semigroup import ValidatedSemigroup

# --- exact integer linear algebra -------------------------------------------


def _bareiss(m: list) -> tuple:
    """Fraction-free (Bareiss) row echelon form of m, in place.

    Returns (rank, sign), sign being the parity of the row swaps.  Every
    entry left behind is an integer minor of the input, so each division
    is exact.
    """
    nrows = len(m)
    rank, sign, prev = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for row in m[rank + 1:]:
            f = row[col]
            for j in range(col + 1, len(top)):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    rank, sign = _bareiss(m)
    return sign * m[-1][-1] if rank == n else 0


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    return _bareiss([list(row) for row in rows])[0]


def rank(family: Sequence[Binomial]) -> int:
    """Generic Jacobian rank of the family: the rank of its difference rows."""
    return int_rank([b.difference() for b in family])


# --- minors -------------------------------------------------------------------


def _normalize_selection(selection, nvars: int) -> tuple:
    a, b = sorted(selection)
    if a == b or not (0 <= a < nvars) or not (0 <= b < nvars):
        raise ValueError(f"column selection {selection} invalid for "
                         f"{nvars} variables")
    return (a, b)


def minor_symbolic(family_subset: Sequence[Binomial], selection,
                   ideal: ToricIdeal) -> Polynomial:
    """Jacobian minor with the two selected columns deleted, reduced.

    The reduced result must be zero or a single term; anything else means
    the inputs do not define a toric surface and is raised loudly.
    """
    vs = ideal.semigroup
    sel = _normalize_selection(selection, vs.N)
    cols = [i for i in range(vs.N) if i not in sel]
    matrix = [[derivative(f, i) for i in cols] for f in family_subset]
    det = determinant(matrix)
    reduced = normal_form(det, ideal.gb)
    if len(reduced) > 1:
        raise NonMonomialResidue(
            f"minor reduced to {len(reduced)} terms for columns {sel}")
    return reduced


def _partials(b: Binomial, var: int) -> tuple:
    """Terms (exponent, coefficient) of the derivative of b by x_var:
    plus_var x^(plus - e_var) - minus_var x^(minus - e_var)."""
    return tuple((exp[:var] + (exp[var] - 1,) + exp[var + 1:], sign * exp[var])
                 for exp, sign in ((b.plus, 1), (b.minus, -1)) if exp[var])


def jacobian_minor_terms(family_subset: Sequence[Binomial],
                         cols: Sequence[int]) -> dict:
    """Unreduced Jacobian minor of the rows family_subset over the columns
    cols, as {exponent: coefficient} without zero coefficients.

    Laplace expansion along the rows, entries read from the exponents by
    _partials.  The minor of the rows below a row depends only on the
    columns still free, so it is memoised by their tuple: at most 2^r
    states for r rows.  Equals algebra.determinant of the derivative
    matrix, term for term.
    """
    n = len(family_subset)
    if n != len(cols) or n == 0:
        raise NotSquare(f"matrix is {n}x{len(cols)}")
    entries = [[_partials(b, c) for c in cols] for b in family_subset]
    memo: dict = {}

    def minor(free: tuple) -> dict:
        got = memo.get(free)
        if got is not None:
            return got
        row = entries[n - len(free)]
        if len(free) == 1:
            out = dict(row[free[0]])
        else:
            out = {}
            for k, j in enumerate(free):
                if not row[j]:
                    continue
                sub = minor(free[:k] + free[k + 1:])
                for e1, c1 in row[j]:
                    if k % 2:
                        c1 = -c1
                    for e2, c2 in sub.items():
                        e = tuple(map(add, e1, e2))
                        out[e] = out.get(e, 0) + c1 * c2
            out = {e: c for e, c in out.items() if c}
        memo[free] = out
        return out

    return minor(tuple(range(n)))


def minor_monomial_formula(family_subset: Sequence[Binomial], selection,
                           ideal: ToricIdeal,
                           stats: Optional[dict] = None,
                           nf_memo: Optional[dict] = None
                           ) -> Optional[Monomial]:
    """Minor as det(R_K) times a monomial; None when the minor vanishes.

    Uses the closed combinatorial form when its exponent is nonnegative.
    Otherwise it records the event in stats["formula_fallbacks"] and
    evaluates the minor exactly with integers: jacobian_minor_terms, then
    each term's monomial normal form, looked up in nf_memo (exponent ->
    normal-form exponent for this ideal's basis; a local dict when None).
    The reduced minor must be a single term with coefficient det(R_K):
    more terms raise NonMonomialResidue, zero or another coefficient
    InvariantViolation.
    """
    vs = ideal.semigroup
    sel = _normalize_selection(selection, vs.N)
    cols = [i for i in range(vs.N) if i not in sel]
    rows = [b.difference() for b in family_subset]
    det_rk = int_det([[row[c] for c in cols] for row in rows])
    if det_rk == 0:
        return None
    exp = []
    for i in range(vs.N):
        e = sum(b.plus[i] for b in family_subset) - 1 + (1 if i in sel else 0)
        exp.append(e)
    if min(exp) >= 0:
        return Monomial(det_rk, tuple(exp))
    if stats is not None:
        stats["formula_fallbacks"] = stats.get("formula_fallbacks", 0) + 1
    if nf_memo is None:
        nf_memo = {}
    elements = ideal.gb.elements
    reduced: dict = {}
    for e, c in jacobian_minor_terms(family_subset, cols).items():
        nf = nf_memo.get(e)
        if nf is None:
            nf = nf_memo[e] = monomial_nf(e, elements)
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
    return Monomial(coeff, nf)


def subset_minors(family_subset: Sequence[Binomial], ideal: ToricIdeal,
                  stats: Optional[dict] = None,
                  nf_memo: Optional[dict] = None) -> list:
    """All nonvanishing minors of the subset as (selection, det, monomial).

    The monomial coefficient always equals the deleted-column determinant,
    on either evaluation path, so it doubles as the det entry.  nf_memo is
    passed on to minor_monomial_formula.
    """
    out = []
    for sel in itertools.combinations(range(ideal.semigroup.N), 2):
        mono = minor_monomial_formula(family_subset, sel, ideal, stats,
                                      nf_memo)
        if mono is not None:
            out.append((sel, mono.coeff, mono))
    return out


def nash_ideal(family_subset: Sequence[Binomial], ideal: ToricIdeal) -> list:
    """Monomial generators of the minor ideal of an r-element subset.

    The subset must have full generic rank; otherwise no minor survives and
    the choice is invalid.
    """
    vs = ideal.semigroup
    if len(family_subset) != vs.r:
        raise RankDeficient(
            f"need {vs.r} binomials, got {len(family_subset)}")
    if rank(family_subset) < vs.r:
        raise RankDeficient("difference matrix rank below codimension")
    return [mono for _, _, mono in subset_minors(family_subset, ideal)]


def monomial_classes(exps, ideal: ToricIdeal) -> frozenset:
    """Normal-form exponents of the monomials with exponents exps.

    Congruent monomials share a normal form, so this is the canonical way
    to compare a computed minor set against a printed one.
    """
    return frozenset(monomial_nf(tuple(exp), ideal.gb.elements)
                     for exp in exps)


def nash_ideal_classes(family_subset: Sequence[Binomial],
                       ideal: ToricIdeal) -> frozenset:
    """Normal-form exponents of the minor monomials (coefficients dropped)."""
    return monomial_classes(
        [mono.exp for mono in nash_ideal(family_subset, ideal)], ideal)


# --- orbit sets ---------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSet:
    """A union of torus-orbit closures inside the surface.

    has_O1 marks the closure of the one-dimensional orbit along the z block
    (edge 2), has_O2 the one along the x block (edge 1).  The origin is
    always part of the set; the dense orbit never is.
    """

    has_O1: bool
    has_O2: bool

    @property
    def dimension(self) -> int:
        return 1 if (self.has_O1 or self.has_O2) else 0

    def contains(self, other: "OrbitSet") -> bool:
        return (other.has_O1 <= self.has_O1) and (other.has_O2 <= self.has_O2)

    def describe(self) -> str:
        parts = []
        if self.has_O1:
            parts.append("closure(O1)")
        if self.has_O2:
            parts.append("closure(O2)")
        parts.append("{0}")
        return " u ".join(parts)


def orbit_representatives(vs: ValidatedSemigroup) -> dict:
    l, m, n = vs.l, vs.m, vs.n
    return {
        "torus": (1,) * vs.N,
        "O1": (0,) * (l + m) + (1,) * n,
        "O2": (1,) * l + (0,) * (m + n),
        "origin": (0,) * vs.N,
    }


def zero_locus(monomials: Sequence[Monomial],
               vs: ValidatedSemigroup) -> OrbitSet:
    """Orbit-closure decomposition of the vanishing set of the monomials.

    A monomial vanishes on the z-axis orbit exactly when it involves an x
    or y variable, and on the x-axis orbit exactly when it involves a y or
    z variable; the whole set vanishes on an orbit when every monomial
    does.
    """
    if not monomials:
        raise EmptyIdeal("no monomials given")
    xy = list(vs.x_indices) + list(vs.y_indices)
    yz = list(vs.y_indices) + list(vs.z_indices)
    has_o1 = True
    has_o2 = True
    for mono in monomials:
        if mono.is_constant():
            raise InvariantViolation("constant minor: empty zero locus")
        if not any(mono.exp[i] for i in xy):
            has_o1 = False
        if not any(mono.exp[i] for i in yz):
            has_o2 = False
    return OrbitSet(has_o1, has_o2)


# --- singular locus -----------------------------------------------------------


@dataclass(frozen=True)
class SingularLocus:
    """Orbit-set shape of the singular locus plus the origin flag.

    origin_singular False would mean the smooth-origin hypothesis fails;
    validated minimal generators make that impossible, but the check is
    performed honestly and surfaced rather than assumed.
    """

    orbits: OrbitSet
    origin_singular: bool


def _jacobian_rank_at(family: Sequence[Binomial], point,
                      nvars: int) -> int:
    rows = [[derivative(f, i).evaluate(point) for i in range(nvars)]
            for f in family]
    return int_rank(rows)


def _sweep(ideal: ToricIdeal, tested: Sequence[Binomial],
           searched: Sequence[Binomial],
           stats: Optional[dict] = None) -> tuple:
    """(singular locus, reports): the rank test on tested, then one sweep.

    An orbit is singular when the Jacobian of tested drops below
    codimension at its representative.  The sweep reports every r-subset of
    searched, in subset-index order, sharing one memo of monomial normal
    forms.  By the Jacobian criterion all their minors together must vanish
    on the same orbits, for any generating family; disagreement is an
    internal error.
    """
    vs = ideal.semigroup
    drops = {name: _jacobian_rank_at(tested, point, vs.N) < vs.r
             for name, point in orbit_representatives(vs).items()}
    if drops["torus"]:
        raise TorusSingular("Jacobian rank drops on the dense torus")
    sigma = OrbitSet(drops["O1"], drops["O2"])
    nf_memo: dict = {}
    reports = [_subset_report(ideal, searched, subset, sigma, stats, nf_memo)
               for subset in itertools.combinations(range(len(searched)),
                                                    vs.r)]
    loci = [rep.zero_locus for rep in reports if rep.rank_ok]
    if not loci:
        raise TorusSingular("no subset of the family reaches full rank")
    if OrbitSet(all(z.has_O1 for z in loci),
                all(z.has_O2 for z in loci)) != sigma:
        raise InvariantViolation(
            "rank test and minor ideal disagree about the singular locus")
    return SingularLocus(sigma, drops["origin"]), reports


def singular_locus(ideal: ToricIdeal,
                   family: Optional[Sequence[Binomial]] = None) -> SingularLocus:
    """Per-orbit Jacobian rank test of the family (the minimal generators by
    default), cross-checked against the zero locus of its minors."""
    fam = tuple(family) if family is not None else ideal.minimal_gens
    return _sweep(ideal, fam, fam)[0]


# --- exhaustive search and verdicts -------------------------------------------


@dataclass(frozen=True)
class NashReport:
    """Outcome for one r-subset of the generating family.

    minors holds (selection, det, monomial) triples for the nonvanishing
    minors; zero_locus and equals_sigma are None when the subset never
    reaches full rank.
    """

    subset: tuple
    rank_ok: bool
    minors: tuple
    zero_locus: Optional[OrbitSet]
    equals_sigma: Optional[bool]


def _family(ideal: ToricIdeal, which: str) -> tuple:
    if which == "minimal":
        return ideal.minimal_gens
    if which == "groebner":
        return ideal.gb.elements
    raise ValueError(f"unknown family {which!r}")


def _subset_report(ideal: ToricIdeal, fam: Sequence[Binomial], subset: tuple,
                   sigma: OrbitSet, stats: Optional[dict],
                   nf_memo: dict) -> NashReport:
    vs = ideal.semigroup
    chosen = [fam[i] for i in subset]
    if rank(chosen) < vs.r:
        return NashReport(subset, False, (), None, None)
    minors = tuple(subset_minors(chosen, ideal, stats, nf_memo))
    locus = zero_locus([m for _, _, m in minors], vs)
    return NashReport(subset, True, minors, locus, locus == sigma)


def search_all_subsets(ideal: ToricIdeal, family: str = "minimal") -> list:
    """Reports for every r-subset of the family, in subset-index order."""
    return _sweep(ideal, ideal.minimal_gens, _family(ideal, family))[1]


def classify_ci(ideal: ToricIdeal) -> tuple:
    """(is_hypersurface, is_complete_intersection) by generator count."""
    n = ideal.semigroup.N
    return (n == 3, ideal.s_min == n - 2)


def _witness(reports: Sequence[NashReport], sigma: OrbitSet,
             vs: ValidatedSemigroup) -> NashReport:
    """The first full-rank report that must cut out a one-dimensional sigma.

    When both closures are singular that is any full-rank report.  When
    only the z-axis closure is, it is one with a minor supported purely on
    the x block, and symmetrically.
    """
    both = sigma.has_O1 and sigma.has_O2
    block = set(vs.x_indices if sigma.has_O1 else vs.z_indices)
    for report in reports:
        supports = ({i for i, e in enumerate(m.exp) if e}
                    for _, _, m in report.minors)
        if report.rank_ok and (both or any(s and s <= block for s in supports)):
            if not report.equals_sigma:
                raise TheoremViolation(
                    f"subset {report.subset} should cut out the singular "
                    f"locus but its zero locus differs")
            return report
    raise WitnessNotFound("no full-rank subset reaches the singular locus"
                          if both else "no subset carries a minor supported "
                          "on the opposite edge block")


def _dim1_witness(sig: SingularLocus, reports: Sequence[NashReport],
                  vs: ValidatedSemigroup) -> NashReport:
    if sig.orbits.dimension != 1:
        raise SigmaDimensionError(
            "witness construction requires a one-dimensional singular locus")
    return _witness(reports, sig.orbits, vs)


def dim1_selector(ideal: ToricIdeal, family: str = "minimal") -> NashReport:
    """Constructive witness subset when the singular locus has dimension 1;
    its zero locus necessarily equals the singular locus."""
    sig, reports = _sweep(ideal, ideal.minimal_gens, _family(ideal, family))
    return _dim1_witness(sig, reports, ideal.semigroup)


@dataclass(frozen=True)
class TheoremVerdict:
    """Predicted versus observed shape of the minor-ideal search.

    predicted/observed range over always_equal, exists_equal, never_equal
    and out_of_scope; for in-scope inputs the two must agree, and
    verify_dichotomy raises rather than returning a mismatch.
    """

    sigma: OrbitSet
    is_hypersurface: bool
    is_complete_intersection: bool
    predicted: str
    observed: str
    witness: Optional[tuple]


@dataclass(frozen=True)
class Analysis:
    """Everything one sweep yields.

    fallbacks counts the minors whose closed form had a negative exponent;
    minor_monomial_formula evaluates those by the sparse integer Laplace
    expansion, reduced term by term to one monomial.
    """

    sigma: SingularLocus
    is_hypersurface: bool
    is_complete_intersection: bool
    reports: tuple
    verdict: TheoremVerdict
    fallbacks: int

    def dim1_witness(self, vs: ValidatedSemigroup) -> NashReport:
        """The report dim1_selector returns for the same ideal and family,
        read from this analysis; vs is the ideal's semigroup."""
        return _dim1_witness(self.sigma, self.reports, vs)


def analyze(ideal: ToricIdeal, family: str = "minimal") -> Analysis:
    """Singular locus, subset reports, verdict and witness from one sweep.

    The rank test uses the minimal generators, the sweep the family
    ("minimal" or "groebner").  The verdict predicts the search outcome
    from the singular locus and checks it: a one-dimensional singular locus
    guarantees a witness subset (both closures singular: every subset
    works), a zero-dimensional one on a non-complete-intersection
    guarantees there is none.  Complete intersections with point singular
    locus, and smooth-origin inputs, are out of scope and not asserted.
    """
    stats: dict = {}
    sig, reports = _sweep(ideal, ideal.minimal_gens, _family(ideal, family),
                          stats)
    is_hyp, is_ci = classify_ci(ideal)
    sigma = sig.orbits
    if not sig.origin_singular:
        predicted = "out_of_scope"
    elif sigma.dimension == 0:
        if is_ci and not is_hyp:
            raise TheoremViolation(
                "complete intersection with isolated singular origin in "
                f"{ideal.semigroup.N} > 3 variables; this should be "
                "impossible and needs investigation")
        predicted = "out_of_scope" if is_ci else "never_equal"
    elif sigma.has_O1 and sigma.has_O2:
        predicted = "always_equal"
    else:
        predicted = "exists_equal"

    observed, witness = predicted, None
    if predicted != "out_of_scope":
        valid = [r for r in reports if r.rank_ok]
        equal = [r for r in valid if r.equals_sigma]
        if not equal:
            observed = "never_equal"
        elif len(equal) == len(valid) and predicted == "always_equal":
            observed = "always_equal"
        else:
            # with a single one-dimensional closure the claim being tested
            # is bare existence, so extra matching subsets do not change
            # the category; with both, one subset that misses fails it
            observed = "exists_equal"
        if observed != "never_equal":
            witness = (_witness(reports, sigma, ideal.semigroup)
                       if predicted == "exists_equal" else equal[0]).subset
        if predicted != observed:
            raise TheoremViolation(
                f"predicted {predicted} but observed {observed} for generators "
                f"{[tuple(p) for p in ideal.semigroup.gens.points]}")
    verdict = TheoremVerdict(sigma, is_hyp, is_ci, predicted, observed,
                             witness)
    return Analysis(sig, is_hyp, is_ci, tuple(reports), verdict,
                    stats.get("formula_fallbacks", 0))


def verify_dichotomy(ideal: ToricIdeal,
                     family: str = "minimal") -> TheoremVerdict:
    """The verdict of analyze(ideal, family); raises on a mismatch."""
    return analyze(ideal, family).verdict
