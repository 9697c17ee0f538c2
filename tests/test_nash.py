import io
import itertools
import math
import random
import time
from collections import Counter

import pytest

import toricnash as tn
from toricnash import algebra, cli, ideal as ideal_mod, nash
from toricnash.algebra import ORDERS, Binomial, derivative, determinant
from toricnash.cli import InputSpec, build_report, report_json
from toricnash.errors import (
    InvariantViolation,
    LengthMismatch,
    NonMonomialResidue,
    NotSquare,
    SigmaDimensionError,
    TheoremViolation,
    TorusSingular,
)
from toricnash.ideal import (
    GroebnerBasis,
    int_rank,
    monomial_nf,
    normal_form,
    toric_ideal,
)
from toricnash.nash import (
    OrbitSet,
    analyze,
    classify_ci,
    dim1_selector,
    minor_monomial_formula,
    minor_symbolic,
    monomial_classes,
    rank,
    search_all_subsets,
    singular_locus,
    singular_orbits,
    subset_minors,
    verify_dichotomy,
    zero_locus,
)
from toricnash.semigroup import validate

import _support as sup

A_ROWS = sup.binomials(sup.IDEAL_A)  # paper order: f1, f2, f3


class TestIntLinearAlgebra:
    def test_det_examples(self):
        assert sup.int_det([[1, -2], [1, -1]]) == 1
        assert sup.int_det([[2, 0], [0, 3]]) == 6
        assert sup.int_det([[1, 2], [2, 4]]) == 0

    @pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]],
                                        [[1, 2], [3]], [[1, 2], [3, 4, 5]]])
    def test_det_not_square(self, matrix):
        with pytest.raises(NotSquare):
            sup.int_det(matrix)

    def test_det_against_permutation_expansion(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            brute = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = sign
                for i in range(n):
                    prod *= m[i][perm[i]]
                brute += prod
            assert sup.int_det(m) == brute

    def test_rank(self):
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[1, 0], [0, 1], [1, 1]]) == 2
        assert int_rank([[0, 0]]) == 0

    def test_rank_against_fraction_oracle(self):
        rng = random.Random(17)
        shapes = [(n, n) for n in range(1, 6)] + [(2, 5), (3, 7), (1, 4),
                                                  (5, 2), (7, 3), (4, 1)]
        for rows, cols in shapes:
            for _ in range(40):
                m = [[rng.randint(-5, 5) for _ in range(cols)]
                     for _ in range(rows)]
                if rows > 1 and rng.random() < 0.5:
                    # force a dependency: one row a combination of two others
                    a, b = rng.randrange(rows), rng.randrange(rows)
                    ka, kb = rng.randint(-3, 3), rng.randint(-3, 3)
                    m[rng.randrange(rows)] = [ka * x + kb * y for x, y
                                              in zip(m[a], m[b])]
                assert int_rank(m) == sup.fraction_rank(m), m
            zero = [[0] * cols for _ in range(rows)]
            assert int_rank(zero) == sup.fraction_rank(zero) == 0


class TestRank:
    def test_full_family(self):
        assert rank(A_ROWS) == 2

    def test_pair(self):
        assert rank(A_ROWS[:2]) == 2

    def test_duplicate(self):
        assert rank([A_ROWS[0], A_ROWS[0]]) == 1


class TestMinors:
    def test_formula_known_case(self, fixture_a):
        # rows f1, f2 with the two y-block/z-block columns deleted
        _, ideal = fixture_a
        sel, coeff, exp = minor_monomial_formula(A_ROWS[:2], (2, 3), ideal)
        assert (sel, coeff) == ((2, 3), 1)
        assert sup.nf_exponent(exp, ideal) == \
            sup.nf_exponent((0, 1, 0, 1), ideal)

    def test_zero_when_det_vanishes(self, fixture_c):
        _, ideal = fixture_c
        fam = sup.binomials(sup.IDEAL_C)
        # rows 1,2; deleting the z columns leaves a singular 2x2 block
        assert minor_monomial_formula(fam[:2], (2, 3), ideal) is None
        assert not minor_symbolic(fam[:2], (2, 3), ideal)

    def test_symbolic_known_case(self, fixture_a):
        _, ideal = fixture_a
        reduced = minor_symbolic(A_ROWS[:2], (2, 3), ideal)
        assert reduced == {(0, 0, 2, 0): 1}

    # a selection is a pair of distinct non-bool ints in range(N), N = 4
    @pytest.mark.parametrize("selection", [5, (0, 1, 2), (1, 1), (0, 9),
                                           (True, 2), (0.0, 1), (0.5, 2),
                                           (0, 4), "ab"])
    def test_invalid_selection(self, fixture_a, selection):
        _, ideal = fixture_a
        for minor in (minor_monomial_formula, minor_symbolic):
            with pytest.raises(ValueError, match="column selection"):
                minor(A_ROWS[:2], selection, ideal)

    def test_fallback_recorded(self, fixture_a):
        # rows f1, f2 of fixture A: the closed form (1,-1,0,0) + e_a + e_b
        # is negative unless column 1 is deleted, and the three pairs
        # (0,2), (0,3), (2,3) all have a nonzero determinant
        _, ideal = fixture_a
        minors, fallbacks = subset_minors(A_ROWS[:2], ideal)
        assert fallbacks == 3
        negative = [sel for sel, _, _ in minors if 1 not in sel]
        assert negative == [(0, 2), (0, 3), (2, 3)]

    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_subset_size_refused(self, fixture_a, size):
        # fixture A has r = 2; with f2 alone and columns (1, 2) deleted
        # the closed form is nonnegative, so no Laplace expansion refuses
        # it
        _, ideal = fixture_a
        rows = (A_ROWS[1:2] if size == 1 else A_ROWS[:size])
        with pytest.raises(NotSquare):
            minor_monomial_formula(rows, (1, 2), ideal)
        with pytest.raises(NotSquare):
            subset_minors(rows, ideal)

    @pytest.mark.parametrize("resize", [lambda e: e + (0,),
                                        lambda e: e[:-1]],
                             ids=["long", "short"])
    def test_wrong_binomial_length_refused(self, fixture_a, resize):
        # a binomial one variable too long would be cut short by the
        # relation check's map, one too short would fail it as a row that
        # is no relation; both are refused by length first.  A subset of
        # the wrong size is still NotSquare
        _, ideal = fixture_a
        fam = ideal.minimal_gens
        bad = Binomial(resize(fam[0].plus), resize(fam[0].minus))
        rows = [bad, fam[1]]
        with pytest.raises(LengthMismatch):
            subset_minors(rows, ideal)
        with pytest.raises(LengthMismatch):
            minor_monomial_formula(rows, (0, 1), ideal)
        with pytest.raises(LengthMismatch):
            nash._Sweep(ideal, [fam[0], bad, fam[1]])
        with pytest.raises(NotSquare):
            subset_minors([bad], ideal)
        # the symbolic oracle refuses it before any derivative, with the
        # sweep's message
        for sel in ((0, 1), (2, 3)):
            with pytest.raises(LengthMismatch, match=(
                    f"binomial has {bad.nvars} variables, not 4")):
                minor_symbolic(rows, sel, ideal)

    def test_rows_off_the_lattice_refused(self, fixture_a):
        # x1 - x2 is no relation of fixture A's generators (1,0), (1,1), so
        # the Pluecker identity det(R_K) = c_S (-1)^(a+b) det(g_a, g_b)
        # does not hold for these rows
        _, ideal = fixture_a
        rows = [A_ROWS[0], Binomial((1, 0, 0, 0), (0, 1, 0, 0))]
        with pytest.raises(InvariantViolation, match="not a relation"):
            subset_minors(rows, ideal)
        with pytest.raises(InvariantViolation, match="not a relation"):
            minor_monomial_formula(rows, (2, 3), ideal)
        with pytest.raises(InvariantViolation, match="not a relation"):
            nash._Sweep(ideal, rows)

    def test_inexact_reference_minor_refused(self, fixture_a):
        # doubled generators keep every relation but span an index-4
        # sublattice: det(g_0, g_3) = 12 no longer divides the reference
        # minor of rows f1, f2, so c_S would not be an integer
        vs, ideal = fixture_a
        doubled = tuple(tn.LatticePoint(2 * p.u, 2 * p.v) for p in vs.points)
        bad = ideal._replace(semigroup=vs._replace(points=doubled))
        with pytest.raises(InvariantViolation, match="not a multiple"):
            subset_minors(A_ROWS[:2], bad)

    def test_oracle_equivalence_fixture_a(self, fixture_a):
        _, ideal = fixture_a
        for pair in itertools.combinations(range(3), 2):
            chosen = [A_ROWS[i] for i in pair]
            for sel in itertools.combinations(range(4), 2):
                sym = minor_symbolic(chosen, sel, ideal)
                fast = minor_monomial_formula(chosen, sel, ideal)
                if fast is None:
                    assert not sym
                else:
                    _, coeff, exp = fast
                    assert normal_form({exp: coeff}, ideal.gb) == sym


EXISTS = [(7, 0), (9, 0), (3, 1), (7, 4), (6, 6)]
CYC6 = [(1, j) for j in range(6)]


class TestSparseMinor:
    @pytest.mark.parametrize("points", [sup.FIXTURE_A, sup.FIXTURE_B,
                                        sup.FIXTURE_C, EXISTS])
    def test_laplace_equals_determinant(self, points):
        # every r-subset of the minimal generators, full rank or not, and
        # every deleted column pair K: each term of the unreduced
        # determinant is a monomial sum_i side_i - 1_K of a choice of row
        # sides that covers K (_covers), its coefficients sum to the integer
        # minor det(R_K), and its normal form is zero exactly when det(R_K)
        # is, else det(R_K) times the normal form of every such monomial
        vs, ideal = sup.build(points)
        fam = ideal.minimal_gens
        reducers = ideal.gb.reducers
        checked = 0
        rows = tuple(range(vs.r))
        for subset in itertools.combinations(fam, vs.r):
            covers = nash._Sweep(ideal, subset)._covers(rows)
            diff = [b.difference() for b in subset]
            for sel in itertools.combinations(range(vs.N), 2):
                cols = tuple(i for i in range(vs.N) if i not in sel)
                kept = sum(1 << c for c in cols)
                det = determinant([[derivative(f, i) for i in cols]
                                   for f in subset])
                monomials = {tuple(e + (j in sel) for j, e in enumerate(exp))
                             for mask, exp in covers if mask & kept == kept}
                assert set(det) <= monomials, (points, subset, sel)
                det_rk = sup.int_det([[row[c] for c in cols] for row in diff])
                assert sum(det.values()) == det_rk
                reduced = normal_form(det, ideal.gb)
                assert bool(reduced) == bool(det_rk)
                if det_rk:
                    assert monomials
                for exp in monomials if det_rk else ():
                    assert reduced == {monomial_nf(exp, reducers): det_rk}, \
                        (points, subset, sel)
                checked += 1
        assert checked == (len(list(itertools.combinations(fam, vs.r)))
                           * vs.N * (vs.N - 1) // 2)

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_monomial_nf_matches_normal_form(self, kind):
        rng = random.Random(31)
        for points in (sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C, EXISTS):
            vs = validate(points)
            ideal = toric_ideal(vs, kind)
            for _ in range(200):
                exp = tuple(rng.randint(0, 6) for _ in range(vs.N))
                (want,) = normal_form({exp: 1}, ideal.gb)
                assert monomial_nf(exp, ideal.gb.reducers) == want, exp

    @pytest.mark.parametrize("points", [CYC6, sup.FIXTURE_B])
    def test_analyze_without_symbolic_algebra(self, monkeypatch, points):
        _, ideal = sup.build(points)
        expected = analyze(ideal)
        assert sum(r.fallbacks for r in expected.reports) > 0

        def refuse(*args, **kwargs):
            raise AssertionError("symbolic algebra in the sweep")

        for module, name in ((algebra, "determinant"), (nash, "determinant"),
                             (nash, "minor_symbolic"),
                             (ideal_mod, "normal_form"),
                             (nash, "normal_form")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(nash, "derivative", refuse)
        assert analyze(ideal) == expected

    def test_per_pair_oracle_without_the_sweep(self, fixture_a, monkeypatch):
        # the oracle reads none of the sweep, its Laplace steps or its
        # rewrites, yet gives rows f1, f2 their minors and 3 fallbacks
        _, ideal = fixture_a
        expected = subset_minors(A_ROWS[:2], ideal)
        assert expected[1] == 3

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep in the per-pair oracle")

        for module, name in ((nash, "_Sweep"), (nash, "_walk"),
                             (nash, "_laplace"), (nash, "_expand"),
                             (ideal_mod, "monomial_nf"),
                             (nash, "monomial_nf")):
            monkeypatch.setattr(module, name, refuse)
        assert sup.per_pair_subset_minors(A_ROWS[:2], ideal) == expected

    def test_singular_orbits_match_jacobian_ranks(self, population):
        # the edge rule gives the orbits where the Jacobian of the
        # evaluated derivative polynomials drops below r, for both families
        # of every population member, with full rank on the torus and a
        # drop at the origin
        for _, ideal in population:
            sup.check_orbit_ranks(ideal)

    # rows f1, f2 of fixture A without columns 0 and 3: the closed form has
    # a negative exponent, so the minor is a fallback, and its two covering
    # monomials x2^2 and x1x3 share one normal form; each check must be
    # reached through all three entry points, the last being the sweep over
    # every subset of the minimal generators
    @staticmethod
    def _entry_points(ideal):
        yield lambda: minor_monomial_formula(A_ROWS[:2], (0, 3), ideal)
        yield lambda: subset_minors(A_ROWS[:2], ideal)
        yield lambda: analyze(ideal)

    def test_fallback_checks_non_monomial(self, fixture_a):
        _, ideal = fixture_a
        bare = GroebnerBasis(ideal.order, ())  # nothing reduces
        for evaluate in self._entry_points(ideal._replace(gb=bare)):
            with pytest.raises(NonMonomialResidue):
                evaluate()

    def test_symbolic_checks_non_monomial(self, fixture_a):
        # the oracle's own check: over an empty basis the determinant keeps
        # both of its terms
        _, ideal = fixture_a
        bare = ideal._replace(gb=GroebnerBasis(ideal.order, ()))
        with pytest.raises(NonMonomialResidue, match="2 terms"):
            minor_symbolic(A_ROWS[:2], (0, 3), bare)

    @staticmethod
    def _tampered(monkeypatch, tamper):
        # every sweep the entry points build is tampered after __init__
        class Tampered(nash._Sweep):
            def __init__(self, *args):
                super().__init__(*args)
                tamper(self)

        monkeypatch.setattr(nash, "_Sweep", Tampered)

    def test_fallback_checks_zero(self, fixture_a, monkeypatch):
        _, ideal = fixture_a
        # row sides that support no column: no choice of sides covers the
        # kept columns, as if the minor were the zero polynomial, while
        # det(R_K) still comes from the difference rows
        self._tampered(monkeypatch, lambda sweep: setattr(
            sweep, "sides", [tuple((0, side) for _, side in row)
                             for row in sweep.sides]))
        for evaluate in self._entry_points(ideal):
            with pytest.raises(InvariantViolation, match="reduced to zero"):
                evaluate()

    def test_fallback_checks_coefficient(self, fixture_a, monkeypatch):
        # a reference minor of the wrong sign keeps c_S an integer but
        # gives it the wrong sign, which the first fallback's det(R_K) of
        # the difference rows exposes
        _, ideal = fixture_a
        self._tampered(monkeypatch, lambda sweep: setattr(
            sweep, "reference", -sweep.reference))
        for evaluate in self._entry_points(ideal):
            with pytest.raises(InvariantViolation,
                               match="coefficient differs"):
                evaluate()

    def test_fallback_checks_pair_sign(self, fixture_a, monkeypatch):
        # a wrong (-1)^(a+b) det(g_a, g_b) sign in the sweep's pairs is
        # caught by the once-per-sweep coefficient check
        _, ideal = fixture_a
        self._tampered(monkeypatch, lambda sweep: setattr(
            sweep, "pairs", [(sel, kept, -det_ab, g)
                             for sel, kept, det_ab, g in sweep.pairs]))
        for evaluate in self._entry_points(ideal):
            with pytest.raises(InvariantViolation,
                               match="coefficient differs"):
                evaluate()

    def test_fallback_checks_degree(self, fixture_a, monkeypatch):
        # pairs whose g_a + g_b is off by (1, 0): the normal form found for
        # each fallback has its true degree, not the one the sweep asks for
        _, ideal = fixture_a
        self._tampered(monkeypatch, lambda sweep: setattr(
            sweep, "pairs", [(sel, kept, det_ab, (u + 1, v))
                             for sel, kept, det_ab, (u, v) in sweep.pairs]))
        for evaluate in self._entry_points(ideal):
            with pytest.raises(InvariantViolation, match="off its degree"):
                evaluate()

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_fallback_checks_join(self, kind):
        # a basis missing one element is no Groebner basis: two covering
        # monomials of one fallback degree reach different normal forms.
        # Some join needs each listed one of cyc6's ten elements: nine
        # under degrevlex, six under lex
        ((_, ideal),) = sweep_ideals([(CYC6, kind)])
        needed = ((0, 1, 2, 3, 4, 5, 6, 8, 9) if kind == "degrevlex"
                  else (0, 2, 4, 5, 8, 9))
        elements = ideal.gb.elements
        for k in needed:
            dropped = GroebnerBasis(ideal.order,
                                    elements[:k] + elements[k + 1:])
            with pytest.raises(NonMonomialResidue, match="two normal forms"):
                analyze(ideal._replace(gb=dropped))

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_deg_memo_is_fiber_minimum(self, kind, monkeypatch):
        # the normal form the sweep records for each fallback degree is the
        # order-minimal monomial of that degree's fiber, found from the
        # generators without the basis; a second pass over the subsets
        # reads the memos and gives the same minors
        sweeps = []

        class Recorded(nash._Sweep):
            def __init__(self, *args):
                super().__init__(*args)
                sweeps.append(self)

        monkeypatch.setattr(nash, "_Sweep", Recorded)
        for points in (CYC6, EXISTS, SWEEP_SURFACES[3][0]):
            vs = validate(points)
            ideal = toric_ideal(vs, kind)
            sweeps.clear()
            analysis = analyze(ideal)
            (sweep,) = sweeps
            memo = sweep.deg_memo
            assert memo, points
            assert all(sup.pi(vs, nf) == degree
                       for degree, nf in memo.items()), points
            nfs = list(memo.values())
            assert sup.fiber_minima(nfs, vs.points, ideal.order) == \
                {nf: nf for nf in nfs}, points
            assert [sweep.minors(r.subset) for r in analysis.reports] == \
                [(minors, r.fallbacks) for r, minors in
                 zip(analysis.reports, sup.report_minors(analysis))]

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_sub_minors_expanded_once_in_any_order(self, kind,
                                                   monkeypatch):
        # deg_memo is keyed by degree: no fallback degree is reduced to its
        # normal form twice in one sweep, and visiting the subsets in
        # shuffled order gives the same minors as itertools.combinations
        # order
        ((vs, ideal),) = sweep_ideals([(CYC6, kind)])
        fam = ideal.minimal_gens
        subsets = list(itertools.combinations(range(len(fam)), vs.r))
        degrees = normal_forms_taken(monkeypatch, vs)
        sweep = nash._Sweep(ideal, fam)
        ordered = {idx: sweep.minors(idx) for idx in subsets}
        assert degrees
        assert len(set(degrees)) == len(degrees) == len(sweep.deg_memo)
        assert set(degrees) == set(sweep.deg_memo)
        shuffled = subsets.copy()
        random.Random(5).shuffle(shuffled)
        sweep = nash._Sweep(ideal, fam)
        assert {idx: sweep.minors(idx) for idx in shuffled} == ordered


# the surfaces of the sweep benchmark, under their term orders
SWEEP_SURFACES = [(CYC6, "lex"), (CYC6, "degrevlex"), (EXISTS, "lex"),
                  ([(5, 0), (7, 0), (2, 3), (0, 5), (0, 7)], "degrevlex")]


def sweep_ideals(surfaces=SWEEP_SURFACES):
    out = []
    for points, kind in surfaces:
        vs = validate(points)
        out.append((vs, toric_ideal(vs, kind)))
    return out


def normal_forms_taken(monkeypatch, vs) -> list:
    """A list that records the degree of each monomial the sweeps of vs
    reduce all the way to its normal form: the first of each fallback
    degree, as the second only rewrites until it joins that path."""
    walk, degrees = nash._walk, []

    def watched(exp, reducers, path):
        last, joined = walk(exp, reducers, path)
        if not joined:
            degrees.append(sup.pi(vs, exp))
        return last, joined

    monkeypatch.setattr(nash, "_walk", watched)
    return degrees


class TestSubsetMinors:
    @staticmethod
    def _inputs(group, fixture_a, fixture_b, fixture_c, population):
        if group == "fixtures":
            return [fixture_a, fixture_b, fixture_c]
        if group == "sweep":
            return sweep_ideals()
        return population

    @pytest.mark.parametrize("group", ["fixtures", "sweep", "population"])
    def test_matches_per_pair_oracle(self, group, fixture_a, fixture_b,
                                     fixture_c, population):
        # same minors in the same order and the same fallback count as one
        # per-pair evaluation per column pair, and as a sweep of the subset
        # alone, on every r-subset of both families, through one sweep per
        # family as analyze runs it.  Every minor has the degree
        # sum_(f in S) deg(f.plus) - sum_j g_j + g_a + g_b, and every
        # fallback minor's exponent is the sweep's normal form of that
        # degree
        subsets = fallbacks = 0
        for vs, ideal in self._inputs(group, fixture_a, fixture_b,
                                      fixture_c, population):
            pts = vs.points
            ones_u, ones_v = sup.pi(vs, (1,) * vs.N)
            for fam in (ideal.minimal_gens, ideal.gb.elements):
                sweep = nash._Sweep(ideal, fam)
                for idx in itertools.combinations(range(len(fam)), vs.r):
                    chosen = tuple(fam[i] for i in idx)
                    got = sweep.minors(idx)
                    assert got == sup.per_pair_subset_minors(
                        chosen, ideal), chosen
                    assert got == subset_minors(chosen, ideal), chosen
                    assert bool(got[0]) == (rank(chosen) == vs.r)
                    t_u = sum(sup.pi(vs, f.plus)[0] for f in chosen) - ones_u
                    t_v = sum(sup.pi(vs, f.plus)[1] for f in chosen) - ones_v
                    base = [sum(col) - 1
                            for col in zip(*(f.plus for f in chosen))]
                    expanded = 0
                    for (a, b), _, exp in got[0]:
                        degree = (t_u + pts[a].u + pts[b].u,
                                  t_v + pts[a].v + pts[b].v)
                        assert sup.pi(vs, exp) == degree, (chosen, a, b)
                        if any(e + (i in (a, b)) < 0
                               for i, e in enumerate(base)):
                            # the closed form is negative: a fallback
                            expanded += 1
                            assert exp == sweep.deg_memo[degree] == \
                                monomial_nf(exp, ideal.gb.reducers)
                    assert expanded == got[1], chosen
                    subsets += 1
                    fallbacks += got[1]
        assert subsets and fallbacks

    @pytest.mark.parametrize("group", ["fixtures", "sweep", "population"])
    def test_analyze_matches_per_pair_oracle(self, group, fixture_a,
                                             fixture_b, fixture_c,
                                             population):
        # the sweep shares rows, pairs, partials and the sub-minors of
        # common leading rows across subsets; subset by subset its reports
        # hold the per-pair oracle's minors, in its order, and its fallbacks.
        # The witness read from the zero-locus flags is the one the minor
        # supports give, and the family's Jacobian drops rank at the origin
        subsets = fallbacks = witnesses = 0
        for vs, ideal in self._inputs(group, fixture_a, fixture_b,
                                      fixture_c, population):
            for family, fam in (("minimal", ideal.minimal_gens),
                                ("groebner", ideal.gb.elements)):
                analysis = analyze(ideal, family)
                assert sup.derivative_drops(fam, vs)["origin"]
                assert analysis.witness == sup.support_witness(analysis, vs)
                witnesses += analysis.witness is not None
                indices = list(itertools.combinations(range(len(fam)), vs.r))
                assert [r.subset for r in analysis.reports] == indices
                for report, minors in zip(analysis.reports,
                                          sup.report_minors(analysis)):
                    chosen = [fam[i] for i in report.subset]
                    assert (minors, report.fallbacks) == \
                        sup.per_pair_subset_minors(chosen, ideal), chosen
                    subsets += 1
                    fallbacks += report.fallbacks
        assert subsets and fallbacks and witnesses

    def test_one_wedge_per_prefix(self, fixture_b, monkeypatch):
        # c_S reads the minors of the subset's first r - 1 rows from the
        # sweep's wedges: each prefix is built once from the seeded empty
        # one, in whatever order the subsets come, and no determinant or
        # integer elimination runs.
        # A monomial is reduced to its normal form once per degree in the
        # shared sweep, and in a sweep of one subset only at its fallback
        # pairs
        vs, ideal = fixture_b
        built = []
        wedge = nash._Sweep._wedge
        tops = normal_forms_taken(monkeypatch, vs)

        def counted_wedge(self, prefix):
            if prefix not in self.wedges:
                built.append(prefix)
            return wedge(self, prefix)

        def no_determinant(*args):
            raise AssertionError("a determinant ran in the sweep")

        monkeypatch.setattr(nash._Sweep, "_wedge", counted_wedge)
        monkeypatch.setattr(nash, "int_rank", no_determinant)
        monkeypatch.setattr(nash, "determinant", no_determinant)
        fam = ideal.gb.elements
        subsets = list(itertools.combinations(range(len(fam)), vs.r))
        shuffled = subsets.copy()
        random.Random(3).shuffle(shuffled)
        sweep = nash._Sweep(ideal, fam)
        for idx in shuffled:
            sweep.minors(idx)
        prefixes = {idx[:k] for idx in subsets for k in range(1, vs.r)}
        assert sorted(built) == sorted(prefixes)
        assert sorted(sweep.wedges) == sorted(prefixes | {()})
        assert len(tops) == len(sweep.deg_memo) > 0
        tops.clear()
        fallbacks = sum(subset_minors([fam[i] for i in idx], ideal)[1]
                        for idx in subsets)
        assert len(tops) == fallbacks > 0

    @pytest.mark.parametrize("group", ["fixture_b", "cyc6", "box5"])
    def test_prefix_wedges_match_int_det(self, group, fixture_b,
                                         five_point_sets):
        # the reference minor of every subset, visited in shuffled order,
        # is int_det of its rows over the columns 1..N-2, zero for the
        # rank-deficient ones, and every memoised prefix minor is int_det
        # of its rows and columns
        if group == "fixture_b":
            ideals = [fixture_b[1]]
        elif group == "cyc6":
            ideals = [ideal for _, ideal in sweep_ideals(SWEEP_SURFACES[:2])]
        else:
            ideals = [toric_ideal(vs) for vs in five_point_sets]
        subsets = zeros = 0
        for seed, ideal in enumerate(ideals):
            checked, deficient = sup.check_prefix_wedges(ideal, seed)
            subsets += checked
            zeros += deficient
        assert subsets > zeros > 0

    @pytest.mark.parametrize("points", [sup.FIXTURE_B, CYC6])
    def test_inexact_prefix_numerator_refused(self, points):
        # doubled generators keep every relation but multiply
        # det(g_0, g_(N-1)) by 4; a subset whose reference minor it no
        # longer divides raises, one whose minor it divides does not
        vs, ideal = sup.build(points)
        doubled = tuple(tn.LatticePoint(2 * p.u, 2 * p.v) for p in vs.points)
        bad = ideal._replace(semigroup=vs._replace(points=doubled))
        fam = ideal.gb.elements
        rows = [b.difference() for b in fam]
        sweep = nash._Sweep(bad, fam)
        raised = 0
        for idx in itertools.combinations(range(len(fam)), vs.r):
            numerator = sup.int_det([rows[i][1:-1] for i in idx])
            if numerator % sweep.reference:
                with pytest.raises(InvariantViolation, match="not a multiple"):
                    sweep.minors(idx)
                raised += 1
            else:
                sweep.minors(idx)
        assert raised > 0

    @pytest.mark.parametrize("kind, fallbacks, expansions",
                             [("lex", 922, 19), ("degrevlex", 2116, 21)],
                             ids=["lex_order-922-19",
                                  "degrevlex_order-2116-21"])
    def test_one_laplace_expansion_per_degree(self, kind, fallbacks,
                                              expansions, monkeypatch):
        # one sweep over every subset of cyc6 takes one normal form for
        # the first fallback minor of each degree; later minors of that
        # degree read the sweep's memo and still count as fallbacks
        ((vs, ideal),) = sweep_ideals([(CYC6, kind)])
        tops = normal_forms_taken(monkeypatch, vs)
        fam = ideal.minimal_gens
        sweep = nash._Sweep(ideal, fam)
        assert sum(sweep.minors(idx)[1] for idx in itertools.combinations(
            range(len(fam)), vs.r)) == fallbacks
        assert len(tops) == len(sweep.deg_memo) == expansions
        assert sum(r.fallbacks for r in analyze(ideal).reports) == fallbacks
        assert len(tops) == 2 * expansions


class TestNashIdeal:
    def test_j12(self, fixture_a):
        _, ideal = fixture_a
        assert sup.minor_classes(A_ROWS[:2], ideal) == \
            sup.nf_classes(sup.J12, ideal)

    def test_j13(self, fixture_a):
        _, ideal = fixture_a
        assert sup.minor_classes([A_ROWS[0], A_ROWS[2]], ideal) == \
            sup.nf_classes(sup.J13, ideal)

    def test_j23(self, fixture_a):
        _, ideal = fixture_a
        assert sup.minor_classes(A_ROWS[1:], ideal) == \
            sup.nf_classes(sup.J23, ideal)

    def test_rank_deficient(self, fixture_a):
        # below full rank no minor survives
        _, ideal = fixture_a
        assert subset_minors([A_ROWS[0], A_ROWS[0]], ideal) == ([], 0)

    def test_rank_equivalence(self, population):
        # a subset reaches full rank exactly when some deleted-column
        # determinant survives
        for vs, ideal in population[:15]:
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                rows = [b.difference() for b in chosen]
                some = any(
                    sup.int_det([[row[c] for c in range(vs.N) if c not in sel]
                             for row in rows]) != 0
                    for sel in itertools.combinations(range(vs.N), 2))
                assert some == (rank(chosen) == vs.r)


class TestZeroLocus:
    def test_j12_case(self, fixture_a):
        vs, ideal = fixture_a
        minors, _ = subset_minors(A_ROWS[:2], ideal)
        assert zero_locus(minors, vs) == OrbitSet(True, False)

    def test_pure_x_monomial(self, fixture_a):
        vs, _ = fixture_a
        locus = zero_locus([((0, 1), 1, (3, 0, 0, 0))], vs)
        assert locus == OrbitSet(True, False)

    @pytest.mark.parametrize("exp", [(0, 2, 0), (0, 0, 0, 0, 5)])
    def test_wrong_length_refused(self, fixture_a, exp):
        # the block slices and monomial_nf's map would cut it short or
        # read it as another monomial
        vs, ideal = fixture_a
        with pytest.raises(LengthMismatch):
            zero_locus([((0, 1), 1, exp)], vs)
        with pytest.raises(LengthMismatch):
            monomial_classes([exp], ideal)

    def test_origin_only_pattern(self, fixture_a):
        vs, _ = fixture_a
        locus = zero_locus([((0, 1), 1, (1, 0, 0, 0)),
                            ((2, 3), 1, (0, 0, 0, 1))], vs)
        assert locus == OrbitSet(False, False)
        assert locus.dimension == 0

    def test_empty(self, fixture_a):
        vs, _ = fixture_a
        with pytest.raises(tn.EmptyIdeal):
            zero_locus([], vs)

    def test_empty_iterator_refused(self, fixture_a):
        # an iterator is true however many monomials it holds
        vs, _ = fixture_a
        with pytest.raises(tn.EmptyIdeal):
            zero_locus(iter([]), vs)
        with pytest.raises(tn.EmptyIdeal):
            zero_locus((m for m in ()), vs)

    def test_generator_matches_list(self):
        # a one-shot generator of each report's (selection, coefficient,
        # exponent) triples, and of the same triples as lists, gives the
        # locus of the list
        checked = 0
        for vs, ideal in sweep_ideals():
            for minors in sup.report_minors(analyze(ideal)):
                if minors:
                    want = zero_locus(minors, vs)
                    assert zero_locus((m for m in minors), vs) == want
                    assert zero_locus((list(m) for m in minors), vs) == want
                    checked += 1
        assert checked

    def test_slices_match_index_lists(self):
        # every minor of the four sweep surfaces, alone and as its subset's
        # ideal, in both families, then a constant minor and no minor
        checked = 0
        for vs, ideal in sweep_ideals():
            for family in ("minimal", "groebner"):
                for minors in sup.report_minors(analyze(ideal, family)):
                    groups = [[m] for m in minors] + [minors] * bool(minors)
                    for group in groups:
                        assert zero_locus(group, vs) == \
                            sup.index_zero_locus(group, vs)
                        checked += 1
            constant = [((0, 1), 1, (1,) + (0,) * (vs.N - 1)),
                        ((0, 2), 3, (0,) * vs.N)]
            for locus in (zero_locus, sup.index_zero_locus):
                with pytest.raises(InvariantViolation, match="constant"):
                    locus(constant, vs)
                with pytest.raises(tn.EmptyIdeal):
                    locus([], vs)
        assert checked

    def test_vanishing_matches_evaluation(self, population):
        # the block-support reading must agree with literal evaluation at
        # the orbit representatives
        for vs, ideal in population[:10]:
            reps = sup.orbit_representatives(vs)
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                if rank(chosen) < vs.r:
                    continue
                minors, _ = subset_minors(chosen, ideal)
                locus = zero_locus(minors, vs)
                all_o1 = all(
                    sup.evaluate({exp: coeff}, reps["O1"]) == 0
                    for _, coeff, exp in minors)
                all_o2 = all(
                    sup.evaluate({exp: coeff}, reps["O2"]) == 0
                    for _, coeff, exp in minors)
                assert locus == OrbitSet(all_o1, all_o2)

    def test_congruent_monomials_same_pattern(self, population):
        # normal forms never change the zero pattern at representatives
        for vs, ideal in population[:10]:
            reps = sup.orbit_representatives(vs)
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                if rank(chosen) < vs.r:
                    continue
                for _, _, exp in subset_minors(chosen, ideal)[0]:
                    nf = sup.nf_exponent(exp, ideal)
                    for rep in reps.values():
                        a = sup.evaluate({exp: 1}, rep)
                        b = sup.evaluate({nf: 1}, rep)
                        assert (a == 0) == (b == 0)


class TestSingularLocus:
    def test_fixture_a(self, fixture_a):
        vs, ideal = fixture_a
        assert singular_locus(ideal) == OrbitSet(False, False)
        assert sup.derivative_drops(ideal.minimal_gens, vs)["origin"]

    def test_fixture_b(self, fixture_b):
        _, ideal = fixture_b
        assert singular_locus(ideal) == OrbitSet(True, True)

    def test_fixture_c(self, fixture_c):
        _, ideal = fixture_c
        assert singular_locus(ideal) == OrbitSet(False, True)

    def test_family_independent(self, population):
        # the Jacobian of the Groebner basis drops on the same orbits and at
        # the origin, and the Groebner sweep agrees with it
        for vs, ideal in population[:10]:
            sig = singular_locus(ideal)
            assert analyze(ideal, "groebner").sigma == sig
            assert sup.derivative_drops(ideal.gb.elements, vs) == {
                "torus": False, "O1": sig.has_O1, "O2": sig.has_O2,
                "origin": True}

    def test_cyclic_quotients(self):
        # the 45 normal surfaces 1/n(1, q), 2 <= n <= 12: Wahl's count
        # s_min = C(N - 1, 2), a point singular locus by the edge rule and
        # by the Jacobian, and, where the listing is small, no witness for
        # N >= 4 (out of scope for the hypersurfaces, N = 3)
        cases = [(n, q) for n in range(2, 13) for q in range(1, n)
                 if math.gcd(n, q) == 1]
        assert len(cases) == 45
        verdicts = Counter()
        for n, q in cases:
            vs, ideal = sup.build(sup.cyclic_quotient(n, q))
            assert ideal.s_min == math.comb(vs.N - 1, 2), (n, q)
            assert singular_orbits(vs) == OrbitSet(False, False), (n, q)
            sup.check_orbit_ranks(ideal)
            if math.comb(ideal.s_min, vs.r) <= 200:
                verdict = verify_dichotomy(ideal)
                expected = "never_equal" if vs.N >= 4 else "out_of_scope"
                assert (verdict.predicted, verdict.observed) == \
                    (expected, expected), (n, q)
                verdicts[expected] += 1
        assert verdicts["never_equal"] and verdicts["out_of_scope"]


class TestSearch:
    def test_fixture_a_counts(self, fixture_a):
        _, ideal = fixture_a
        reports = search_all_subsets(ideal)
        assert len(reports) == 3
        assert all(r.rank_ok for r in reports)
        assert not any(r.equals_sigma for r in reports)

    def test_fixture_b_all_equal(self, fixture_b):
        _, ideal = fixture_b
        reports = search_all_subsets(ideal)
        valid = [r for r in reports if r.rank_ok]
        assert valid and all(r.equals_sigma for r in valid)

    def test_fixture_c_paper_subset(self, fixture_c):
        vs, ideal = fixture_c
        rows = sup.binomials(sup.IDEAL_C[:2])
        locus = zero_locus(subset_minors(rows, ideal)[0], vs)
        assert locus == OrbitSet(False, True)
        assert locus == singular_locus(ideal)

    def test_groebner_family(self, fixture_a):
        _, ideal = fixture_a
        reports = search_all_subsets(ideal, family="groebner")
        assert len(reports) == 3  # basis equals the minimal generators here


class TestDim1Selector:
    def test_fixture_c(self, fixture_c):
        _, ideal = fixture_c
        report = dim1_selector(ideal)
        assert report.equals_sigma
        assert report.rank_ok

    def test_fixture_b_any_subset(self, fixture_b):
        _, ideal = fixture_b
        report = dim1_selector(ideal)
        assert report.equals_sigma

    def test_dim_zero_rejected(self, fixture_a):
        _, ideal = fixture_a
        with pytest.raises(SigmaDimensionError):
            dim1_selector(ideal)

    def test_witness_minor_is_pure_block(self, fixture_c):
        vs, ideal = fixture_c
        report = dim1_selector(ideal)
        minors = sup.report_minors(analyze(ideal), report)
        # sigma is the x-axis closure here, so a pure z-block minor exists
        z = set(vs.z_indices)
        assert any(
            set(i for i, e in enumerate(exp) if e) <= z
            for _, _, exp in minors)


class TestAnalysis:
    def test_matches_entry_points(self, fixture_a, fixture_b, fixture_c):
        for _, ideal in (fixture_a, fixture_b, fixture_c):
            for family in ("minimal", "groebner"):
                a = analyze(ideal, family)
                assert a.sigma == singular_locus(ideal)
                assert list(a.reports) == search_all_subsets(ideal, family)
                assert a.verdict == verify_dichotomy(ideal, family)
                assert (a.verdict.is_hypersurface,
                        a.verdict.is_complete_intersection) == \
                    classify_ci(ideal)

    @pytest.mark.parametrize("family", ["graver", "", ["minimal"], None])
    def test_unknown_family_refused(self, fixture_a, family):
        # a family not in FAMILIES, also one that cannot be a dict key
        _, ideal = fixture_a
        with pytest.raises(ValueError, match="unknown family"):
            analyze(ideal, family)

    def test_witness_is_dim1_selector(self, fixture_b, fixture_c):
        for _, ideal in (fixture_b, fixture_c):
            assert analyze(ideal).witness.subset == \
                dim1_selector(ideal).subset

    def test_entry_points_raise_what_analyze_raises(self, fixture_a,
                                                    monkeypatch):
        # fixture A reported as a complete intersection: a point singular
        # locus in 4 variables contradicts the theorem
        _, ideal = fixture_a
        monkeypatch.setattr(nash, "classify_ci", lambda ideal: (False, True))
        for read in (singular_locus, search_all_subsets, verify_dichotomy):
            with pytest.raises(TheoremViolation):
                read(ideal)

    def test_witness_found_once(self, fixture_b, fixture_c):
        # the witness is the first report the verdict check found equal to
        # sigma, every read of it returns that one report, and the report's
        # verdict names its subset
        for gens, (_, ideal) in ((sup.FIXTURE_B, fixture_b),
                                 (sup.FIXTURE_C, fixture_c)):
            a = analyze(ideal)
            assert a.witness is next(r for r in a.reports if r.equals_sigma)
            assert a.dim1_witness() is a.witness
            rep = build_report(InputSpec(tuple(gens)))
            assert report_json(rep)["verdict"]["witness"] == \
                list(a.witness.subset)

    def test_no_full_rank_subset_refused(self, fixture_c, monkeypatch):
        # every subset reported below full rank (c_S == 0)
        _, ideal = fixture_c
        monkeypatch.setattr(nash._Sweep, "check",
                            lambda self, subset: (0, None, 0))
        with pytest.raises(TorusSingular, match="^no subset of the family "
                                                "reaches full rank$"):
            analyze(ideal)

    def test_rank_and_minors_disagree(self, fixture_a, monkeypatch):
        # the edge rule read as closure(O1) alone, which the minors' zero
        # loci do not contain
        _, ideal = fixture_a
        sup.disagreeing_sigma(monkeypatch)
        with pytest.raises(InvariantViolation, match="^edge rule and minor "
                                                     "ideal disagree"):
            analyze(ideal)

    def test_verdict_mismatch_is_theorem_violation(self, monkeypatch):
        # the hypersurface xz - y^2 predicted as N >= 4 would be: a point
        # singular locus then predicts no match, but the one subset cuts
        # out the origin
        vs = validate([(1, 0), (1, 1), (1, 2)])
        ideal = toric_ideal(vs)
        monkeypatch.setattr(nash, "predict", lambda vs: (
            singular_orbits(vs), "never_equal", False))
        with pytest.raises(TheoremViolation) as info:
            analyze(ideal)
        assert str(info.value) == (
            "predicted never_equal but observed exists_equal for generators "
            "[(1, 0), (1, 1), (1, 2)]")

    def test_fallbacks_counted_once(self, fixture_a):
        # each report's count is its subset's, and the report's one warning
        # line gives their sum, which the per-pair oracle counts alike
        _, ideal = fixture_a
        reports = search_all_subsets(ideal)
        rows = [[ideal.minimal_gens[i] for i in r.subset] for r in reports]
        assert [r.fallbacks for r in reports] == \
            [subset_minors(chosen, ideal)[1] for chosen in rows]
        oracle = sum(sup.per_pair_subset_minors(chosen, ideal)[1]
                     for chosen in rows)
        assert sum(r.fallbacks for r in reports) == oracle > 0
        rep = build_report(InputSpec(tuple(sup.FIXTURE_A)))
        assert rep.warnings == [f"minor formula fell back to the symbolic "
                                f"determinant {oracle} times"]


class TestClassifyCI:
    def test_fixture_a(self, fixture_a):
        assert classify_ci(fixture_a[1]) == (False, False)

    def test_hypersurface(self):
        vs = validate([(1, 0), (1, 1), (1, 2)])
        assert classify_ci(toric_ideal(vs)) == (True, True)

    def test_fixture_b(self, fixture_b):
        assert classify_ci(fixture_b[1]) == (False, False)


class TestGL2Invariance:
    def test_mapped_surfaces_keep_their_analysis(self):
        # every valid 3-5 point set of [0,3]^2 under a seeded GL2(Z) map and
        # a shuffle; each map, both reflections included, is drawn
        drawn = sup.check_gl2_invariance(sup.box_semigroups(3, range(3, 6)))
        assert sum(drawn.values()) == 1332
        assert set(drawn) == set(sup.GL2_MAPS)


class TestVerdicts:
    def test_fixture_a(self, fixture_a):
        a = analyze(fixture_a[1])
        v = a.verdict
        assert (v.predicted, v.observed) == ("never_equal", "never_equal")
        assert a.witness is None

    def test_fixture_b(self, fixture_b):
        a = analyze(fixture_b[1])
        v = a.verdict
        assert (v.predicted, v.observed) == ("always_equal", "always_equal")
        assert a.witness is not None

    def test_fixture_c(self, fixture_c):
        a = analyze(fixture_c[1])
        v = a.verdict
        assert (v.predicted, v.observed) == ("exists_equal", "exists_equal")
        assert a.witness.subset == (0, 1)

    def test_hypersurface_out_of_scope(self):
        vs = validate([(1, 0), (1, 1), (1, 2)])
        v = verify_dichotomy(toric_ideal(vs))
        assert v.predicted == "out_of_scope"
        assert v.is_complete_intersection

    def test_hypersurface_minors_cut_origin(self):
        # for the complete-intersection case the minor ideal of the single
        # defining equation still cuts out exactly the singular point
        vs = validate([(1, 0), (1, 1), (1, 2)])
        ideal = toric_ideal(vs)
        minors, _ = subset_minors(list(ideal.minimal_gens), ideal)
        assert zero_locus(minors, vs) == singular_locus(ideal)

    def test_family_agreement(self, population):
        for _, ideal in population[:10]:
            a = verify_dichotomy(ideal, family="minimal")
            b = verify_dichotomy(ideal, family="groebner")
            assert (a.predicted, a.observed) == (b.predicted, b.observed)

    def test_empty_interior_block(self):
        # no interior generators: the y block is empty and everything
        # degenerates gracefully
        vs = validate([(2, 0), (3, 0), (0, 1)])
        ideal = toric_ideal(vs)
        analysis = analyze(ideal)
        v = analysis.verdict
        assert analysis.sigma == OrbitSet(True, False)
        assert (v.predicted, v.observed) == ("exists_equal", "exists_equal")
        assert dim1_selector(ideal).equals_sigma


class TestDimZeroProperty:
    def test_no_subset_mixes_pure_blocks(self, fixture_a, population):
        # with a point singular locus on a non-hypersurface, no full-rank
        # subset produces both a pure x-block and a pure z-block minor
        cases = [fixture_a] + [
            (vs, ideal) for vs, ideal in population
            if singular_locus(ideal).dimension == 0
            and not classify_ci(ideal)[0]]
        assert cases
        for vs, ideal in cases:
            x = set(vs.x_indices)
            z = set(vs.z_indices)
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                if rank(chosen) < vs.r:
                    continue
                supports = [set(i for i, e in enumerate(exp) if e)
                            for _, _, exp in subset_minors(chosen, ideal)[0]]
                has_pure_x = any(s <= x for s in supports)
                has_pure_z = any(s <= z for s in supports)
                assert not (has_pure_x and has_pure_z)


class TestContainment:
    def test_sigma_inside_every_zero_locus(self, population):
        for vs, ideal in population[:20]:
            sigma = singular_locus(ideal)
            for report in search_all_subsets(ideal):
                if report.rank_ok:
                    assert sup.contains(report.zero_locus, sigma)


# the surfaces of the ideal benchmark, under lex
IDEAL_SURFACES = [[(11, 0), (12, 0), (13, 0), (1, 1), (0, 11)],
                  [(7, 0), (8, 0), (9, 0), (10, 0), (1, 1), (0, 7)],
                  [(2, 0), (1, 2), (4, 2), (4, 3), (1, 3)],
                  [(2, 0), (1, 4), (3, 2), (4, 3), (0, 2)]]
S7 = [(5, 0), (6, 0), (7, 0), (0, 5), (0, 6), (0, 7), (1, 1)]


@pytest.fixture(scope="module")
def small_sets():
    """Every valid 3-4 point set of [0,3]^2."""
    return sup.box_semigroups(3, (3, 4))


@pytest.fixture(scope="module")
def five_point_sets():
    """Every valid 5-point set of [0,3]^2."""
    return sup.box_semigroups(3, (5,))


def rule_matches_oracle(analysis, vs) -> int:
    """Assert that each full-rank report's zero locus, by the height rule,
    is zero_locus of its minors; returns how many were checked."""
    checked = 0
    for r, minors in zip(analysis.reports, analysis.minors(), strict=True):
        if r.rank_ok:
            assert r.zero_locus == zero_locus(minors, vs), r.subset
            checked += 1
    return checked


class TestHeightRule:
    def test_small_sets(self, small_sets):
        # both orders and both families of every valid 3-4 point set
        checked = 0
        for vs in small_sets:
            for kind in ORDERS:
                ideal = toric_ideal(vs, kind)
                for family in ("minimal", "groebner"):
                    checked += rule_matches_oracle(analyze(ideal, family), vs)
        assert len(small_sets) == 754
        assert checked == 10292

    def test_fixtures_and_s7(self, fixture_a, fixture_b, fixture_c):
        checked = 0
        for vs, ideal in (fixture_a, fixture_b, fixture_c):
            for family in ("minimal", "groebner"):
                checked += rule_matches_oracle(analyze(ideal, family), vs)
        vs, ideal = sup.build(S7)
        s7 = rule_matches_oracle(analyze(ideal), vs)
        assert checked > 0 and s7 > 5000

    def test_wrong_rule_refused(self, fixture_b, monkeypatch):
        # every subset read as vanishing on no orbit: the analysis's one
        # comparison with zero_locus refuses it before the edge check
        _, ideal = fixture_b
        monkeypatch.setattr(nash, "_LOCI",
                            ((OrbitSet(False, False),) * 2,) * 2)
        with pytest.raises(InvariantViolation, match="^height rule and "
                                                     "zero_locus disagree"):
            analyze(ideal)

    def test_probe_is_witness(self, fixture_c, monkeypatch):
        # the comparison reads the witness's minors, and zero_locus keeps
        # its constant-minor refusal on that path
        _, ideal = fixture_c
        probed = []
        expand = nash._expand

        def watched(pairs, coords, normal_forms, c_s, base):
            probed.append(base)
            return expand(pairs, coords, normal_forms, c_s, base)

        monkeypatch.setattr(nash, "_expand", watched)
        a = analyze(ideal)
        assert probed == [a.witness.base]
        monkeypatch.setattr(nash, "_expand", lambda *args: [
            ((0, 1), 1, (0,) * ideal.semigroup.N)])
        with pytest.raises(InvariantViolation, match="constant minor"):
            analyze(ideal)

    @pytest.mark.parametrize("points", [CYC6, sup.FIXTURE_B, EXISTS])
    def test_no_monomial_records(self, points):
        # analyze and the three writers hold each minor as a bare
        # (selection, coefficient, exponent) triple, and a second build
        # gives the same analysis and outputs
        spec = InputSpec(tuple(points))
        rep = build_report(spec)
        outputs = (cli.report_json(rep), cli.report_text(rep))
        assert {type(m) for minors in rep.analysis.minors()
                for m in minors} == {tuple}
        again = build_report(spec)
        assert again.analysis == rep.analysis
        assert (cli.report_json(again), cli.report_text(again)) == outputs
        cli.write_report_json(again, io.StringIO())

    def test_reports_hold_no_minors(self, fixture_b):
        assert nash.NashReport._fields == (
            "subset", "c_s", "base", "zero_locus", "equals_sigma",
            "fallbacks")
        for r in analyze(fixture_b[1]).reports:
            assert r.rank_ok == (r.c_s != 0)
            assert (r.base is None) == (not r.rank_ok)


class TestPredict:
    @staticmethod
    def _agrees(vs, analysis):
        sigma, predicted, answer = tn.predict(vs)
        assert analysis.sigma == sigma
        assert predicted == analysis.verdict.predicted
        assert answer == any(r.equals_sigma for r in analysis.reports
                             if r.rank_ok)
        return predicted

    def test_fixtures_and_bench_surfaces(self, fixture_a, fixture_b,
                                         fixture_c):
        inputs = [fixture_a, fixture_b, fixture_c] + sweep_ideals() + [
            sup.build(points) for points in IDEAL_SURFACES]
        seen = Counter()
        for vs, ideal in inputs:
            for family in ("minimal", "groebner"):
                seen[self._agrees(vs, analyze(ideal, family))] += 1
        assert set(seen) == {"never_equal", "exists_equal", "always_equal"}

    def test_small_sets(self, small_sets, five_point_sets):
        # every valid 3-5 point set, both orders, both families
        seen = Counter()
        for vs in small_sets + five_point_sets:
            for kind in ORDERS:
                ideal = toric_ideal(vs, kind)
                for family in ("minimal", "groebner"):
                    seen[self._agrees(vs, analyze(ideal, family))] += 1
        assert len(five_point_sets) == 578
        assert sum(seen.values()) == 4 * (754 + 578)
        assert set(seen) == {"never_equal", "exists_equal", "always_equal",
                             "out_of_scope"}

    # an edge's orbit is singular when its generators share a factor or no
    # generator lies at height 1 above it; the last seven are the probes
    # whose analysis runs for seconds or more, which predict answers at once
    RULE_CASES = {
        ((1, 0), (1, 1), (1, 2)): ("out_of_scope", True),
        tuple(sup.FIXTURE_A): ("never_equal", False),
        tuple(sup.FIXTURE_B): ("always_equal", True),
        tuple(sup.FIXTURE_C): ("exists_equal", True),
        # edges (3,-2), no point at height 1 (heights 11, 16, 17, 10^4),
        # and (-10^4,10^4), a multiple: both singular
        ((3, -2), (-5, 9), (4, 1), (-10**4, 10**4), (5, 2)):
            ("always_equal", True),
        # edges (1,0) and (0,200),(0,201), coprime; (1,1) and (1,0) lie at
        # height 1: a point, N = 7
        ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 200), (0, 201)):
            ("never_equal", False),
        # edges (2^63,10^30), a multiple of 2^30, and (-1,-1), whose
        # nearest point (-3,-1) lies at height 2: both singular
        ((2**63, 10**30), (-3, 0), (-3, -1), (-1, -1)):
            ("always_equal", True),
        # edges (1,0) and (0,1000),(0,1001), coprime, with (1,1) and
        # (1,0) at height 1: a point, N = 4
        ((1, 0), (1, 1), (0, 1000), (0, 1001)): ("never_equal", False),
        # axes-60: coprime 60, 61 on both axes, (1,1) at height 1 above
        # each: a point, N = 5
        ((60, 0), (61, 0), (0, 60), (0, 61), (1, 1)): ("never_equal", False),
        # cyc10 and cyc11: primitive edges (1,0), (1,k) with (1,1) and
        # (1,k-1) at height 1: a point, N >= 4
        tuple((1, j) for j in range(10)): ("never_equal", False),
        tuple((1, j) for j in range(11)): ("never_equal", False)}

    def test_rule(self):
        for points, want in self.RULE_CASES.items():
            start = time.perf_counter()
            vs = validate(list(points))
            assert tn.predict(vs)[1:] == want, points
            assert time.perf_counter() - start < 1.0, points
