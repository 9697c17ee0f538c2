import dataclasses
import itertools
import random

import pytest

import toricnash as tn
from toricnash import algebra, ideal as ideal_mod, nash
from toricnash.algebra import (
    Monomial,
    Polynomial,
    degrevlex_order,
    derivative,
    determinant,
    lex_order,
)
from toricnash.errors import (
    InvariantViolation,
    NonMonomialResidue,
    RankDeficient,
    SigmaDimensionError,
)
from toricnash.ideal import GroebnerBasis, monomial_nf, normal_form, toric_ideal
from toricnash.nash import (
    OrbitSet,
    analyze,
    classify_ci,
    dim1_selector,
    int_det,
    int_rank,
    jacobian_minor_terms,
    minor_monomial_formula,
    minor_symbolic,
    nash_ideal,
    nash_ideal_classes,
    orbit_representatives,
    rank,
    search_all_subsets,
    singular_locus,
    subset_minors,
    verify_dichotomy,
    zero_locus,
)
from toricnash.semigroup import generator_set, validate

import _support as sup

A_ROWS = sup.binomials(sup.IDEAL_A)  # paper order: f1, f2, f3


class TestIntLinearAlgebra:
    def test_det_examples(self):
        assert int_det([[1, -2], [1, -1]]) == 1
        assert int_det([[2, 0], [0, 3]]) == 6
        assert int_det([[1, 2], [2, 4]]) == 0

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
            assert int_det(m) == brute

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
        mono = minor_monomial_formula(A_ROWS[:2], (2, 3), ideal)
        assert mono.coeff == 1
        assert sup.nf_exponent(mono.exp, ideal) == \
            sup.nf_exponent((0, 1, 0, 1), ideal)

    def test_zero_when_det_vanishes(self, fixture_c):
        _, ideal = fixture_c
        fam = sup.binomials(sup.IDEAL_C)
        # rows 1,2; deleting the z columns leaves a singular 2x2 block
        assert minor_monomial_formula(fam[:2], (2, 3), ideal) is None
        assert minor_symbolic(fam[:2], (2, 3), ideal).is_zero()

    def test_symbolic_known_case(self, fixture_a):
        _, ideal = fixture_a
        reduced = minor_symbolic(A_ROWS[:2], (2, 3), ideal)
        assert reduced == Polynomial.from_monomial(1, (0, 0, 2, 0))

    def test_fallback_recorded(self, fixture_a):
        _, ideal = fixture_a
        stats = {}
        minor_monomial_formula(A_ROWS[:2], (0, 2), ideal, stats)
        assert stats.get("formula_fallbacks") == 1

    def test_oracle_equivalence_fixture_a(self, fixture_a):
        _, ideal = fixture_a
        for pair in itertools.combinations(range(3), 2):
            chosen = [A_ROWS[i] for i in pair]
            for sel in itertools.combinations(range(4), 2):
                sym = minor_symbolic(chosen, sel, ideal)
                fast = minor_monomial_formula(chosen, sel, ideal)
                if fast is None:
                    assert sym.is_zero()
                else:
                    poly = Polynomial.from_monomial(fast.coeff, fast.exp)
                    assert normal_form(poly, ideal.gb) == sym


EXISTS = [(7, 0), (9, 0), (3, 1), (7, 4), (6, 6)]
CYC6 = [(1, j) for j in range(6)]


class TestSparseMinor:
    @pytest.mark.parametrize("points", [sup.FIXTURE_A, sup.FIXTURE_B,
                                        sup.FIXTURE_C, EXISTS])
    def test_laplace_equals_determinant(self, points):
        # every r-subset of the minimal generators, full rank or not, and
        # every deleted column pair: the unreduced minor, term for term
        vs, ideal = sup.build(points)
        fam = ideal.minimal_gens
        checked = 0
        for subset in itertools.combinations(fam, vs.r):
            for sel in itertools.combinations(range(vs.N), 2):
                cols = [i for i in range(vs.N) if i not in sel]
                det = determinant([[derivative(f, i) for i in cols]
                                   for f in subset])
                assert jacobian_minor_terms(subset, cols) == det.terms, \
                    (points, subset, sel)
                checked += 1
        assert checked == (len(list(itertools.combinations(fam, vs.r)))
                           * vs.N * (vs.N - 1) // 2)

    def test_non_square_refused(self):
        with pytest.raises(tn.NotSquare):
            jacobian_minor_terms(A_ROWS[:1], [1, 2])
        with pytest.raises(tn.NotSquare):
            jacobian_minor_terms([], [])

    @pytest.mark.parametrize("make_order", [lex_order, degrevlex_order])
    def test_monomial_nf_matches_normal_form(self, make_order):
        rng = random.Random(31)
        for points in (sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C, EXISTS):
            vs = validate(generator_set(points))
            ideal = toric_ideal(vs, make_order(vs.N))
            for _ in range(200):
                exp = tuple(rng.randint(0, 6) for _ in range(vs.N))
                want = normal_form(Polynomial.from_monomial(1, exp),
                                   ideal.gb).single_term().exp
                assert monomial_nf(exp, ideal.gb.elements) == want, exp

    @pytest.mark.parametrize("points", [CYC6, sup.FIXTURE_B])
    def test_analyze_without_symbolic_algebra(self, monkeypatch, points):
        _, ideal = sup.build(points)
        expected = analyze(ideal)
        assert expected.fallbacks > 0

        def refuse(*args, **kwargs):
            raise AssertionError("symbolic algebra in the sweep")

        for module, name in ((algebra, "determinant"), (nash, "determinant"),
                             (nash, "minor_symbolic"),
                             (ideal_mod, "normal_form"),
                             (nash, "normal_form")):
            monkeypatch.setattr(module, name, refuse)
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Polynomial, name, refuse)
        assert analyze(ideal) == expected

    # rows f1, f2 of fixture A without columns 0 and 3: the closed form has
    # a negative exponent, so the minor goes through the integer path, and
    # its two unreduced terms x2^2 and x1x3 share one normal form
    def test_fallback_checks_non_monomial(self, fixture_a):
        _, ideal = fixture_a
        bare = GroebnerBasis(ideal.order, ())  # nothing reduces
        with pytest.raises(NonMonomialResidue):
            minor_monomial_formula(A_ROWS[:2], (0, 3),
                                   dataclasses.replace(ideal, gb=bare))

    def test_fallback_checks_zero(self, fixture_a, monkeypatch):
        _, ideal = fixture_a
        monkeypatch.setattr(nash, "jacobian_minor_terms", lambda *a: {})
        with pytest.raises(InvariantViolation, match="reduced to zero"):
            minor_monomial_formula(A_ROWS[:2], (0, 3), ideal)

    def test_fallback_checks_coefficient(self, fixture_a, monkeypatch):
        _, ideal = fixture_a
        monkeypatch.setattr(nash, "jacobian_minor_terms", lambda *a: {
            e: 2 * c for e, c in jacobian_minor_terms(*a).items()})
        with pytest.raises(InvariantViolation, match="coefficient differs"):
            minor_monomial_formula(A_ROWS[:2], (0, 3), ideal)

    def test_nf_memo_filled(self, fixture_a):
        _, ideal = fixture_a
        memo = {}
        mono = minor_monomial_formula(A_ROWS[:2], (0, 3), ideal, None, memo)
        assert memo and set(memo.values()) == {mono.exp}
        assert minor_monomial_formula(A_ROWS[:2], (0, 3), ideal) == mono


class TestNashIdeal:
    def test_j12(self, fixture_a):
        _, ideal = fixture_a
        assert nash_ideal_classes(A_ROWS[:2], ideal) == \
            sup.nf_classes(sup.J12, ideal)

    def test_j13(self, fixture_a):
        _, ideal = fixture_a
        assert nash_ideal_classes([A_ROWS[0], A_ROWS[2]], ideal) == \
            sup.nf_classes(sup.J13, ideal)

    def test_j23(self, fixture_a):
        _, ideal = fixture_a
        assert nash_ideal_classes(A_ROWS[1:], ideal) == \
            sup.nf_classes(sup.J23, ideal)

    def test_rank_deficient(self, fixture_a):
        _, ideal = fixture_a
        with pytest.raises(RankDeficient):
            nash_ideal([A_ROWS[0], A_ROWS[0]], ideal)

    def test_rank_equivalence(self, population):
        # a subset reaches full rank exactly when some deleted-column
        # determinant survives
        for vs, ideal in population[:15]:
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                rows = [b.difference() for b in chosen]
                some = any(
                    int_det([[row[c] for c in range(vs.N) if c not in sel]
                             for row in rows]) != 0
                    for sel in itertools.combinations(range(vs.N), 2))
                assert some == (rank(chosen) == vs.r)


class TestZeroLocus:
    def test_j12_case(self, fixture_a):
        vs, ideal = fixture_a
        monos = nash_ideal(A_ROWS[:2], ideal)
        assert zero_locus(monos, vs) == OrbitSet(True, False)

    def test_pure_x_monomial(self, fixture_a):
        vs, _ = fixture_a
        locus = zero_locus([Monomial(1, (3, 0, 0, 0))], vs)
        assert locus == OrbitSet(True, False)

    def test_origin_only_pattern(self, fixture_a):
        vs, _ = fixture_a
        locus = zero_locus([Monomial(1, (1, 0, 0, 0)),
                            Monomial(1, (0, 0, 0, 1))], vs)
        assert locus == OrbitSet(False, False)
        assert locus.dimension == 0

    def test_empty(self, fixture_a):
        vs, _ = fixture_a
        with pytest.raises(tn.EmptyIdeal):
            zero_locus([], vs)

    def test_vanishing_matches_evaluation(self, population):
        # the block-support reading must agree with literal evaluation at
        # the orbit representatives
        for vs, ideal in population[:10]:
            reps = orbit_representatives(vs)
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                if rank(chosen) < vs.r:
                    continue
                monos = nash_ideal(chosen, ideal)
                locus = zero_locus(monos, vs)
                all_o1 = all(
                    Polynomial.from_monomial(m.coeff, m.exp)
                    .evaluate(reps["O1"]) == 0 for m in monos)
                all_o2 = all(
                    Polynomial.from_monomial(m.coeff, m.exp)
                    .evaluate(reps["O2"]) == 0 for m in monos)
                assert locus == OrbitSet(all_o1, all_o2)

    def test_congruent_monomials_same_pattern(self, population):
        # normal forms never change the zero pattern at representatives
        for vs, ideal in population[:10]:
            reps = orbit_representatives(vs)
            fam = ideal.minimal_gens
            for subset in itertools.combinations(range(len(fam)), vs.r):
                chosen = [fam[i] for i in subset]
                if rank(chosen) < vs.r:
                    continue
                for m in nash_ideal(chosen, ideal):
                    nf = sup.nf_exponent(m.exp, ideal)
                    for rep in reps.values():
                        a = Polynomial.from_monomial(1, m.exp).evaluate(rep)
                        b = Polynomial.from_monomial(1, nf).evaluate(rep)
                        assert (a == 0) == (b == 0)


class TestSingularLocus:
    def test_fixture_a(self, fixture_a):
        _, ideal = fixture_a
        sig = singular_locus(ideal)
        assert sig.orbits == OrbitSet(False, False)
        assert sig.origin_singular

    def test_fixture_b(self, fixture_b):
        _, ideal = fixture_b
        assert singular_locus(ideal).orbits == OrbitSet(True, True)

    def test_fixture_c(self, fixture_c):
        _, ideal = fixture_c
        assert singular_locus(ideal).orbits == OrbitSet(False, True)

    def test_family_independent(self, population):
        for _, ideal in population[:10]:
            a = singular_locus(ideal, ideal.minimal_gens)
            b = singular_locus(ideal, ideal.gb.elements)
            assert a == b


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
        locus = zero_locus(nash_ideal(rows, ideal), vs)
        assert locus == OrbitSet(False, True)
        assert locus == singular_locus(ideal).orbits

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
        # sigma is the x-axis closure here, so a pure z-block minor exists
        z = set(vs.z_indices)
        assert any(
            set(i for i, e in enumerate(m.exp) if e) <= z
            for _, _, m in report.minors)


class TestAnalysis:
    def test_matches_entry_points(self, fixture_a, fixture_b, fixture_c):
        for _, ideal in (fixture_a, fixture_b, fixture_c):
            for family in ("minimal", "groebner"):
                a = analyze(ideal, family)
                assert a.sigma == singular_locus(ideal)
                assert list(a.reports) == search_all_subsets(ideal, family)
                assert a.verdict == verify_dichotomy(ideal, family)
                assert (a.is_hypersurface, a.is_complete_intersection) == \
                    classify_ci(ideal)

    def test_witness_is_dim1_selector(self, fixture_b, fixture_c):
        for _, ideal in (fixture_b, fixture_c):
            assert analyze(ideal).verdict.witness == \
                dim1_selector(ideal).subset

    def test_fallbacks_counted_once(self, fixture_a):
        _, ideal = fixture_a
        stats = {}
        for report in search_all_subsets(ideal):
            subset_minors([ideal.minimal_gens[i] for i in report.subset],
                          ideal, stats)
        assert analyze(ideal).fallbacks == stats["formula_fallbacks"] > 0


class TestClassifyCI:
    def test_fixture_a(self, fixture_a):
        assert classify_ci(fixture_a[1]) == (False, False)

    def test_hypersurface(self):
        vs = validate(generator_set([(1, 0), (1, 1), (1, 2)]))
        assert classify_ci(toric_ideal(vs)) == (True, True)

    def test_fixture_b(self, fixture_b):
        assert classify_ci(fixture_b[1]) == (False, False)


class TestVerdicts:
    def test_fixture_a(self, fixture_a):
        v = verify_dichotomy(fixture_a[1])
        assert (v.predicted, v.observed) == ("never_equal", "never_equal")
        assert v.witness is None

    def test_fixture_b(self, fixture_b):
        v = verify_dichotomy(fixture_b[1])
        assert (v.predicted, v.observed) == ("always_equal", "always_equal")
        assert v.witness is not None

    def test_fixture_c(self, fixture_c):
        v = verify_dichotomy(fixture_c[1])
        assert (v.predicted, v.observed) == ("exists_equal", "exists_equal")
        assert v.witness == (0, 1)

    def test_hypersurface_out_of_scope(self):
        vs = validate(generator_set([(1, 0), (1, 1), (1, 2)]))
        v = verify_dichotomy(toric_ideal(vs))
        assert v.predicted == "out_of_scope"
        assert v.is_complete_intersection

    def test_hypersurface_minors_cut_origin(self):
        # for the complete-intersection case the minor ideal of the single
        # defining equation still cuts out exactly the singular point
        vs = validate(generator_set([(1, 0), (1, 1), (1, 2)]))
        ideal = toric_ideal(vs)
        monos = nash_ideal(list(ideal.minimal_gens), ideal)
        assert zero_locus(monos, vs) == singular_locus(ideal).orbits

    def test_family_agreement(self, population):
        for _, ideal in population[:10]:
            a = verify_dichotomy(ideal, family="minimal")
            b = verify_dichotomy(ideal, family="groebner")
            assert (a.predicted, a.observed) == (b.predicted, b.observed)

    def test_empty_interior_block(self):
        # no interior generators: the y block is empty and everything
        # degenerates gracefully
        vs = validate(generator_set([(2, 0), (3, 0), (0, 1)]))
        ideal = toric_ideal(vs)
        v = verify_dichotomy(ideal)
        assert v.sigma == OrbitSet(True, False)
        assert (v.predicted, v.observed) == ("exists_equal", "exists_equal")
        assert dim1_selector(ideal).equals_sigma


class TestDimZeroProperty:
    def test_no_subset_mixes_pure_blocks(self, fixture_a, population):
        # with a point singular locus on a non-hypersurface, no full-rank
        # subset produces both a pure x-block and a pure z-block minor
        cases = [fixture_a] + [
            (vs, ideal) for vs, ideal in population
            if singular_locus(ideal).orbits.dimension == 0
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
                supports = [set(i for i, e in enumerate(m.exp) if e)
                            for m in nash_ideal(chosen, ideal)]
                has_pure_x = any(s <= x for s in supports)
                has_pure_z = any(s <= z for s in supports)
                assert not (has_pure_x and has_pure_z)


class TestContainment:
    def test_sigma_inside_every_zero_locus(self, population):
        for vs, ideal in population[:20]:
            sigma = singular_locus(ideal).orbits
            for report in search_all_subsets(ideal):
                if report.rank_ok:
                    assert report.zero_locus.contains(sigma)
