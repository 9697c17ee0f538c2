import hashlib
import itertools
import random
from collections import Counter
from math import gcd
from operator import le, mul

import pytest

import toricnash as tn
from toricnash.algebra import ORDERS, Binomial, TermOrder, binomial_from_vector
from toricnash import ideal as ideal_mod
from toricnash.errors import InvariantViolation, LengthMismatch, NotMinimal
from toricnash.ideal import (
    GroebnerBasis,
    _check_no_unit_sides,
    _forcing_variables,
    _lll_reduce,
    _saturate_elements,
    buchberger,
    lattice_kernel,
    minimal_generators,
    monomial_nf,
    normal_form,
    toric_ideal,
)
from toricnash.semigroup import LatticePoint, ValidatedSemigroup, validate

import _support as sup


class TestLatticeKernel:
    def test_fixture_a_properties(self, fixture_a):
        vs, _ = fixture_a
        basis = lattice_kernel(vs)
        assert len(basis) == 2
        for v in basis:
            assert sup.pi(vs, [max(x, 0) for x in v]) == \
                sup.pi(vs, [max(-x, 0) for x in v])

    def test_fixture_a_spans_known_vectors(self, fixture_a):
        vs, _ = fixture_a
        basis = lattice_kernel(vs)
        for v in ((1, -2, 1, 0), (0, 1, -2, 1), (1, -1, -1, 1)):
            assert sup.in_integer_span(basis, v)

    def test_rank_one_case(self):
        vs = validate([(1, 0), (1, 2), (1, 1)])
        basis = lattice_kernel(vs)
        assert len(basis) == 1
        assert basis[0] in ((1, -2, 1), (-1, 2, -1))

    def test_spans_brute_force_kernel(self, population):
        # every small integer relation must lie in the span of the basis
        import itertools
        checked = 0
        for vs, _ in population:
            if vs.N > 4:
                continue
            basis = lattice_kernel(vs)
            pts = vs.points
            for v in itertools.product(range(-2, 3), repeat=vs.N):
                if sum(c * p.u for c, p in zip(v, pts)) == 0 and \
                        sum(c * p.v for c, p in zip(v, pts)) == 0:
                    if any(v):
                        assert sup.in_integer_span(basis, v)
                        checked += 1
            if checked > 40:
                break
        assert checked >= 1

    def test_content_one(self, population):
        from math import gcd
        for vs, _ in population:
            for v in lattice_kernel(vs):
                g = 0
                for x in v:
                    g = gcd(g, abs(x))
                assert g == 1


class TestLLL:
    # mu is an exact half-odd tie (3/2 or -3/2) in each of these; rounding
    # -3/2 up instead of to even changes the reduced basis of the second
    # and fourth
    TIES = [[(2, 0), (3, 1)], [(2, 0), (-3, 1)], [(4, 0), (-6, 1)],
            [(2, 0, 0), (0, 1, 0), (-3, 0, 1)]]

    def test_matches_fraction_gram_schmidt(self):
        rng = random.Random(11)
        bases = list(self.TIES)
        while len(bases) < 400:
            n = rng.randint(1, 5)
            v = [tuple(rng.randint(-9, 9) for _ in range(rng.randint(n, 6)))
                 for _ in range(n)]
            if len(set(map(len, v))) == 1 and sup.fraction_rank(v) == n:
                bases.append(v)
        for v in bases:
            assert _lll_reduce(v) == sup.fraction_lll(v)

    def test_half_even_ties(self):
        assert _lll_reduce(self.TIES[1]) == [(1, 1), (1, -1)]
        assert _lll_reduce(self.TIES[2]) == [(2, 1), (0, -2)]

    def test_kernel_inputs(self, population, monkeypatch):
        inputs = []

        def recorded(vectors):
            inputs.append([tuple(v) for v in vectors])
            return _lll_reduce(vectors)

        monkeypatch.setattr(ideal_mod, "_lll_reduce", recorded)
        surfaces = [vs for vs, _ in population]
        surfaces += [validate(p) for p in IDEAL_BENCH + [S7]]
        for vs in surfaces:
            lattice_kernel(vs)
        assert len(inputs) == len(surfaces)
        for v in inputs:
            assert _lll_reduce(v) == sup.fraction_lll(v)

    def test_dependent_basis_raises(self):
        with pytest.raises(InvariantViolation):
            _lll_reduce([(1, 2, 0), (2, 4, 0)])

    def test_kernels_unchanged(self, fixture_a, fixture_b, fixture_c):
        s7 = validate(S7)
        assert lattice_kernel(fixture_a[0]) == (
            (1, -2, 1, 0), (1, -1, -1, 1))
        assert lattice_kernel(fixture_b[0]) == (
            (1, 0, -1, -1, 2), (2, 0, -2, 3, 0), (3, -2, 0, 0, 0))
        assert lattice_kernel(fixture_c[0]) == (
            (1, -2, -2, 2), (1, -2, 3, -1))
        assert lattice_kernel(s7) == (
            (0, 1, -1, 1, -3, 0, 2), (0, 1, -1, 1, 1, -1, 0),
            (1, -2, 1, 0, 0, 0, 0), (1, -1, 0, 1, 0, 1, -1),
            (2, 1, -2, -2, -1, 0, 1))


class TestBuchberger:
    def test_fixture_a_generators_already_basis(self):
        order = TermOrder("lex", 4)
        gens = sup.binomials(sup.IDEAL_A)
        gb = buchberger(gens, order)
        assert set((b.plus, b.minus) for b in gb.elements) == \
            set(sup.IDEAL_A)

    def test_single_binomial(self):
        order = TermOrder("lex", 3)
        b = Binomial((2, 0, 0), (0, 1, 1))
        gb = buchberger([b], order)
        assert gb.elements == (b,)

    def test_linear_chain_reduces(self):
        order = TermOrder("lex", 3)
        gens = [Binomial((1, 0, 0), (0, 1, 0)), Binomial((0, 1, 0), (0, 0, 1))]
        gb = buchberger(gens, order)
        assert set((b.plus, b.minus) for b in gb.elements) == {
            ((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1))}

    def test_reducedness(self, population):
        for _, ideal in population[:20]:
            elems = ideal.gb.elements
            for i, b in enumerate(elems):
                for j, c in enumerate(elems):
                    if i != j:
                        assert not all(map(le, c.plus, b.plus))
                        assert not all(map(le, c.plus, b.minus))

    def test_canonical_under_regeneration(self, fixture_b):
        _, ideal = fixture_b
        rng = random.Random(1)
        elems = list(ideal.minimal_gens)
        for _ in range(3):
            rng.shuffle(elems)
            gb = buchberger(elems, ideal.gb.order)
            assert gb.elements == ideal.gb.elements

    def test_wrong_length_input_refused(self):
        # the first input is live when the second arrives; reducing the
        # second against it would cut its sides to three entries.  First,
        # the long input meets no live element, only the order's key
        gens = [Binomial((1, 0, 0), (0, 1, 0)),
                Binomial((1, 0, 0, 1), (1, 1, 0, 0))]
        for inputs in (gens, gens[::-1]):
            with pytest.raises(LengthMismatch):
                buchberger(inputs, TermOrder("lex", 3))

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_matches_plain_buchberger(self, kind):
        # random binomial families, which need be neither prime nor
        # homogeneous, plus fixed ones: two non-prime, then inputs that
        # reduce on entry against the inputs before them
        rng = random.Random(3)
        families = [
            [Binomial((2, 0, 0), (0, 2, 0))],
            [Binomial((1, 1, 0), (1, 0, 1)), Binomial((0, 2, 0), (0, 0, 2))],
            # a duplicated input
            [Binomial((1, 1, 0), (0, 0, 2)), Binomial((0, 2, 1), (1, 0, 0)),
             Binomial((1, 1, 0), (0, 0, 2))],
            # one binomial in both orientations
            [Binomial((2, 0, 1), (0, 1, 0)), Binomial((0, 1, 0), (2, 0, 1))],
            # the later input's leading term divides the earlier one's
            [Binomial((2, 1, 0), (0, 0, 1)), Binomial((1, 1, 0), (0, 1, 1))],
            # the third input reduces to zero
            [Binomial((1, 0, 0), (0, 1, 0)), Binomial((0, 1, 0), (0, 0, 1)),
             Binomial((1, 0, 0), (0, 0, 1))],
            [],
        ]
        for _ in range(120):
            families.append(sup.random_binomial_family(
                rng, rng.choice((3, 4)), rng.randint(2, 4)))
        for fam in families:
            order = TermOrder(kind, fam[0].nvars if fam else 3)
            gb = buchberger(fam, order)
            assert gb.elements == sup.plain_buchberger(fam, order).elements
            sup.assert_reduced_groebner(fam, gb)

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_toric_calls_match_oracles(self, monkeypatch, kind):
        # every Buchberger call of toric_ideal: the weighted-degrevlex
        # saturation steps and the final basis, on real toric inputs;
        # |sigma| + 1 calls each, sigma being two variables on fixture C
        # and the first two surfaces of IDEAL_BENCH and one on the rest;
        # only the final run passes lattice
        calls = []

        def recording(gens, order, lattice=False):
            gens = list(gens)
            gb = buchberger(gens, order, lattice)
            calls.append((gens, gb, lattice))
            return gb

        monkeypatch.setattr(ideal_mod, "buchberger", recording)
        surfaces = ([sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C]
                    + IDEAL_BENCH + [IDEAL_LEFT_OUT])
        for points in surfaces:
            vs = validate(points)
            toric_ideal(vs, kind)
            assert calls[-1][2] is True
        assert len(calls) == 19
        assert sum(lattice for _, _, lattice in calls) == len(surfaces)
        for gens, gb, _ in calls:
            assert gb.elements == \
                sup.plain_buchberger(gens, gb.order).elements
            sup.assert_reduced_groebner(gens, gb)

    def test_reduces_against_live_list_only(self, monkeypatch):
        # an element whose leading term a later element's leading term
        # divides has left the live list; no reduction may use it
        lists = []

        def recording(exp, reducers):
            lists.append([plus for _, _, plus, _ in reducers])
            return monomial_nf(exp, reducers)

        monkeypatch.setattr(ideal_mod, "monomial_nf", recording)
        toric_ideal(validate(IDEAL_BENCH[2]))
        assert lists
        for leading in lists:
            for i, b_plus in enumerate(leading):
                assert not any(all(map(le, c_plus, b_plus))
                               for c_plus in leading[i + 1:])

    def test_entries_degree_first(self, monkeypatch):
        # pairs go by the degree of their lcm first and, in the final run,
        # skip S-binomials whose sides share a variable: the final lex run
        # of ideal-bench buchberger-a and -b enters 30 and 15 binomials
        # (386 and 226 taking the lex-smallest lcm first, 95 and 46
        # without the skip); x_4 forces on both, so one weighted-degrevlex
        # saturation step precedes it.  Each entry takes two monomial_nf
        # calls and each returned element one more.
        runs = []
        nf, run_buchberger = monomial_nf, buchberger

        def counting(exp, reducers):
            runs[-1][1] += 1
            return nf(exp, reducers)

        def recording(gens, order, lattice=False):
            runs.append([order.kind, 0])
            gb = run_buchberger(gens, order, lattice)
            runs[-1][1] -= len(gb.elements)
            return gb

        monkeypatch.setattr(ideal_mod, "monomial_nf", counting)
        monkeypatch.setattr(ideal_mod, "buchberger", recording)
        entered = []
        for points in IDEAL_BENCH[2:]:
            runs.clear()
            toric_ideal(validate(points))
            entered.append([(kind, calls / 2) for kind, calls in runs])
        a, b = entered
        assert a == [("degrevlex", 24), ("lex", 30)]
        assert b == [("degrevlex", 16), ("lex", 15)]


class TestLatticeWeights:
    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_final_runs_match_plain_buchberger(self, monkeypatch, kind):
        # every final-run input toric_ideal builds for the 3-5 point sets
        # of [0,3]^2: the skip changes no basis
        finals = []

        def recording(gens, order, lattice=False):
            gens = list(gens)
            if lattice:
                finals.append((gens, order))
            return buchberger(gens, order, lattice)

        monkeypatch.setattr(ideal_mod, "buchberger", recording)
        surfaces = sup.box_semigroups(3, range(3, 6))
        for vs in surfaces:
            toric_ideal(vs, kind)
        assert len(finals) == len(surfaces) == 1332
        for gens, order in finals:
            gb = buchberger(gens, order, True)
            assert gb.elements == sup.plain_buchberger(gens, order).elements
            sup.assert_reduced_groebner(gens, gb)

    def test_unsaturated_input_loses_elements(self):
        # the precondition is real: on the kernel binomials of
        # (2,0),(3,0),(1,1),(0,1), before saturation, the skip drops two
        # of the four basis elements
        vs = validate([(2, 0), (3, 0), (1, 1), (0, 1)])
        gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
        order = TermOrder("lex", vs.N)
        plain = buchberger(gens, order)
        assert plain.elements == sup.plain_buchberger(gens, order).elements
        assert len(plain.elements) == 4
        skipped = buchberger(gens, order, True)
        assert len(skipped.elements) == 2
        saturated = _saturate_elements(
            gens, _forcing_variables(gens, vs.N), vs.degree_weights)
        assert buchberger(saturated, order, True).elements == \
            buchberger(saturated, order).elements


class TestReducerRows:
    @staticmethod
    def _bases(population, kind):
        surfaces = [vs for vs, _ in population]
        surfaces += [validate(p) for p in
                     (sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C)]
        return [toric_ideal(vs, kind).gb for vs in surfaces]

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_monomial_nf_matches_rewrite(self, population, kind):
        # the pivot prefilter picks the same first divisor as the plain
        # scan of sup._rewrite, so every normal form agrees
        rng = random.Random(14)
        for gb in self._bases(population, kind):
            for _ in range(40):
                exp = tuple(rng.randint(0, 6) for _ in range(gb.nvars))
                assert monomial_nf(exp, gb.reducers) == \
                    sup._rewrite(exp, gb.elements), (gb, exp)

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_rows_describe_elements(self, population, kind):
        # one row per element, in order; the pivot is a largest entry of
        # plus and positive, so the prefilter never rejects a divisor
        for gb in self._bases(population, kind):
            assert len(gb.reducers) == len(gb.elements)
            for (i, p, plus, delta), b in zip(gb.reducers, gb.elements):
                assert plus == b.plus
                assert tuple(x + d for x, d in zip(plus, delta)) == b.minus
                assert p == plus[i] == max(plus) > 0
            assert gb.reducers is gb.reducers

    def test_wrong_length_refused(self):
        # the rows' maps stop at the shorter of exp and a row, so both
        # exponents would be read cut short; normal_form refuses them, and
        # so does monomial_nf
        gb = toric_ideal(validate([(1, 0), (1, 1), (1, 2)])).gb
        assert gb.elements == (Binomial((1, 0, 1), (0, 2, 0)),)
        for exp in ((2,), (1, 0, 1, 7)):
            with pytest.raises(LengthMismatch):
                monomial_nf(exp, gb.reducers)
            with pytest.raises(LengthMismatch):
                normal_form({exp: 1}, gb)


def _saturated_basis(gens, order, weights):
    """The path toric_ideal takes: saturate, then one final basis."""
    return buchberger(
        _saturate_elements(gens, range(order.nvars), weights), order)


class TestSaturation:
    def test_strip_common_factor(self):
        order = TermOrder("lex", 3)
        # x1*x2 - x1*x3 saturated leaves x2 - x3
        sat = _saturated_basis([Binomial((1, 1, 0), (1, 0, 1))], order,
                               (1, 1, 1))
        assert [(b.plus, b.minus) for b in sat.elements] == \
            [((0, 1, 0), (0, 0, 1))]

    def test_fixed_point(self, fixture_a):
        _, ideal = fixture_a
        weights = ideal.semigroup.degree_weights
        sat = _saturated_basis(ideal.gb.elements, ideal.order, weights)
        assert sat.elements == ideal.gb.elements

    def test_lattice_basis_saturates_to_full_ideal(self, fixture_a):
        vs, ideal = fixture_a
        order = TermOrder("lex", 4)
        from toricnash.algebra import binomial_from_vector
        # a specific kernel basis whose binomial ideal is strictly smaller
        # than the saturated one
        gens = [binomial_from_vector(v)
                for v in ((1, -2, 1, 0), (0, 1, -2, 1))]
        gb = _saturated_basis(gens, order, vs.degree_weights)
        assert gb.elements == ideal.gb.elements
        # the middle relation only appears after saturation
        missing = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
        assert not sup.ideal_member(missing, buchberger(gens, order))
        assert sup.ideal_member(missing, gb)

    def test_any_kernel_basis_saturates_to_full_ideal(self, fixture_a):
        vs, ideal = fixture_a
        order = TermOrder("lex", 4)
        from toricnash.algebra import binomial_from_vector
        gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
        gb = _saturated_basis(gens, order, vs.degree_weights)
        assert gb.elements == ideal.gb.elements
        # kernel binomials enter unoriented: either side first gives it
        flipped = [Binomial(b.minus, b.plus) for b in gens]
        assert _saturated_basis(flipped, order, vs.degree_weights) == gb

    def test_one_pass(self, fixture_b, monkeypatch):
        # (I : x_i^inf) : x_j^inf = I : (x_i x_j)^inf, so one Buchberger
        # per variable saturates; a confirming second pass is dead work
        vs, ideal = fixture_b
        from toricnash.algebra import binomial_from_vector
        gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
        calls = []

        def counted(*args):
            calls.append(args)
            return buchberger(*args)

        monkeypatch.setattr(ideal_mod, "buchberger", counted)
        sat = _saturate_elements(gens, range(vs.N), vs.degree_weights)
        assert len(calls) == vs.N
        assert buchberger(sat, ideal.order).elements == ideal.gb.elements

    def test_forcing_criterion(self, fixture_a):
        # on the hand basis above, x_2 forces: x_2 != 0 makes x_1 x_3 and
        # then x_2 x_4 nonzero; x_1, x_4 and the pair of them do not, and
        # saturating by them misses the middle relation
        vs, ideal = fixture_a
        gens = [binomial_from_vector(v)
                for v in ((1, -2, 1, 0), (0, 1, -2, 1))]
        assert _forcing_variables(gens, 4) == (1,)
        missing = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
        for sigma, found in (((1,), True), ((0,), False), ((3,), False),
                             ((0, 3), False)):
            gb = buchberger(_saturate_elements(gens, sigma, vs.degree_weights),
                            ideal.order)
            assert sup.ideal_member(missing, gb) == found
            assert (gb.elements == ideal.gb.elements) == found

    def test_forcing_pair(self):
        # no single variable forces on this surface of the sweep workload
        vs = validate([(7, 0), (9, 0), (3, 1), (7, 4), (6, 6)])
        gens = [binomial_from_vector(v) for v in lattice_kernel(vs)]
        assert _forcing_variables(gens, vs.N) == (0, 2)
        assert sup.check_toric_ideals([vs]) == 1

    def test_forcing_all_variables(self):
        # x0 x1 x2 - x3 x4 x5 and x0 x3 x6 - x1 x4 x7: a closure grows only
        # once it holds a whole side, no pair holds one, so no variable or
        # pair forces and the fallback saturates by all eight
        basis = [Binomial((1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 0, 0)),
                 Binomial((1, 0, 0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0, 0, 1))]
        assert _forcing_variables(basis, 8) == tuple(range(8))
        assert not any(set(i for i, e in enumerate(side) if e) <= set(pair)
                       for b in basis for side in b
                       for pair in itertools.combinations(range(8), 2))

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_unchecked_relations_pass_the_checks(self, monkeypatch, kind):
        # the saturation's moved and stripped relations and buchberger's
        # elements are built without Binomial's checks: each passes them,
        # on every valid 3-5 point set of [0,3]^2
        built = []

        def recording(gens, order, lattice=False):
            gens = list(gens)
            gb = buchberger(gens, order, lattice)
            built.extend(gens + list(gb.elements))
            return gb

        monkeypatch.setattr(ideal_mod, "buchberger", recording)
        surfaces = sup.box_semigroups(3, range(3, 6))
        for vs in surfaces:
            toric_ideal(vs, kind)
        assert len(surfaces) == 1332 and built
        for b in built:
            assert Binomial(*b) == b

    def test_matches_full_saturation(self, population):
        # saturating by the forced variables, none for the one kernel
        # vector of a 3-point set, gives the ideal that saturating by all
        # of them does, under lex and degrevlex, and the orbit-point ranks
        # of those ideals match polynomial evaluation
        surfaces = [vs for vs, _ in population]
        assert sup.check_toric_ideals(surfaces) == len(surfaces)
        assert sup.check_toric_ideals(sup.box_semigroups(3, (3, 5))) == \
            225 + 578


class TestToricIdeal:
    def test_fixture_a(self, fixture_a):
        _, ideal = fixture_a
        assert buchberger(sup.binomials(sup.IDEAL_A), TermOrder("lex", 4)) \
            .elements == ideal.gb.elements
        assert ideal.s_min == 3

    def test_fixture_b(self, fixture_b):
        _, ideal = fixture_b
        assert buchberger(sup.binomials(sup.IDEAL_B), TermOrder("lex", 5)) \
            .elements == ideal.gb.elements

    def test_fixture_c(self, fixture_c):
        _, ideal = fixture_c
        assert buchberger(sup.binomials(sup.IDEAL_C), TermOrder("lex", 4)) \
            .elements == ideal.gb.elements
        assert ideal.s_min == 4

    def test_unknown_order_name_refused(self):
        # an order is named as in ORDERS; TermOrder refuses another name
        vs = validate([(1, 0), (1, 1), (1, 2)])
        with pytest.raises(ValueError, match="'grlex'"):
            toric_ideal(vs, "grlex")

    def test_degrevlex_defines_same_ideal(self, fixture_a):
        vs, ideal = fixture_a
        other = toric_ideal(vs, "degrevlex")
        regenerated = buchberger(other.gb.elements, TermOrder("lex", vs.N))
        assert regenerated.elements == ideal.gb.elements

    def test_no_unit_exponent_sides(self, population):
        for _, ideal in population:
            for b in ideal.minimal_gens:
                assert sum(b.plus) >= 2
                assert sum(b.minus) >= 2

    def test_unit_side_refused(self):
        # a side of degree 1 leaves a Jacobian row at the origin; this
        # check is what keeps the origin in the singular locus
        sound = sup.binomials(sup.IDEAL_A)
        _check_no_unit_sides(sound)
        for bad in (Binomial((0, 1, 0, 0), (1, 0, 1, 0)),
                    Binomial((2, 0, 0, 0), (0, 0, 0, 1))):
            with pytest.raises(InvariantViolation, match="^relation with a "
                                                         "bare-variable side"):
                _check_no_unit_sides(sound + [bad])

    def test_unit_side_refused_by_toric_ideal(self):
        # generators validate refuses: (2, 1) = (1, 0) + (1, 1), so the
        # basis holds y2 - x1 y1, whose side y2 has degree 1
        pts = tuple(LatticePoint(u, v)
                    for u, v in [(1, 0), (1, 1), (2, 1), (0, 1)])
        with pytest.raises(NotMinimal):
            validate(pts)
        vs = ValidatedSemigroup(pts, 1, 2, 1, (0, 1, 2, 3),
                                ((0, 1), (1, 1), (1, 2), (1, 0)))
        assert vs.degree_weights == (1, 2, 3, 1)
        with pytest.raises(InvariantViolation, match="^relation with a "
                                                     "bare-variable side"):
            toric_ideal(vs)

    def test_minimal_gens_irredundant(self, population):
        for _, ideal in population[:12]:
            gens = ideal.minimal_gens
            for i in range(len(gens)):
                if len(gens) == 1:
                    continue
                rest = [g for j, g in enumerate(gens) if j != i]
                sub = buchberger(rest, ideal.gb.order)
                assert not sup.ideal_member(
                    {gens[i].plus: 1, gens[i].minus: -1}, sub)

    def test_pure_edge_relation_sides_stay_in_block(self, population):
        # a relation with one side supported on an edge block keeps its
        # other side in the same block
        for vs, ideal in population[:20]:
            x = set(vs.x_indices)
            z = set(vs.z_indices)
            for b in ideal.gb.elements:
                for block in (x, z):
                    sides = (set(i for i, e in enumerate(b.plus) if e),
                             set(i for i, e in enumerate(b.minus) if e))
                    if sides[0] <= block or sides[1] <= block:
                        assert sides[0] <= block and sides[1] <= block

    def test_generators_vanish_at_block_points(self, population):
        # both all-ones-on-one-block points lie on the surface
        for vs, ideal in population[:20]:
            o1 = tuple(1 if i in vs.z_indices else 0 for i in range(vs.N))
            o2 = tuple(1 if i in vs.x_indices else 0 for i in range(vs.N))
            for b in ideal.minimal_gens:
                p = {b.plus: 1, b.minus: -1}
                assert sup.evaluate(p, o1) == 0
                assert sup.evaluate(p, o2) == 0


class TestNormalForm:
    @pytest.mark.parametrize("p", [
        {(1, 0, 1, 0): 1},
        {(1, 0, 1, 0): 1, (0, 0, 0, 1): 0, (2, 0, 0, 0): 0}],
        ids=["monomial", "zero_coefficients"])
    def test_single_division_step(self, fixture_a, p):
        _, ideal = fixture_a
        nf = normal_form(p, ideal.gb)
        assert nf == {(0, 2, 0, 0): 1}

    def test_basis_elements_reduce_to_zero(self, fixture_a):
        _, ideal = fixture_a
        for b in ideal.gb.elements:
            p = {b.plus: 1, b.minus: -1}
            assert not normal_form(p, ideal.gb)

    def test_constant_is_irreducible(self, fixture_a):
        _, ideal = fixture_a
        one = {(0, 0, 0, 0): 1}
        assert normal_form(one, ideal.gb) == one

    def test_result_is_fresh(self, fixture_a):
        _, ideal = fixture_a
        p = {(0, 0, 0, 0): 1, (1, 0, 0, 0): 0}
        nf = normal_form(p, ideal.gb)
        nf[(0, 0, 0, 0)] = 5
        assert p == {(0, 0, 0, 0): 1, (1, 0, 0, 0): 0}

    def test_member_examples(self, fixture_a):
        _, ideal = fixture_a
        gen = {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1}
        assert sup.ideal_member(gen, ideal.gb)
        assert not sup.ideal_member({(1, 0, 0, 0): 1}, ideal.gb)
        assert sup.ideal_member({}, ideal.gb)

    def test_no_monomials_in_ideal(self, population):
        rng = random.Random(17)
        for vs, ideal in population[:15]:
            for _ in range(20):
                exp = tuple(rng.randint(0, 3) for _ in range(vs.N))
                if all(e == 0 for e in exp):
                    continue
                assert not sup.ideal_member({exp: 1}, ideal.gb)

    def test_membership_characterization(self, population):
        rng = random.Random(29)
        for vs, ideal in population[:15]:
            for _ in range(40):
                a = tuple(rng.randint(0, 3) for _ in range(vs.N))
                b = tuple(rng.randint(0, 3) for _ in range(vs.N))
                p = {a: 1}
                p[b] = p.get(b, 0) - 1
                assert sup.ideal_member(p, ideal.gb) == \
                    (sup.pi(vs, a) == sup.pi(vs, b))


# the surfaces of the benchmark's ideal workload
IDEAL_BENCH = [
    [(11, 0), (12, 0), (13, 0), (1, 1), (0, 11)],
    [(7, 0), (8, 0), (9, 0), (10, 0), (1, 1), (0, 7)],
    [(2, 0), (1, 2), (4, 2), (4, 3), (1, 3)],
    [(2, 0), (1, 4), (3, 2), (4, 3), (0, 2)],
]
# the lex surface that workload leaves out
IDEAL_LEFT_OUT = [(2, 0), (1, 4), (3, 2), (4, 3), (0, 4)]

S7 = [(5, 0), (6, 0), (7, 0), (0, 5), (0, 6), (0, 7), (1, 1)]
# its lex basis has 188 elements, of which 16 generate minimally
LEX_PROBE = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 20), (0, 21)]
# a lex basis with a Betti degree holding more elements than it needs
SURPLUS = [(2, 0), (1, 2), (1, 3), (0, 2), (0, 3)]
# Betti routes whose certificate path can detour through an element that
# the saturated set's pruning dropped
DETOURS = [[(3, 0), (1, 2), (2, 3), (3, 3), (0, 2)],
           [(2, 0), (2, 3), (3, 2), (3, 3), (0, 2)]]


class TestMinimalGenerators:
    def test_counts(self, fixture_a, fixture_c):
        for (vs, ideal), count in ((fixture_a, 3), (fixture_c, 4)):
            assert len(minimal_generators(ideal.gb, vs.degree_weights)) == \
                count

    def test_principal(self):
        vs = validate([(1, 0), (1, 1), (1, 2)])
        ideal = toric_ideal(vs)
        assert ideal.s_min == 1

    def test_matches_membership_oracle(self, population):
        surfaces = [ideal for _, ideal in population]
        surfaces += [sup.build(points)[1] for points in IDEAL_BENCH]
        for ideal in surfaces:
            assert ideal.minimal_gens == \
                sup.membership_minimal_generators(ideal.gb)

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_matches_whole_basis_greedy(self, kind, monkeypatch):
        # toric_ideal prunes by one _betti_generators call, and its minimal
        # generators are those of the greedy over the whole final basis
        routed = []
        betti = ideal_mod._betti_generators
        monkeypatch.setattr(ideal_mod, "_betti_generators",
                            lambda *args: routed.append(1) or betti(*args))
        surfaces = sup.box_semigroups(3, range(3, 6))
        surfaces += [validate(p) for p in
                     IDEAL_BENCH + [IDEAL_LEFT_OUT, S7, LEX_PROBE, SURPLUS]]
        for vs in surfaces:
            ideal = toric_ideal(vs, kind)
            assert ideal.minimal_gens == \
                minimal_generators(ideal.gb, vs.degree_weights), \
                vs.points
        assert len(routed) == len(surfaces)

    @pytest.mark.parametrize("weights, error", [
        ((1, 1), LengthMismatch),
        ((1, 1, 1, 1, 1), LengthMismatch),
        ((True, 1, 1, 1), ValueError),
        ((1.5, 1, 1, 1), ValueError),
        (("1", 1, 1, 1), ValueError),
        ((0, 1, 1, 1), InvariantViolation),
        ((1, -2, 1, 1), InvariantViolation),
    ])
    def test_weights_read_by_term_order_rule(self, fixture_a, weights,
                                             error):
        # a weight vector of another length or with a weight that is not a
        # non-bool int is refused as TermOrder refuses it; a weight that is
        # not positive is the library's own fault
        vs, ideal = fixture_a
        assert vs.N == 4
        with pytest.raises(error):
            tn.minimal_generators(ideal.gb, weights)
        if error is not InvariantViolation:
            with pytest.raises(error):
                TermOrder("degrevlex", 4, weights)

    def test_non_homogeneous_basis_raises(self):
        # x1^2 - x2 joins monomials of different unit-weight degree, so
        # the search would not stay inside one finite fiber
        gb = GroebnerBasis(TermOrder("lex", 3),
                           (Binomial((2, 0, 0), (0, 1, 0)),
                            Binomial((0, 1, 1), (0, 0, 3))))
        with pytest.raises(InvariantViolation):
            minimal_generators(gb, (1, 1, 1))

    def test_s7(self):
        ideal = toric_ideal(validate(S7))
        assert ideal.s_min == 19
        assert len(ideal.gb.elements) == 45
        # digest recorded with the Buchberger loop of sup.plain_buchberger
        # and the pruning of sup.membership_minimal_generators
        digest = hashlib.sha256(
            repr((ideal.gb.elements, ideal.minimal_gens)).encode()).hexdigest()
        assert digest == ("f9e00da097d6a486e3f5522d88ec6013"
                          "c4239e5a959a08979a1dd7e9a269b7dc")

    @pytest.mark.parametrize("group", ["box", "quotients"])
    def test_riemenschneider_oracle(self, group):
        # Riemenschneider's closed-form binomials, built with no Groebner
        # basis, lie in the ideal, are irredundant, count s_min and have
        # the minimal generators' degrees, under both orders: on the 21
        # normal sets of [0,3]^2 (14 of 3 points, 6 of 4, 1 of 5) and the
        # 31 quotients 1/n(1, q) with n <= 10
        if group == "box":
            surfaces = [vs for vs in sup.box_semigroups(3, range(3, 6))
                        if sup.riemenschneider(vs) is not None]
            assert sorted(Counter(vs.N for vs in surfaces).items()) == \
                [(3, 14), (4, 6), (5, 1)]
        else:
            surfaces = sup.quotient_semigroups(10)
        assert sup.check_riemenschneider(surfaces) == \
            {"box": 21, "quotients": 31}[group]


def _step(exp, a, c):
    return tuple(e - x + y for e, x, y in zip(exp, a, c))


def _cut_last(path, start, moves, dropped):
    return path[:-1]


def _non_dividing(path, start, moves, dropped):
    # an allowed move out and straight back, from a monomial it does not
    # divide: without the divisibility check the replay would still pass
    for a, c in moves:
        if not all(map(le, a, start)):
            return [(a, c), (c, a)] + path
    return None


def _dropped_earlier(path, start, moves, dropped):
    # a detour through an element that was dropped before this one and
    # that this search was not given (another pruning may keep it)
    exp = start
    for i, move in enumerate(path):
        for p, q in dropped:
            if (p, q) not in moves and all(map(le, p, exp)):
                return path[:i] + [(p, q), (q, p)] + path[i:]
        exp = _step(exp, *move)
    return None


class TestPruningCertificate:
    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_regeneration_oracle(self, population, kind):
        surfaces = [vs for vs, _ in population]
        surfaces += [validate(p) for p in IDEAL_BENCH + [S7]]
        for vs in surfaces:
            ideal = toric_ideal(vs, kind)
            assert buchberger(ideal.minimal_gens, ideal.order).elements == \
                ideal.gb.elements

    def test_paths_are_walks(self, fixture_b):
        # each returned path is a walk from plus to minus by the given moves
        _, ideal = fixture_b
        found = 0
        for b in ideal.gb.elements:
            moves = [m for h in ideal.gb.elements if h is not b
                     for m in ((h.plus, h.minus), (h.minus, h.plus))]
            path = ideal_mod._connected(b.plus, b.minus, moves)
            if path is None:
                continue
            found += 1
            exp = b.plus
            for a, c in path:
                assert (a, c) in moves and all(map(le, a, exp))
                exp = _step(exp, a, c)
            assert exp == b.minus
        assert found

    def test_buchberger_count(self, fixture_a, fixture_b, fixture_c,
                              monkeypatch):
        # |sigma| saturation steps and the final basis; no regeneration
        calls = []

        def counted(*args):
            calls.append(args)
            return buchberger(*args)

        monkeypatch.setattr(ideal_mod, "buchberger", counted)
        for (vs, ideal), count in ((fixture_a, 2), (fixture_b, 2),
                                   (fixture_c, 3)):
            calls.clear()
            rebuilt = toric_ideal(vs)
            assert len(calls) == count
            assert rebuilt.gb == ideal.gb
            assert rebuilt.minimal_gens == ideal.minimal_gens

    @pytest.mark.parametrize("mutate",
                             [_cut_last, _non_dividing, _dropped_earlier])
    def test_mutated_path_raises(self, mutate, population, fixture_b,
                                 fixture_c, monkeypatch):
        # every path _connected returns goes through mutate, which sees the
        # moves of the elements dropped so far; pruning itself is unchanged
        real = ideal_mod._connected
        changed = 0
        for vs in [fixture_b[0], fixture_c[0]] + \
                [vs for vs, _ in population] + \
                [validate(p) for p in IDEAL_BENCH + [S7]]:
            dropped, mutated = [], []

            def connected(start, goal, moves):
                path = real(start, goal, moves)
                if path is None:
                    return None
                new = mutate(path, start, moves, dropped)
                dropped.extend(((start, goal), (goal, start)))
                if new is None:
                    return path
                mutated.append(new)
                return new

            monkeypatch.setattr(ideal_mod, "_connected", connected)
            try:
                toric_ideal(vs)
            except InvariantViolation as exc:
                assert mutated
                assert str(exc) == "pruned generators span a smaller ideal"
                changed += 1
            else:
                assert not mutated
        assert changed >= 5

    @pytest.mark.parametrize("mutate, stage, least", [
        (_cut_last, 0, 14), (_non_dividing, 0, 14),
        (_cut_last, 1, 12), (_non_dividing, 1, 12), (_dropped_earlier, 1, 12),
        (_cut_last, 2, 14), (_non_dividing, 2, 14), (_dropped_earlier, 2, 7),
    ], ids=["candidates-cut_last", "candidates-non_dividing",
            "saturated-cut_last", "saturated-non_dividing",
            "saturated-dropped_earlier",
            "certificate-cut_last", "certificate-non_dividing",
            "certificate-dropped_earlier"])
    def test_mutated_betti_path_raises(self, mutate, stage, least,
                                       monkeypatch):
        # _betti_generators runs _prune on the basis elements in the
        # saturated set's degrees (stage 0) and, when it skips one, on the
        # saturated set (1) and as its certificate (2); only the paths
        # found in the given stage are mutated.  No candidate stage here
        # passes an element it dropped before, so _dropped_earlier has no
        # case there; in the later stages it detours through elements that
        # an earlier stage dropped
        real_prune, real_connected = ideal_mod._prune, ideal_mod._connected
        stages, dropped, mutated = [], [], []

        def prune(*args):
            stages.append(len(stages))
            return real_prune(*args)

        def connected(start, goal, moves):
            path = real_connected(start, goal, moves)
            if path is None:
                return None
            new = mutate(path, start, moves, dropped) \
                if stages[-1] == stage else None
            dropped.extend(((start, goal), (goal, start)))
            if new is None:
                return path
            mutated.append(new)
            return new

        monkeypatch.setattr(ideal_mod, "_prune", prune)
        monkeypatch.setattr(ideal_mod, "_connected", connected)
        changed = 0
        for points in [SURPLUS, LEX_PROBE, S7] + IDEAL_BENCH + DETOURS:
            for kind in ORDERS:
                for record in (stages, dropped, mutated):
                    record.clear()
                try:
                    toric_ideal(validate(points), kind)
                except InvariantViolation as exc:
                    assert mutated
                    assert str(exc) == \
                        "pruned generators span a smaller ideal"
                    changed += 1
                else:
                    assert not mutated
        assert changed >= least

    @pytest.mark.parametrize("points, stage, change", [
        (IDEAL_BENCH[2], 1, 1),
        (SURPLUS, 0, 1),
        (SURPLUS, 0, -1),
        (IDEAL_BENCH[2], 1, -1),
    ], ids=["saturated_one_too_many", "surplus_one_too_many",
            "surplus_one_too_few", "saturated_one_too_few"])
    def test_count_cross_check(self, points, stage, change, monkeypatch):
        # the pruning of the saturated set (stage 1), or of the basis
        # elements in its degrees (0), which hold one more than needed on
        # SURPLUS, keeps one element too many or too few: the two counts
        # differ, which s_min's independence of the order refuses
        real = ideal_mod._prune
        stages = []

        def prune(elements, key, fixed=()):
            kept = real(elements, key, fixed)
            stages.append(len(stages))
            if stages[-1] != stage:
                return kept
            if change > 0:
                return kept + [b for b in elements if b not in kept][:1]
            return kept[1:]

        monkeypatch.setattr(ideal_mod, "_prune", prune)
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(validate(points), "lex")
        assert str(exc.value) == \
            "minimal generator count differs from the saturated set's"
        assert stages == [0, 1]

    @pytest.mark.parametrize("kind", ORDERS, ids=sup.ORDER_IDS)
    def test_one_extra_element_fails_the_count(self, kind, monkeypatch):
        # the two prunings are independent, so keeping any one element
        # that either dropped breaks the count wherever the cross-checks
        # run, also in a degree that holds one basis element more than it
        # needs
        calls = []
        betti = ideal_mod._betti_generators
        monkeypatch.setattr(ideal_mod, "_betti_generators",
                            lambda *args: calls.append(args) or betti(*args))
        for points in [SURPLUS, LEX_PROBE] + IDEAL_BENCH + DETOURS:
            toric_ideal(validate(points), kind)
        real = ideal_mod._prune
        stages, extra = [], []

        def prune(elements, key, fixed=()):
            kept = real(elements, key, fixed)
            stages.append(len(stages))
            dropped = [b for b in elements if b not in kept]
            if stages[-1] != stage or len(dropped) <= index:
                return kept
            extra.append(dropped[index])
            return kept + extra

        monkeypatch.setattr(ideal_mod, "_prune", prune)
        raised = 0
        for args in calls:
            for stage in (0, 1):
                for index in itertools.count():
                    stages.clear()
                    extra.clear()
                    try:
                        betti(*args)
                    except InvariantViolation as exc:
                        assert str(exc) == \
                            "minimal generator count differs from the " \
                            "saturated set's"
                        raised += 1
                    else:
                        # nothing to keep, or no basis element was skipped
                        # and so no check ran
                        assert not extra or stages == [0]
                    if not extra:
                        break
        assert raised == {"lex": 48, "degrevlex": 34}[kind]

    @pytest.mark.parametrize("points, kind", [
        ([(1, 0), (1, 1), (1, 2)], "lex"),
        (IDEAL_BENCH[0], "degrevlex"),
        (IDEAL_BENCH[1], "degrevlex"),
    ], ids=["principal", "ideal_bench_0", "ideal_bench_1"])
    def test_no_skipped_element_one_prune(self, points, kind, monkeypatch):
        # every basis element lies in a degree of the saturated set, so
        # the replay of the one pruning certifies the whole basis
        real = ideal_mod._prune
        calls = []

        def prune(elements, key, fixed=()):
            calls.append(list(elements))
            return real(elements, key, fixed)

        monkeypatch.setattr(ideal_mod, "_prune", prune)
        ideal = toric_ideal(validate(points), kind)
        assert calls == [list(ideal.gb.elements)]

    def test_betti_route_bounds_fiber_searches(self, monkeypatch):
        # the whole-basis greedy makes one _connected call for each of the
        # probe's 188 lex basis elements; _betti_generators makes 58 (22
        # in the saturated set's degrees, 35 for the saturated set and one
        # for the certificate)
        calls = []
        real = ideal_mod._connected

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ideal_mod, "_connected", counted)
        ideal = toric_ideal(validate(LEX_PROBE), "lex")
        assert (len(ideal.gb.elements), ideal.s_min) == (188, 16)
        assert len(calls) <= 60


def _raised_in(exc, function, message):
    """The InvariantViolation exc carries message and was raised by
    function itself."""
    assert str(exc.value) == message
    assert exc.traceback[-1].name == function


class TestTamperedHelpers:
    # checks that no correct helper output reaches: each test makes one
    # helper lie, and toric_ideal must refuse at the check named for it

    def test_non_kernel_vector(self, fixture_a, monkeypatch):
        # the all-ones vector sums the generators, which is nonzero in a
        # strictly convex cone
        real = ideal_mod._lll_reduce
        monkeypatch.setattr(ideal_mod, "_lll_reduce", lambda rows: [
            (1,) * len(rows[0])] + real(rows)[1:])
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(fixture_a[0])
        _raised_in(exc, "lattice_kernel",
                   "kernel vector fails the relation check")

    def test_kernel_rank_short(self, fixture_a, monkeypatch):
        # one pivot too many leaves out a kernel row: every vector still
        # passes the relation check, but there are s - 3 of them
        real = ideal_mod._echelon
        monkeypatch.setattr(ideal_mod, "_echelon",
                            lambda rows, k: real(rows, k) + 1)
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(fixture_a[0])
        _raised_in(exc, "lattice_kernel", "kernel rank is not s - 2")

    def test_basis_element_reduced_to_zero(self, monkeypatch):
        # toric_ideal's last monomial_nf call is the final basis's last
        # element's minus side; reducing it to that element's plus side
        # instead of its normal form makes the element zero
        real = ideal_mod.monomial_nf
        calls = []

        def counted(exp, reducers):
            calls.append(exp)
            return real(exp, reducers)

        monkeypatch.setattr(ideal_mod, "monomial_nf", counted)
        toric_ideal(validate(SURPLUS), "lex")
        last = len(calls)
        calls.clear()

        def tampered(exp, reducers):
            calls.append(exp)
            if len(calls) < last:
                return real(exp, reducers)
            return next(plus for _, _, plus, delta in reducers
                        if tuple(map(sum, zip(plus, delta))) == exp)

        monkeypatch.setattr(ideal_mod, "monomial_nf", tampered)
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(validate(SURPLUS), "lex")
        _raised_in(exc, "buchberger", "basis element reduced to zero")

    def test_betti_route_non_homogeneous(self, monkeypatch):
        # the final basis (the lattice=True run) gets one more x_0 on its
        # last element's minus side, which shifts that side's degree by
        # g_0's heights
        real = ideal_mod.buchberger

        def tampered(gens, order, lattice=False):
            gb = real(gens, order, lattice)
            if not lattice:
                return gb
            plus, minus = gb.elements[-1]
            changed = Binomial(plus, (minus[0] + 1,) + minus[1:])
            return GroebnerBasis(order, gb.elements[:-1] + (changed,))

        monkeypatch.setattr(ideal_mod, "buchberger", tampered)
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(validate(SURPLUS), "lex")
        _raised_in(exc, "_betti_generators",
                   "relation is not homogeneous for the generators' heights")

    def test_surplus_swap_spans_smaller_ideal(self, monkeypatch):
        # the pruning of the basis elements in the saturated set's degrees
        # swaps its first kept element for a basis element of another
        # degree that it does not keep, so the count cross-check passes
        # and the certificate finds a minimal generator of the saturated
        # set that the result does not reach
        vs = validate(SURPLUS)
        gb = toric_ideal(vs, "lex").gb
        h1, h2 = zip(*vs.heights)

        def degree(b):
            return (sum(map(mul, h1, b.plus)), sum(map(mul, h2, b.plus)))

        real = ideal_mod._prune
        stages = []

        def prune(elements, key, fixed=()):
            kept = real(elements, key, fixed)
            stages.append(kept)
            if len(stages) != 1:
                return kept
            other = [b for b in gb.elements if b not in kept
                     and degree(b) != degree(kept[0])]
            return kept[1:] + other[:1]

        monkeypatch.setattr(ideal_mod, "_prune", prune)
        with pytest.raises(InvariantViolation) as exc:
            toric_ideal(vs, "lex")
        assert len(stages) == 3
        _raised_in(exc, "_betti_generators",
                   "a minimal generator of the saturated set is not reached")


def _edge_relation(vs, idx, i, j):
    """x_i^(k_j/g) - x_j^(k_i/g) for g_i = k_i * ray, g_j = k_j * ray."""
    pts = vs.points
    ki = gcd(pts[idx[i]].u, pts[idx[i]].v)
    kj = gcd(pts[idx[j]].u, pts[idx[j]].v)
    g = gcd(ki, kj)
    plus = [0] * vs.N
    minus = [0] * vs.N
    plus[idx[i]] = kj // g
    minus[idx[j]] = ki // g
    return Binomial(tuple(plus), tuple(minus))


class TestEdgeRelation:
    def test_members_of_ideal(self, population):
        for vs, ideal in population:
            for idx in (vs.x_indices, vs.z_indices):
                for i in range(len(idx)):
                    for j in range(i + 1, len(idx)):
                        rel = _edge_relation(vs, idx, i, j)
                        assert sup.pi(vs, rel.plus) == sup.pi(vs, rel.minus)
                        assert sup.ideal_member(
                            {rel.plus: 1, rel.minus: -1}, ideal.gb)
