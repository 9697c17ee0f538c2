import random

import pytest

from toricnash.algebra import (
    Binomial,
    Monomial,
    TermOrder,
    degrevlex_order,
    derivative,
    determinant,
    lex_order,
)
from toricnash.errors import LengthMismatch, NotSquare
from toricnash.ideal import buchberger, minimal_generators
from toricnash.nash import minor_symbolic, nash_ideal, subset_minors

import _support as sup


class TestCompare:
    def test_lex(self):
        assert lex_order(2).key((1, 0)) > lex_order(2).key((0, 5))

    def test_degrevlex(self):
        order = degrevlex_order(2)
        assert order.key((1, 1)) < order.key((2, 0))

    def test_equal(self):
        assert lex_order(2).key((0, 0)) == lex_order(2).key((0, 0))
        assert sup.oriented_binomial((0, 0), (0, 0), lex_order(2)) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sup.oriented_binomial((1, 0), (1, 0, 0), lex_order(2))

    def test_degrevlex_degree_first(self):
        order = degrevlex_order(3)
        assert order.key((0, 0, 3)) > order.key((1, 1, 0))

    def test_weighted_degrevlex(self):
        order = TermOrder("degrevlex", 2, (5, 1))
        assert order.key((1, 0)) > order.key((0, 4))
        assert order.key((1, 0)) < order.key((0, 6))

    def test_degree(self):
        # weighted under weighted degrevlex, total otherwise; a degrevlex
        # key begins with it
        exp = (2, 0, 3)
        weighted = TermOrder("degrevlex", 3, (5, 1, 2))
        assert weighted.degree(exp) == 16
        assert degrevlex_order(3).degree(exp) == lex_order(3).degree(exp) == 5
        for order in (weighted, degrevlex_order(3)):
            assert order.key(exp)[0] == order.degree(exp)

    def test_key_matches_reference(self):
        # the keys equal the generator-expression keys and sort alike; a
        # shorter or longer exponent is refused, not truncated
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(1, 6)
            weights = rng.choice(
                [None, tuple(rng.randint(1, 4) for _ in range(n))])
            order = TermOrder(rng.choice(["lex", "degrevlex"]), n, weights)
            exps = [tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(12)]
            assert [order.key(e) for e in exps] == \
                [sup.reference_key(order, e) for e in exps]
            assert sorted(exps, key=order.key) == \
                sorted(exps, key=lambda e: sup.reference_key(order, e))
            for bad in (exps[0][:-1], exps[0] + (0,)):
                with pytest.raises(LengthMismatch):
                    order.key(bad)
        for kind in ("lex", "degrevlex"):
            assert TermOrder(kind, 0).key(()) == \
                sup.reference_key(TermOrder(kind, 0), ())

    def test_orientation_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 5)
            order = rng.choice([lex_order(n), degrevlex_order(n)])
            a = tuple(rng.randint(0, 4) for _ in range(n))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            ob = sup.oriented_binomial(a, b, order)
            if ob is None:
                assert a == b
                continue
            again = sup.oriented_binomial(ob.plus, ob.minus, order)
            assert again == ob
            assert order.key(ob.plus) > order.key(ob.minus)


class TestRefusals:
    @pytest.mark.parametrize("args, error", [
        (("grlex", 2), ValueError),
        ((["lex"], 2), ValueError),
        (("lex", (0, 1)), ValueError),
        (("lex", -1), ValueError),
        (("degrevlex", 2, (1, 1, 1)), LengthMismatch),
        (("degrevlex", 2, (1, 0)), ValueError),
        (("degrevlex", 2, (2, -1)), ValueError),
        (("lex", True), ValueError),
        (("lex", 2.0), ValueError),
        (("degrevlex", 2, (1.5, 2)), ValueError),
        (("degrevlex", 2, (True, 2)), ValueError)],
        ids=["unknown_kind", "unhashable_kind", "tuple_nvars", "negative_nvars",
             "weights_length", "zero_weight", "negative_weight", "bool_nvars",
             "float_nvars", "float_weight", "bool_weight"])
    def test_term_order(self, args, error):
        with pytest.raises(error):
            TermOrder(*args)

    @pytest.mark.parametrize("plus, minus, error", [
        ((1, 0), (0, 1, 0), LengthMismatch),
        ((1, 2), (1, 2), ValueError),
        ((1, -1), (0, 0), ValueError),
        ((1, 0), (0, -2), ValueError),
        ((1, 0), (0, 1.5), ValueError),
        ((1.0, 0), (0, 1), ValueError),
        ((True, 0), (0, 1), ValueError)],
        ids=["unequal_lengths", "zero", "negative_plus", "negative_minus",
             "float_minus", "float_plus", "bool_plus"])
    def test_binomial(self, plus, minus, error):
        with pytest.raises(error):
            Binomial(plus, minus)


def _square(seq):
    return Binomial(seq((2, 0)), seq((0, 2)))  # x^2 - y^2


def _curve_relation(seq):
    return [Binomial(seq((1, 0, 1)), seq((0, 2, 0)))]  # x z - y^2


def _curve_ideal():
    return sup.build([(1, 0), (1, 1), (1, 2)])[1]


def _with_hash(obj):
    return obj, hash(obj)


# each entry point on fields given as lists (seq=list) must answer as on
# the same fields given as tuples (seq=tuple); a list field compares
# unequal to the tuple one and does not hash
SEQUENCE_FIELDS = {
    "binomial": lambda seq: _with_hash(_square(seq)),
    "buchberger": lambda seq: buchberger(
        [_square(seq), _square(tuple)], lex_order(2)),
    "minimal_generators": lambda seq: minimal_generators(
        buchberger([_square(seq)], lex_order(2)), (1, 1)),
    "subset_minors": lambda seq: subset_minors(
        _curve_relation(seq), _curve_ideal()),
    "nash_ideal": lambda seq: nash_ideal(_curve_relation(seq), _curve_ideal()),
    "minor_symbolic": lambda seq: minor_symbolic(
        _curve_relation(seq), (0, 1), _curve_ideal()),
    "term_order_weights": lambda seq: _with_hash(
        TermOrder("degrevlex", 2, seq((2, 1)))),
}


class TestSequenceFields:
    @pytest.mark.parametrize("name", SEQUENCE_FIELDS)
    def test_lists_act_as_tuples(self, name):
        run = SEQUENCE_FIELDS[name]
        assert run(list) == run(tuple)


class TestZeroCoefficients:
    # determinant drops zero sums (equal rows: p*p + (-p*p)) and ignores
    # zero input coefficients; the derivative cases are in TestDerivative
    x, y = {(1, 0): 1}, {(0, 1): 1}
    p = {(1, 0, 1): 3, (0, 2, 0): -2}

    @pytest.mark.parametrize("matrix, expected", [
        ([[p, p], [p, p]], {}),
        ([[x, y], [y, x]], {(2, 0): 1, (0, 2): -1}),
        ([[{(1, 0): 0}]], {}),
        ([[{(1, 0): 0}, x], [y, x]], {(1, 1): -1})],
        ids=["sum_with_negation", "difference_of_squares",
             "zero_coefficient", "zero_coefficient_entry"])
    def test_no_zero_terms(self, matrix, expected):
        det = determinant(matrix)
        assert 0 not in det.values()
        assert det == expected


class TestDerivative:
    # Jacobian entries of x1*x3 - x2^2 and x1*x4 - x2*x3 in 4 variables
    def test_interior_variable(self):
        f = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
        assert derivative(f, 1) == {(0, 1, 0, 0): -2}

    def test_absent_variable(self):
        # absent from both sides: no term, not a zero one
        f = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
        assert derivative(f, 3) == {}

    def test_leading_variable(self):
        # on the plus side only: one term, none with coefficient zero
        f = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
        assert derivative(f, 0) == {(0, 0, 0, 1): 1}

    def test_matches_shift_coefficient(self):
        # d/dt f(p + t e_i) at t = 0, computed by binomial-theorem expansion
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 5)
            a = tuple(rng.randint(0, 4) for _ in range(n))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            if a == b:
                continue
            f = Binomial(a, b)
            var = rng.randrange(n)
            point = [rng.randint(-3, 3) for _ in range(n)]
            expected = sup.shift_coefficient(f, var, point, 1)
            assert sup.evaluate(derivative(f, var), point) == expected

    @pytest.mark.parametrize("var", [True, 1.0, -1, 4],
                             ids=["bool", "float", "negative", "nvars"])
    def test_index_not_a_variable(self, var):
        f = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
        with pytest.raises(IndexError, match="variable index"):
            derivative(f, var)


class TestDeterminant:
    def test_paper_style_minor(self):
        x2 = {(0, 1, 0, 0): -2}
        x3 = {(0, 0, 1, 0): 1}
        x4 = {(0, 0, 0, 1): 1}
        neg_x3 = {(0, 0, 1, 0): -1}
        det = determinant([[x3, x2], [x4, neg_x3]])
        assert det == {(0, 0, 2, 0): -1, (0, 1, 0, 1): 2}

    def test_identity(self):
        one = {(0, 0): 1}
        zero = {}
        assert determinant([[one, zero], [zero, one]]) == one

    def test_zero_row(self):
        one = {(0, 0): 1}
        zero = {}
        assert not determinant([[zero, zero], [one, one]])

    def test_result_is_fresh(self):
        m = {(1, 0): 2}
        det = determinant([[m]])
        det[(1, 0)] = 5
        assert m == {(1, 0): 2}

    def test_not_square(self):
        one = {(0,): 1}
        with pytest.raises(NotSquare):
            determinant([[one, one]])

    def test_empty(self):
        with pytest.raises(NotSquare, match="empty"):
            determinant([])

    def test_row_swap_and_other_row_expansion(self):
        rng = random.Random(5)
        for _ in range(25):
            mat = [[{tuple(rng.randint(0, 2) for _ in range(3)):
                     rng.choice([-2, -1, 1, 2])}
                    for _ in range(3)] for _ in range(3)]
            det = determinant(mat)
            swapped = [mat[1], mat[0], mat[2]]
            assert determinant(swapped) == {e: -c for e, c in det.items()}
            for row in (1, 2):
                assert sup.det_along_row(mat, row) == det


class TestEvaluate:
    def test_on_surface_point(self):
        p = {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}
        assert sup.evaluate(p, (1, 1, 1, 1)) == 0

    def test_at_axis_point(self):
        p = {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}
        assert sup.evaluate(p, (0, 0, 0, 1)) == 0

    def test_plain_monomial(self):
        p = {(0, 1, 0, 1): 2}
        assert sup.evaluate(p, (0, 1, 0, 1)) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sup.evaluate({(1, 1): 1}, (1, 2, 3))


class TestRendering:
    def test_monomial_tuple(self):
        m = Monomial(2, (1, 1))
        assert not sup.is_constant(m)
        assert sup.is_constant(Monomial(5, (0, 0)))
