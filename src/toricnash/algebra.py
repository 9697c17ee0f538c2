"""Exact sparse arithmetic in N variables.

Exponent vectors are plain tuples of nonnegative ints of a common length.
Coefficients are Python ints, so no overflow is possible anywhere.
A term order is realized as a sortable key on exponent vectors: larger key
means larger monomial.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import LengthMismatch, NotSquare

ExponentVector = tuple  # tuple[int, ...], all entries >= 0


class TermOrder(namedtuple("TermOrder", "kind ranking weights")):
    """A monomial order on a fixed number of variables.

    kind is a name in ORDERS.  ranking lists variable indices from most to
    least significant.  weights, when given, are strictly positive degree
    weights used by degrevlex (None means total degree).  degree is that
    weighted degree for a weighted degrevlex order and the total degree
    otherwise; a degrevlex key begins with it.  Ranking entries and
    weights are non-bool ints (ValueError otherwise).
    """

    def __new__(cls, kind, ranking, weights=None):
        # stored as tuples, which compare and hash alike
        ranking = tuple(ranking)
        if weights is not None:
            weights = tuple(weights)
        if not (isinstance(kind, str) and kind in ORDERS):
            raise ValueError(f"unknown term order kind {kind!r}")
        n = len(ranking)
        if not all(type(i) is int for i in ranking) \
                or sorted(ranking) != list(range(n)):
            raise ValueError("ranking must be a permutation of the variables")
        if weights is not None:
            if len(weights) != n:
                raise LengthMismatch("weights length differs from variable count")
            if not all(type(w) is int for w in weights):
                raise ValueError("degree weights must be ints")
            if any(w <= 0 for w in weights):
                raise ValueError("degree weights must be strictly positive")
        self = super().__new__(cls, kind, ranking, weights)
        # key's getters, kept in the instance dict; itemgetter() raises and
        # itemgetter(i) returns a scalar, and a ranking of at most one
        # variable is the identity
        self._ranked, self._reversed = (
            (operator.itemgetter(*ranking),
             operator.itemgetter(*reversed(ranking)))
            if n > 1 else (tuple, tuple))
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    @property
    def nvars(self) -> int:
        return len(self.ranking)

    def degree(self, exp: ExponentVector) -> int:
        """Weighted degree under the degrevlex weights, else total degree."""
        if self.weights is None or self.kind == "lex":
            return sum(exp)
        return sum(map(operator.mul, self.weights, exp))

    def key(self, exp: ExponentVector):
        """Sortable key; bigger key means bigger monomial.  Lex: the
        exponents in ranking order; degrevlex: the degree, then the negated
        exponents from the least significant variable.  A getter accepts a
        longer exponent, so the length is checked first (LengthMismatch)."""
        if len(exp) != len(self.ranking):
            raise LengthMismatch(
                f"exponent length {len(exp)} != {len(self.ranking)} variables")
        if self.kind == "lex":
            return self._ranked(exp)
        return (self.degree(exp),
                tuple(map(operator.neg, self._reversed(exp))))


def lex_order(n: int) -> TermOrder:
    return TermOrder("lex", tuple(range(n)))


def degrevlex_order(n: int) -> TermOrder:
    return TermOrder("degrevlex", tuple(range(n)))


ORDERS = {"lex": lex_order, "degrevlex": degrevlex_order}  # n -> TermOrder


class Monomial(NamedTuple):
    """A nonzero integer multiple of a single power product."""

    coeff: int
    exp: ExponentVector


class Binomial(namedtuple("Binomial", "plus minus")):
    """A pure difference of monomials x^plus - x^minus, plus != minus,
    with nonnegative non-bool int exponents (ValueError otherwise).

    In a Groebner basis plus is the leading exponent under the basis's
    order (the larger order.key); an input to buchberger need not be
    oriented.
    """

    __slots__ = ()

    def __new__(cls, plus, minus):
        # stored as tuples, which compare, hash and concatenate alike
        plus, minus = tuple(plus), tuple(minus)
        if len(plus) != len(minus):
            raise LengthMismatch("binomial sides of unequal length")
        if plus == minus:
            raise ValueError("zero binomial")
        for e in plus + minus:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} in binomial is not an int")
            if e < 0:
                raise ValueError("negative exponent in binomial")
        return super().__new__(cls, plus, minus)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    @property
    def nvars(self) -> int:
        return len(self.plus)

    def difference(self) -> tuple:
        """Exponent difference plus - minus (a kernel vector for relations)."""
        return tuple(map(operator.sub, self.plus, self.minus))


def binomial_from_vector(v: Sequence[int]) -> Binomial:
    """x^{v+} - x^{v-} from a nonzero integer vector, unoriented: plus is
    the positive part, whichever side an order would put first."""
    return Binomial(tuple(x if x > 0 else 0 for x in v),
                    tuple(-x if x < 0 else 0 for x in v))


class Polynomial:
    """Sparse integer polynomial: a map from exponent vectors to coefficients.

    The zero polynomial is the empty map.  Instances are treated as
    immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def from_monomial(cls, coeff: int, exp: ExponentVector) -> "Polynomial":
        return cls({tuple(exp): coeff})

    @classmethod
    def from_binomial(cls, b: Binomial) -> "Polynomial":
        return cls({b.plus: 1, b.minus: -1})

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    # -- arithmetic ---------------------------------------------------------
    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(out)

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for exp, coeff in self.terms.items():
            if len(exp) != len(point):
                raise LengthMismatch("evaluation point of wrong length")
            v = coeff
            for e, x in zip(exp, point):
                if e:
                    v *= x ** e
            total += v
        return total

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"


def derivative(f: Binomial, var: int) -> Polynomial:
    """Partial derivative of x^plus - x^minus with respect to variable var;
    IndexError unless var is a non-bool int in range(f.nvars)."""
    if type(var) is not int or not 0 <= var < f.nvars:
        raise IndexError(f"variable index {var!r} out of range")
    # plus != minus, so the two lowered exponents differ
    return Polynomial({exp[:var] + (exp[var] - 1,) + exp[var + 1:]:
                       sign * exp[var]
                       for exp, sign in ((f.plus, 1), (f.minus, -1))
                       if exp[var]})


def determinant(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Symbolic determinant by cofactor expansion along the first row.

    Fine for the small, very sparse Jacobian blocks this library builds.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NotSquare(f"matrix is {n}x{len(row)}")
    if n == 0:
        raise NotSquare("empty matrix has no determinant")
    if n == 1:
        return matrix[0][0]
    acc = Polynomial.zero()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = entry * determinant(minor)
        acc = acc + cof if j % 2 == 0 else acc - cof
    return acc
