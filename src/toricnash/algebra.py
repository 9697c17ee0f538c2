"""Exact sparse arithmetic in N variables.

Exponent vectors are plain tuples of nonnegative ints of a common length.
Coefficients are Python ints, so no overflow is possible anywhere.
A term order is realized as a sortable key on exponent vectors: larger key
means larger monomial.  A polynomial is an {exponent: coefficient} dict;
derivative and determinant return fresh ones without zero coefficients.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from typing import Mapping, Sequence

from .errors import LengthMismatch, NotSquare


class TermOrder(namedtuple("TermOrder", "kind nvars weights")):
    """A monomial order on nvars variables, ranked x_0 > x_1 > ...

    kind is a name in ORDERS.  weights, when given, are strictly positive
    degree weights, which only degrevlex reads, so lex stores None (None
    means total degree).  degree is that weighted degree, else the total
    degree; a degrevlex key begins with it.  nvars and the weights are
    non-bool ints, nvars nonnegative (ValueError otherwise).
    """

    __slots__ = ()

    def __new__(cls, kind, nvars, weights=None):
        if not (isinstance(kind, str) and kind in ORDERS):
            raise ValueError(f"unknown term order kind {kind!r}")
        if type(nvars) is not int or nvars < 0:
            raise ValueError(f"variable count {nvars!r} is not an int >= 0")
        if weights is not None:  # a tuple, which compares and hashes alike
            weights = int_weights(weights, nvars)
            if any(w <= 0 for w in weights):
                raise ValueError("degree weights must be strictly positive")
        return super().__new__(cls, kind, nvars,
                               None if kind == "lex" else weights)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def degree(self, exp: tuple) -> int:
        """Weighted degree under the degrevlex weights, else total degree."""
        if self.weights is None:
            return sum(exp)
        return sum(map(operator.mul, self.weights, exp))

    def key(self, exp: tuple):
        """Sortable key; bigger key means bigger monomial.  Lex: the
        exponents; degrevlex: the degree, then the negated exponents from
        the last variable.  Another length raises LengthMismatch."""
        if len(exp) != self.nvars:
            raise LengthMismatch(
                f"exponent length {len(exp)} != {self.nvars} variables")
        if self.kind == "lex":
            return tuple(exp)
        return (self.degree(exp), tuple(map(operator.neg, exp[::-1])))


ORDERS = ("lex", "degrevlex")


def int_weights(weights: Sequence[int], nvars: int) -> tuple:
    """weights as a tuple of nvars non-bool ints, else LengthMismatch for
    another length or ValueError (TermOrder's and minimal_generators')."""
    weights = tuple(weights)
    if len(weights) != nvars:
        raise LengthMismatch("weights length differs from variable count")
    if not all(type(w) is int for w in weights):
        raise ValueError("degree weights must be ints")
    return weights


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


def derivative(f: Binomial, var: int) -> dict:
    """Partial derivative of x^plus - x^minus with respect to variable var,
    as {exponent: coefficient}; IndexError unless var is a non-bool int in
    range(f.nvars)."""
    if type(var) is not int or not 0 <= var < f.nvars:
        raise IndexError(f"variable index {var!r} out of range")
    # plus != minus, so the two lowered exponents differ
    return {exp[:var] + (exp[var] - 1,) + exp[var + 1:]: sign * exp[var]
            for exp, sign in ((f.plus, 1), (f.minus, -1)) if exp[var]}


def determinant(matrix: Sequence[Sequence[Mapping]]) -> dict:
    """Symbolic determinant by cofactor expansion along the first row.

    Entries are {exponent: coefficient} maps and may hold zero
    coefficients; the result is a fresh map without them.  Fine for the
    small, very sparse Jacobian blocks this library builds.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NotSquare(f"matrix is {n}x{len(row)}")
    if n == 0:
        raise NotSquare("empty matrix has no determinant")
    if n == 1:
        return {e: c for e, c in matrix[0][0].items() if c}
    acc: dict = {}
    for j, entry in enumerate(matrix[0]):
        terms = [(e, (-1) ** j * c) for e, c in entry.items() if c]
        if not terms:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        for e2, c2 in determinant(minor).items():
            for e1, c1 in terms:
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}
