"""Exception taxonomy for the toricnash library.

Validation errors name the specific hypothesis that failed so callers (and
the CLI) can report it without string matching.
"""


class ToricNashError(Exception):
    """Base class for all library errors."""


# --- generator set / semigroup validation -------------------------------

class InvalidGeneratorSet(ToricNashError):
    """Generator list is malformed (duplicate point, origin, non-integers)."""


class ConeNotTwoDimensional(ToricNashError):
    """All generators lie on a single line through the origin."""


class ConeNotStrictlyConvex(ToricNashError):
    """The cone spanned by the generators contains a line."""


class TooFewGenerators(ToricNashError):
    """Fewer than three generators; the ambient codimension would be zero."""


class NotMinimal(ToricNashError):
    """A generator lies in the semigroup spanned by the others."""

    def __init__(self, index, point):
        self.index = index
        self.point = point
        super().__init__(f"generator {tuple(point)} (input index {index}) "
                         f"is generated by the others")


class LatticeNotFull(ToricNashError):
    """The generators span a proper sublattice of the integer plane."""


# --- polynomial arithmetic ----------------------------------------------

class LengthMismatch(ToricNashError):
    """Exponent vectors or evaluation points of unequal length."""


class NotSquare(ToricNashError):
    """Determinant of a non-square matrix requested."""


# --- minor / singular-locus analysis -------------------------------------

class NonMonomialResidue(ToricNashError):
    """A reduced minor has two or more terms; upstream data is corrupt."""


class InvalidExponent(ToricNashError):
    """An exponent vector is not a list of N non-negative integers."""


class TorusSingular(ToricNashError):
    """Jacobian rank drops on the dense torus; upstream data is corrupt."""


class EmptyIdeal(ToricNashError):
    """Zero locus of an empty monomial list requested."""


class SigmaDimensionError(ToricNashError):
    """Operation requires a one-dimensional singular locus."""


class TheoremViolation(ToricNashError):
    """A mechanically checked dichotomy failed; either a bug or a genuine
    counterexample, and both must be reported loudly."""


class InvariantViolation(ToricNashError):
    """An internal cross-check failed; indicates a bug in this library."""
