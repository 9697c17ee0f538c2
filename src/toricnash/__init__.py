"""Exact analysis of Nash-blowup minor ideals of affine toric surfaces.

Pipeline: validate a planar semigroup generator set, compute the defining
binomial ideal exactly, enumerate the candidate minor ideals of its
Jacobian, decompose their zero loci into torus-orbit closures, and compare
against the singular locus.
"""

from .algebra import Binomial, TermOrder
from .errors import (
    ConeNotStrictlyConvex,
    ConeNotTwoDimensional,
    EmptyIdeal,
    InvalidExponent,
    InvalidGeneratorSet,
    InvariantViolation,
    LatticeNotFull,
    LengthMismatch,
    NonMonomialResidue,
    NotMinimal,
    NotSquare,
    SigmaDimensionError,
    TheoremViolation,
    TooFewGenerators,
    ToricNashError,
    TorusSingular,
)
from .ideal import (
    GroebnerBasis,
    ToricIdeal,
    buchberger,
    lattice_kernel,
    minimal_generators,
    monomial_nf,
    toric_ideal,
)
from .nash import (
    Analysis,
    NashReport,
    OrbitSet,
    TheoremVerdict,
    analyze,
    classify_ci,
    predict,
    subset_minors,
    zero_locus,
)
from .semigroup import (
    LatticePoint,
    ValidatedSemigroup,
    semigroup_membership,
    validate,
)

__version__ = "0.1.0"
