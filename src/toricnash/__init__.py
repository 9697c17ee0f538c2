"""Exact analysis of Nash-blowup minor ideals of affine toric surfaces.

Pipeline: validate a planar semigroup generator set, compute the defining
binomial ideal exactly, enumerate the candidate minor ideals of its
Jacobian, decompose their zero loci into torus-orbit closures, and compare
against the singular locus.
"""

from .algebra import (
    Binomial,
    Monomial,
    Polynomial,
    TermOrder,
    degrevlex_order,
    derivative,
    determinant,
    lex_order,
)
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
    RankDeficient,
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
    normal_form,
    toric_ideal,
)
from .nash import (
    Analysis,
    NashReport,
    OrbitSet,
    SingularLocus,
    TheoremVerdict,
    analyze,
    classify_ci,
    dim1_selector,
    minor_monomial_formula,
    minor_symbolic,
    nash_ideal,
    rank,
    search_all_subsets,
    singular_locus,
    subset_minors,
    verify_dichotomy,
    zero_locus,
)
from .semigroup import (
    GeneratorSet,
    LatticePoint,
    ValidatedSemigroup,
    check_generates_Z2,
    compute_cone_rays,
    generator_set,
    semigroup_membership,
    validate,
)

__version__ = "0.1.0"
