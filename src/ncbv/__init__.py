"""Exact cyclic-word BV calculus with a GUE multi-trace moment engine.

The package computes Gaussian unitary ensemble expectation values of
multi-trace observables three independent ways: a cohomological
reduction to polynomials in nu over the symmetric algebra of cyclic
words, a Wick perfect-matching oracle, and seeded Monte Carlo matrix
integration; Harer-Zagier supplies a fourth cross-check for the
single-trace column.
"""

from .ainfinity import (
    CyclicAInfinity,
    encode_ainfinity,
    encode_commutator_linfinity,
    letter_differential,
    matrix_ainfinity,
    suspend,
    suspend_matrix,
)
from .algebras import algebra_a, exterior_line, sigma_a_context, sigma_a_space
from .element import COMMUTATIVE, CYCLIC, Element
from .frobenius import (
    FrobeniusAlgebra,
    ground_field,
    matrix_frobenius,
    otft_mu,
    truncated_polynomials,
)
from .harer_zagier import (
    all_ones_check,
    catalan,
    catalan_leading_check,
    double_factorial,
    harer_zagier_closed,
    hz_closed_form_check,
    hz_recurrence_check,
    multitrace_sum_check,
)
from .morita import MatrixExtension, sigma, sigma_K
from .multitrace import MultiTraceFunctional, canonical_index
from .nupoly import NuPolynomial
from .operators import OperatorContext
from .reduction import GueReducer, default_reducer, reduce_to_polynomial
from .report import CheckReport
from .sampling import McResult, gue_rng, monte_carlo_moment, sample_gue, sample_gue_batch
from .scalar import Scalar, format_scalar, parse_scalar
from .space import GradedSymplecticSpace, hyperbolic_space
from .wick import wick_oracle
from .words import Monomial, canonicalize_cyclic, canonicalize_monomial

__version__ = "0.1.0"

__all__ = [
    "COMMUTATIVE",
    "CYCLIC",
    "CheckReport",
    "CyclicAInfinity",
    "Element",
    "FrobeniusAlgebra",
    "GradedSymplecticSpace",
    "GueReducer",
    "MatrixExtension",
    "McResult",
    "Monomial",
    "MultiTraceFunctional",
    "NuPolynomial",
    "OperatorContext",
    "Scalar",
    "algebra_a",
    "all_ones_check",
    "canonical_index",
    "canonicalize_cyclic",
    "canonicalize_monomial",
    "catalan",
    "catalan_leading_check",
    "default_reducer",
    "double_factorial",
    "encode_ainfinity",
    "encode_commutator_linfinity",
    "exterior_line",
    "format_scalar",
    "ground_field",
    "gue_rng",
    "harer_zagier_closed",
    "hyperbolic_space",
    "hz_closed_form_check",
    "hz_recurrence_check",
    "letter_differential",
    "matrix_ainfinity",
    "matrix_frobenius",
    "monte_carlo_moment",
    "multitrace_sum_check",
    "otft_mu",
    "parse_scalar",
    "reduce_to_polynomial",
    "sample_gue",
    "sample_gue_batch",
    "sigma",
    "sigma_K",
    "sigma_a_context",
    "sigma_a_space",
    "suspend",
    "suspend_matrix",
    "truncated_polynomials",
    "wick_oracle",
]
