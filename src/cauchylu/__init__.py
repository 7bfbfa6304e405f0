"""cauchylu: exact LU factors, determinants, and identity checks for the
Cauchy-like matrix family with entries 1/((2l)^2 - t^2(2i-1)^2).

Everything is computed in exact arithmetic: arbitrary-precision rationals
(the stdlib ``fractions.Fraction``) for numeric t, and rational functions
in t for symbolic work (pass ``SYMBOLIC_T`` wherever a scalar t is taken).
"""

from .closed_form import (
    ChainValues,
    build_L,
    build_U,
    chain_t1,
    det_closed,
    det_t1,
    entry_L,
    entry_U,
    gamma_identity_left,
    gamma_identity_right,
)
from .combinatorics import (
    binomial,
    double_factorial,
    factorial,
    rising_factorial,
)
from .errors import (
    CauchyLUError,
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    PoleAtPoint,
    RetriesExhausted,
    SingularEntry,
    SizeCapExceeded,
    ZeroPivot,
)
from .formats import parse_value, serialize_value
from .matrix import (
    ExactMatrix,
    LUFactors,
    build_matrix,
    det_elimination,
    lu_doolittle,
)
from .polynomial import NEG_INFINITY, Polynomial, T, parse_polynomial
from .ratfunc import RationalFunction, SYMBOLIC_T, coerce_scalar, parse_ratfunc
from .rational import format_rational, parse_rational
from .verify import (
    Counterexample,
    VerificationReport,
    VerifyConfig,
    run_all,
    verify_chain,
    verify_factors_match,
    verify_gamma_identities,
    verify_lu_product,
)

__version__ = "0.1.0"

__all__ = [
    "CauchyLUError",
    "ChainValues",
    "Counterexample",
    "DimensionMismatch",
    "DivisionByZero",
    "DomainError",
    "ExactMatrix",
    "LUFactors",
    "NEG_INFINITY",
    "PoleAtPoint",
    "Polynomial",
    "RationalFunction",
    "RetriesExhausted",
    "SYMBOLIC_T",
    "SingularEntry",
    "SizeCapExceeded",
    "T",
    "VerificationReport",
    "VerifyConfig",
    "ZeroPivot",
    "binomial",
    "build_L",
    "build_U",
    "build_matrix",
    "chain_t1",
    "coerce_scalar",
    "det_closed",
    "det_elimination",
    "det_t1",
    "double_factorial",
    "entry_L",
    "entry_U",
    "factorial",
    "format_rational",
    "gamma_identity_left",
    "gamma_identity_right",
    "lu_doolittle",
    "parse_polynomial",
    "parse_ratfunc",
    "parse_rational",
    "parse_value",
    "rising_factorial",
    "run_all",
    "serialize_value",
    "verify_chain",
    "verify_factors_match",
    "verify_gamma_identities",
    "verify_lu_product",
]
