"""Exact-arithmetic verification of confluent hypergeometric product identities.

The package builds both sides of each identity in its catalog as truncated
power series over exact rationals, by two independent routes, and compares
coefficients. See ``hypident list`` on the command line for the catalog.
"""

from .hyper import DegenerateParameterError, FloatSum, HypSpec, bailey_product_series, pfq_eval_float, pfq_series
from .identities import (
    IdentityDef,
    IdentityId,
    IdentityParams,
    VARIANTS,
    catalog,
    default_cap,
    equal_parameter_rhs,
    expand_lowered,
    expand_raised,
    get,
    product_expansion_lhs,
    product_expansion_rhs,
)
from .rationals import (
    Rational,
    RationalParseError,
    factorial,
    format_rational,
    is_nonpositive_integer,
    parse_rational,
    pochhammer,
)
from .reports import (
    AdmissibilityFinding,
    CoefficientMismatch,
    FloatResidual,
    ParameterRequirement,
    VerifyReport,
    compare_series,
    reports_to_csv,
)
from .series import TruncatedSeries, exp_series
from .verify import (
    DEFAULT_FLOAT_POINTS,
    DEFAULT_FLOAT_TOL,
    check_admissible,
    report_for_sides,
    sweep,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityFinding",
    "CoefficientMismatch",
    "DEFAULT_FLOAT_POINTS",
    "DEFAULT_FLOAT_TOL",
    "DegenerateParameterError",
    "FloatResidual",
    "FloatSum",
    "HypSpec",
    "IdentityDef",
    "IdentityId",
    "IdentityParams",
    "ParameterRequirement",
    "Rational",
    "RationalParseError",
    "TruncatedSeries",
    "VARIANTS",
    "VerifyReport",
    "bailey_product_series",
    "catalog",
    "check_admissible",
    "compare_series",
    "default_cap",
    "equal_parameter_rhs",
    "expand_lowered",
    "expand_raised",
    "exp_series",
    "factorial",
    "format_rational",
    "get",
    "is_nonpositive_integer",
    "parse_rational",
    "pfq_eval_float",
    "pfq_series",
    "pochhammer",
    "product_expansion_lhs",
    "product_expansion_rhs",
    "report_for_sides",
    "reports_to_csv",
    "sweep",
    "verify_identity",
]
