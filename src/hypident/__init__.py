"""Exact-arithmetic verification of confluent hypergeometric product identities.

The package builds both sides of each identity in its catalog as truncated
power series over exact rationals, by two independent routes, and compares
coefficients. See ``hypident list`` on the command line for the catalog.
"""

from .hyper import DegenerateParameterError, FloatSum, HypSpec, pfq_eval_float
from .identities import (
    IdentityDef,
    IdentityId,
    IdentityParams,
    catalog,
    default_cap,
    get,
)
from .rationals import (
    RationalParseError,
    format_rational,
    is_nonpositive_integer,
    parse_rational,
    pochhammer,
)
from .reports import (
    AdmissibilityFinding,
    CoefficientMismatch,
    FloatResidual,
    VerifyReport,
    compare_series,
)
from .series import TruncatedSeries
from .verify import (
    DEFAULT_FLOAT_POINTS,
    DEFAULT_FLOAT_TOL,
    check_admissible,
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
    "RationalParseError",
    "TruncatedSeries",
    "VerifyReport",
    "catalog",
    "check_admissible",
    "compare_series",
    "default_cap",
    "format_rational",
    "get",
    "is_nonpositive_integer",
    "parse_rational",
    "pfq_eval_float",
    "pochhammer",
    "sweep",
    "verify_identity",
]
