"""Generalized hypergeometric series: exact truncations and float sums.

Exact coefficients come from the term-ratio recurrence

    c_{k+1} = c_k * prod(a_j + k) / (prod(b_j + k) * (k + 1))

so each degree costs one big-rational multiply and divide instead of fresh
rising-factorial products. The float path runs the same recurrence in
double precision with Neumaier-compensated accumulation, which keeps the
digits of alternating series at moderate arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import format_rational, is_nonpositive_integer, parse_rational
from .series import TruncatedSeries

__all__ = [
    "DegenerateParameterError",
    "FloatSum",
    "HypSpec",
    "bailey_product_series",
    "bailey_product_spec",
    "pfq_eval_float",
    "pfq_series",
]


class DegenerateParameterError(ValueError):
    """A denominator factor vanishes, so the requested object is undefined.

    ``expr`` names the offending quantity in terms of the caller's
    parameters, ``value`` is its exact value, and ``index`` is the series
    or Pochhammer index at which the zero factor appears.
    """

    def __init__(self, expr: str, value: Fraction | int, index: int):
        self.expr = expr
        self.value = Fraction(value)
        self.index = index
        super().__init__(
            f"degenerate parameter: {expr} = {format_rational(self.value)} "
            f"(zero factor at index {index})"
        )


@dataclass(frozen=True)
class HypSpec:
    """Parameter block of a pFq series: upper (numerator) and lower
    (denominator) parameter tuples.

    Lower parameters that are nonpositive integers are rejected at
    construction, because the term recurrence would divide by zero before
    reaching the cap.
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        for pos, b in enumerate(self.lower):
            if is_nonpositive_integer(b):
                raise DegenerateParameterError(f"lower[{pos}]", b, int(-b))

    def to_json_dict(self) -> dict:
        return {
            "upper": [format_rational(a) for a in self.upper],
            "lower": [format_rational(b) for b in self.lower],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "HypSpec":
        return HypSpec(
            upper=tuple(parse_rational(a) for a in doc["upper"]),
            lower=tuple(parse_rational(b) for b in doc["lower"]),
        )


def pfq_series(spec: HypSpec, cap: int) -> TruncatedSeries:
    """Exact truncation of pFq(upper; lower; x) to the given cap.

    Once a term hits zero (an upper parameter was a nonpositive integer)
    every later term is zero too, so the loop stops early and the series
    is genuinely polynomial.
    """
    if cap < 0:
        raise ValueError("series cap must be nonnegative")
    coeffs = [Fraction(1)] + [Fraction(0)] * cap
    term = Fraction(1)
    for k in range(cap):
        num = Fraction(1)
        for a in spec.upper:
            num *= a + k
        if num == 0:
            break
        den = Fraction(k + 1)
        for b in spec.lower:
            den *= b + k
        term = term * num / den
        coeffs[k + 1] = term
    return TruncatedSeries(cap, tuple(coeffs))


@dataclass(frozen=True)
class FloatSum:
    """Outcome of a floating-point series summation.

    ``converged`` is False when the term budget ran out before the stopping
    rule fired; the partial value is still reported so callers can decide
    what to do with it.
    """

    value: float
    converged: bool
    terms: int
    last_term: float


def pfq_eval_float(
    spec: HypSpec,
    x: float,
    tol: float = 1e-15,
    max_terms: int = 500,
) -> FloatSum:
    """Sum pFq(upper; lower; x) in double precision.

    Terms follow the same ratio recurrence as the exact path. Accumulation
    is Neumaier-compensated and the sum stops once ``|term| <= tol *
    |partial sum|``. Intended working range is roughly ``|x| <= 40`` with
    at most as many upper as lower parameters; outside that, expect the
    budget to run out and ``converged`` to come back False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    upper = [float(a) for a in spec.upper]
    lower = [float(b) for b in spec.lower]

    total = 1.0  # k = 0 term
    comp = 0.0
    term = 1.0
    for k in range(max_terms):
        ratio = x / (k + 1.0)
        for a in upper:
            ratio *= a + k
        for b in lower:
            ratio /= b + k
        term *= ratio
        fresh = total + term
        if abs(total) >= abs(term):
            comp += (total - fresh) + term
        else:
            comp += (term - fresh) + total
        total = fresh
        if abs(term) <= tol * abs(total + comp):
            return FloatSum(total + comp, True, k + 2, term)
    return FloatSum(total + comp, False, max_terms + 1, term)


def bailey_product_spec(rho: Fraction | int, sigma: Fraction | int) -> HypSpec:
    """Parameters of the single series equal to 0F1(; rho; t) * 0F1(; sigma; t).

    The product is ``2F3((rho+sigma)/2, (rho+sigma-1)/2; rho, sigma,
    rho+sigma-1; 4t)``. Degenerate rho, sigma, or rho+sigma-1 raise here.
    """
    s = Fraction(rho) + Fraction(sigma)
    return HypSpec(upper=(s / 2, (s - 1) / 2), lower=(rho, sigma, s - 1))


def bailey_product_series(rho: Fraction | int, sigma: Fraction | int, cap: int) -> TruncatedSeries:
    """Single-series form of the product 0F1(; rho; t) * 0F1(; sigma; t).

    Returns the exact truncation of the :func:`bailey_product_spec` series
    at ``4t``, as a series in t, the variable the two factors share.
    Degenerate parameters raise before any work happens.
    """
    return pfq_series(bailey_product_spec(rho, sigma), cap).scale_argument(4)
