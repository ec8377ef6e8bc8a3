"""The identity catalog: every checkable equation this package knows about.

Each catalog entry pairs two independent constructions of the same object.
For the series identities each side is declared once, as a :class:`Side`:
an optional exponential prefactor times a sum of weighted products of
``pFq`` factors. The left side of every entry names only raw factors, so
its series is a plain Cauchy product; the right side is its structured
closed form. Two interpreters turn one declaration into an exact
:class:`~hypident.series.TruncatedSeries` and into a float, so a single
coefficient comparison settles the claim up to the cap and the float
cross-check evaluates exactly the sides that were compared. Two entries are
fixed-argument summation theorems whose closed form is a Gamma-function
ratio; those are checked in floating point. One entry is a terminating sum
checked as a single exact scalar equation.

Entries are addressed by stable catalog tags ("1.1" through "3.3"). The
tags are opaque identifiers used by the command line and in reports; the
enum member names say what each identity does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .hyper import DegenerateParameterError, FloatSum, HypSpec, bailey_product_spec, pfq_eval_float, pfq_series
from .rationals import factorial, format_rational, is_nonpositive_integer, pochhammer
from .reports import ParameterRequirement
from .series import TruncatedSeries, exp_series

__all__ = [
    "IdentityDef",
    "IdentityId",
    "IdentityParams",
    "VARIANTS",
    "catalog",
    "default_cap",
    "equal_parameter_rhs",
    "expand_lowered",
    "expand_raised",
    "get",
    "product_expansion_lhs",
    "product_expansion_rhs",
]

HALF = Fraction(1, 2)

#: Variant labels for the shifted-product family: first letter says whether
#: the first factor's lower parameter is raised (P) or lowered (M) by i,
#: second letter the same for j.
VARIANTS = ("PP", "MM", "PM")

_FLOAT_TOL = 1e-16
_FLOAT_TERMS = 800


class IdentityId(str, Enum):
    """Catalog tags. The value is the stable tag used in CLI and reports."""

    KUMMER_FIRST = "1.1"
    KUMMER_SECOND = "1.2"
    GAUSS_TERMINATING = "1.3"
    GAUSS_SECOND = "1.4"
    KUMMER_SECOND_SCALED = "1.5"
    PREECE_ALTERNATING = "1.6"
    BAILEY_ALTERNATING = "1.7"
    WATSON_UNIT = "1.8"
    PREECE_SQUARED = "1.9"
    BAILEY_MATCHED = "1.10"
    F01_PRODUCT = "1.11"
    CONTIG_RAISED = "1.12"
    CONTIG_LOWERED = "1.13"
    EXPAND_RAISED = "1.17"
    EXPAND_LOWERED = "1.18"
    PRODUCT_PP = "2.1"
    PRODUCT_MM = "2.2"
    PRODUCT_PM = "2.3"
    EQUAL_PARAM_PP = "3.1"
    EQUAL_PARAM_MM = "3.2"
    EQUAL_PARAM_PM = "3.3"


def default_cap(i: int = 0, j: int = 0) -> int:
    """Default truncation degree, comfortably past the x**(m+n) prefactors."""
    return 2 * (i + j) + 16


@dataclass(frozen=True)
class IdentityParams:
    """Parameter bundle for one verification run.

    ``alpha`` and ``beta`` are the free rational parameters (``beta`` is
    ignored by the one-parameter identities), ``i`` and ``j`` the
    nonnegative integer shifts, ``cap`` the truncation degree (None means
    ``default_cap(i, j)``). ``gamma`` is the third rational of the
    unit-argument summation check. ``printed_form`` switches the mixed
    product variant to its alternate transcription; see
    :func:`product_expansion_rhs`.
    """

    alpha: Fraction
    beta: Fraction | None = None
    i: int = 0
    j: int = 0
    cap: int | None = None
    gamma: Fraction | None = None
    printed_form: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", Fraction(self.beta))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.i < 0 or self.j < 0:
            raise ValueError("shifts i and j must be nonnegative")
        if self.cap is not None and self.cap < 0:
            raise ValueError("cap must be nonnegative")

    @property
    def effective_cap(self) -> int:
        return self.cap if self.cap is not None else default_cap(self.i, self.j)

    def describe(self) -> str:
        bits = [f"alpha={format_rational(self.alpha)}"]
        if self.beta is not None:
            bits.append(f"beta={format_rational(self.beta)}")
        if self.gamma is not None:
            bits.append(f"gamma={format_rational(self.gamma)}")
        bits.append(f"i={self.i}")
        bits.append(f"j={self.j}")
        bits.append(f"cap={self.effective_cap}")
        if self.printed_form:
            bits.append("printed_form")
        return " ".join(bits)

    def to_json_dict(self) -> dict:
        doc = {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta) if self.beta is not None else None,
            "i": self.i,
            "j": self.j,
            "cap": self.effective_cap,
        }
        if self.gamma is not None:
            doc["gamma"] = format_rational(self.gamma)
        if self.printed_form:
            doc["printed_form"] = True
        return doc


def _nonzero_poch(expr: str, base: Fraction, count: int) -> Fraction:
    """Rising factorial that must not vanish (a denominator weight)."""
    value = pochhammer(base, count)
    if value == 0:
        raise DegenerateParameterError(expr, base, int(-base) + 1)
    return value


def _float_pfq(spec: HypSpec, x: float, max_terms: int = _FLOAT_TERMS) -> tuple[float, bool]:
    result = pfq_eval_float(spec, x, tol=_FLOAT_TOL, max_terms=max_terms)
    return result.value, result.converged


# --------------------------------------------------------------------------
# side descriptions and their two interpreters


@dataclass(frozen=True)
class Arg:
    """Argument of one pFq factor: ``c*x``, or ``x**2/c`` when ``squared``."""

    c: int = 1
    squared: bool = False

    def t_cap(self, cap: int) -> int:
        """Degree in t that a series in x needs up to ``x**cap``."""
        return cap // 2 if self.squared else cap

    def series(self, s: TruncatedSeries, cap: int) -> TruncatedSeries:
        """Substitute this argument into the series ``s`` of pFq(t), expanded
        to ``t_cap(cap)``, giving a series in x up to ``x**cap``."""
        if self.squared:
            return s.substitute_even(self.c, cap)
        return s if self.c == 1 else s.scale_argument(self.c)

    def at(self, x: float) -> float:
        return x * x / self.c if self.squared else self.c * x


_X = Arg()
_NEG_X = Arg(-1)
_SQ4 = Arg(4, squared=True)
_SQ16 = Arg(16, squared=True)

Factor = tuple[HypSpec, Arg]


@dataclass(frozen=True)
class Term:
    """``weight * x**power`` times the product of its ``pFq(spec; arg)`` factors."""

    factors: tuple[Factor, ...]
    weight: Fraction = Fraction(1)
    power: int = 0


@dataclass(frozen=True)
class Side:
    """A sum of terms times ``e**(exp*x)``; ``exp`` is 0, +-1/2 or +-1."""

    terms: tuple[Term, ...]
    exp: Fraction = Fraction(0)


def _f11(a: Fraction, b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((a,), (b,)), arg


def _f01(b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((), (b,)), arg


def _product(*factors: Factor, exp: Fraction | int = 0) -> Side:
    """One unweighted term: the plain product of its factors."""
    return Side((Term(factors),), Fraction(exp))


def _side_series(side: Side, cap: int) -> TruncatedSeries:
    """Exact truncation of a side.

    A term ``x**power * F(...)`` is expanded only to ``x**(cap - power)``
    and then shifted up to the cap, so each pFq factor is expanded only to
    the degree in t that still reaches the cap; a term whose power is past
    the cap contributes nothing. A spec that two factors of one term share
    is expanded once; specs repeat only within a term, so no expansion is
    kept past its term.
    """
    total = None
    for term in side.terms:
        need = cap - term.power
        if need < 0:
            continue
        expanded: dict[tuple[HypSpec, int], TruncatedSeries] = {}
        block = None
        for spec, arg in term.factors:
            key = spec, arg.t_cap(need)
            series = expanded.get(key)
            if series is None:
                series = expanded[key] = pfq_series(*key)
            factor = arg.series(series, need)
            block = factor if block is None else block * factor
        if term.power:
            block = block.shift(term.power, cap)
        if term.weight != 1:
            block = block.scale(term.weight)
        total = block if total is None else total + block
    if total is None:
        total = TruncatedSeries.zero(cap)
    if side.exp:
        total = exp_series(cap, 1 if side.exp > 0 else -1, half=abs(side.exp) == HALF) * total
    return total


def _side_float(side: Side, x: float) -> tuple[float, bool]:
    """Float value of a side at x, and whether every factor's sum converged."""
    values: dict[Factor, tuple[float, bool]] = {}
    total = 0.0
    ok = True
    for term in side.terms:
        value = float(term.weight) * x**term.power
        for factor in term.factors:
            if factor not in values:
                spec, arg = factor
                values[factor] = _float_pfq(spec, arg.at(x))
            factor_value, converged = values[factor]
            value *= factor_value
            ok = ok and converged
        total += value
    if side.exp:
        total *= math.exp(side.exp * x)
    return total, ok


# --------------------------------------------------------------------------
# expansion of e**(-x/2) 1F1(alpha; 2*alpha +/- i; x) into shifted 0F1 blocks
#
# The lowered expansion is the raised one at alpha - i with alternating
# signs. ``names`` spells (parameter, shift, summation index) in messages,
# so the same code serves as either factor of a product.

_FIRST = ("alpha", "i", "m")
_SECOND = ("beta", "j", "n")


def _expansion_spelling(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str]
) -> tuple[Fraction, str, str, str]:
    """Base parameter of the raised form, then how to write its lower
    parameter ``2*alpha +/- i``, its weight base and its block parameter."""
    a, s, k = names
    if raised:
        return alpha, f"2*{a} + {s}", f"{a} - 1/2", f"{a} + {k} + 1/2"
    return alpha - i, f"2*{a} - {s}", f"{a} - {s} - 1/2", f"{a} + {k} - {s} + 1/2"


def _expansion_terms(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str] = _FIRST
) -> list[tuple[Fraction, int, Fraction]]:
    """``(weight, m, rho)`` triples: the expansion is the sum of
    ``weight * x**m * 0F1(; rho; x**2/16)``. Zero weights are dropped."""
    base, lower, weight_base, _ = _expansion_spelling(alpha, i, raised, names)
    k = names[2]
    sign = 1 if raised else -1
    terms = []
    for m in range(i + 1):
        # denominator guards run before the zero-numerator shortcut so that
        # a 0/0 weight raises instead of being silently dropped
        den = (
            _nonzero_poch(f"({lower})_{k}", 2 * base + i, m)
            * _nonzero_poch(f"({weight_base})_{k}", base - HALF, m)
            * factorial(m)
            * 4**m
        )
        num = sign**m * pochhammer(Fraction(-i), m) * pochhammer(2 * base - 1, m)
        if num != 0:
            terms.append((num / den, m, base + m + HALF))
    return terms


def _expansion_side(alpha: Fraction, i: int, raised: bool) -> Side:
    return Side(tuple(
        Term((_f01(rho, _SQ16),), weight, m)
        for weight, m, rho in _expansion_terms(alpha, i, raised)
    ))


def expand_raised(alpha: Fraction | int, i: int, cap: int) -> TruncatedSeries:
    """Structured form of ``e**(-x/2) * 1F1(alpha; 2*alpha + i; x)``.

    A sum over ``m <= i`` of weighted ``x**m * 0F1(; alpha + m + 1/2;
    x**2/16)`` blocks. Degenerate weights raise before any series work.
    """
    if i < 0:
        raise ValueError("shift i must be nonnegative")
    return _side_series(_expansion_side(Fraction(alpha), i, raised=True), cap)


def expand_lowered(alpha: Fraction | int, i: int, cap: int) -> TruncatedSeries:
    """Structured form of ``e**(-x/2) * 1F1(alpha; 2*alpha - i; x)``."""
    if i < 0:
        raise ValueError("shift i must be nonnegative")
    return _side_series(_expansion_side(Fraction(alpha), i, raised=False), cap)


# --------------------------------------------------------------------------
# the shifted-product family: 1F1(alpha; 2*alpha +/- i; x) * 1F1(beta; 2*beta +/- j; x)


def _variant_raised(variant: str) -> tuple[bool, bool]:
    """Whether each factor's lower parameter is raised (P) or lowered (M)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant[0] == "P", variant[1] == "P"


def _product_lhs(variant: str, params: IdentityParams, beta: Fraction) -> Side:
    """The raw product of the two confluent factors, nothing else."""
    first_raised, second_raised = _variant_raised(variant)
    alpha, i, j = params.alpha, params.i, params.j
    return _product(
        _f11(alpha, 2 * alpha + (i if first_raised else -i)),
        _f11(beta, 2 * beta + (j if second_raised else -j)),
    )


def _product_rhs(variant: str, params: IdentityParams) -> Side:
    """Composed closed form: e**x times the product of the two factors'
    1.17/1.18 expansions, each pair of 0F1 blocks merged by the 1.11 block.

    Multiplying the two expansions gives ``e**x`` times a double sum of
    ``w1 * w2 * x**(m+n) * 0F1(; rho; t) 0F1(; sigma; t)`` with
    ``t = x**2/16``, and 1.11 turns each 0F1 pair into one 2F3 at ``4t``.
    The printed-form mixed variant indexes the second shift factor by m:
    its weight is overridden by ``(-j)_m / (-j)_n``.
    """
    first_raised, second_raised = _variant_raised(variant)
    first = _expansion_terms(params.alpha, params.i, first_raised)
    second = _expansion_terms(params.beta, params.j, second_raised, _SECOND)
    printed = params.printed_form and variant == "PM"
    minus_j = Fraction(-params.j)
    terms = []
    for w1, m, rho in first:
        for w2, n, sigma in second:
            weight = w1 * w2
            if printed:
                weight = weight * pochhammer(minus_j, m) / pochhammer(minus_j, n)
            if weight != 0:
                terms.append(Term(((bailey_product_spec(rho, sigma), _SQ4),), weight, m + n))
    return Side(tuple(terms), Fraction(1))


def product_expansion_lhs(variant: str, params: IdentityParams) -> TruncatedSeries:
    """Raw product side: the two confluent factors Cauchy-multiplied.

    No structure from the closed form is reused here; this is the oracle
    the structured side is judged against.
    """
    return _side_series(_product_lhs(variant, params, params.beta), params.effective_cap)


def product_expansion_rhs(variant: str, params: IdentityParams) -> TruncatedSeries:
    """Structured side: e**x times the double sum of weighted 2F3 blocks.

    The mixed variant defaults to the transcription whose second shift
    factor is indexed by n, which is the reading the raw product confirms;
    ``params.printed_form`` selects the m-indexed transcription instead,
    which disagrees with the product at every nonzero shift.
    """
    return _side_series(_product_rhs(variant, params), params.effective_cap)


# --------------------------------------------------------------------------
# equal-parameter forms of the shifted products (beta = alpha), written out
# from their own single-parameter closed forms rather than by substitution


def _equal_param_term(
    variant: str,
    alpha: Fraction,
    i: int,
    j: int,
    m: int,
    n: int,
    printed_form: bool = False,
) -> tuple[Fraction, HypSpec]:
    if variant == "PP":
        sign = Fraction(1)
        num = (
            pochhammer(Fraction(-i), m)
            * pochhammer(Fraction(-j), n)
            * pochhammer(2 * alpha - 1, m)
            * pochhammer(2 * alpha - 1, n)
        )
        den = (
            _nonzero_poch("(2*alpha + i)_m", 2 * alpha + i, m)
            * _nonzero_poch("(2*alpha + j)_n", 2 * alpha + j, n)
            * _nonzero_poch("(alpha - 1/2)_m", alpha - HALF, m)
            * _nonzero_poch("(alpha - 1/2)_n", alpha - HALF, n)
        )
        shift_sum = m + n
        first_lower = alpha + m + HALF
        second_lower = alpha + n + HALF
    elif variant == "MM":
        sign = Fraction(-1) ** (m + n)
        num = (
            pochhammer(Fraction(-i), m)
            * pochhammer(Fraction(-j), n)
            * pochhammer(2 * alpha - 2 * i - 1, m)
            * pochhammer(2 * alpha - 2 * j - 1, n)
        )
        den = (
            _nonzero_poch("(2*alpha - i)_m", 2 * alpha - i, m)
            * _nonzero_poch("(2*alpha - j)_n", 2 * alpha - j, n)
            * _nonzero_poch("(alpha - i - 1/2)_m", alpha - i - HALF, m)
            * _nonzero_poch("(alpha - j - 1/2)_n", alpha - j - HALF, n)
        )
        shift_sum = m + n - i - j
        first_lower = alpha + m - i + HALF
        second_lower = alpha + n - j + HALF
    elif variant == "PM":
        sign = Fraction(-1) ** n
        second_shift = pochhammer(Fraction(-j), m if printed_form else n)
        num = (
            pochhammer(Fraction(-i), m)
            * second_shift
            * pochhammer(2 * alpha - 1, m)
            * pochhammer(2 * alpha - 2 * j - 1, n)
        )
        den = (
            _nonzero_poch("(2*alpha + i)_m", 2 * alpha + i, m)
            * _nonzero_poch("(2*alpha - j)_n", 2 * alpha - j, n)
            * _nonzero_poch("(alpha - 1/2)_m", alpha - HALF, m)
            * _nonzero_poch("(alpha - j - 1/2)_n", alpha - j - HALF, n)
        )
        shift_sum = m + n - j
        first_lower = alpha + m + HALF
        second_lower = alpha + n - j + HALF
    else:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")

    weight = sign * num / (den * factorial(m) * factorial(n) * Fraction(4) ** (m + n))
    s = 2 * alpha + shift_sum
    spec = HypSpec(
        upper=((s + 1) / 2, s / 2),
        lower=(first_lower, second_lower, s),
    )
    return weight, spec


def _equal_param_rhs(variant: str, params: IdentityParams) -> Side:
    terms = []
    for m in range(params.i + 1):
        for n in range(params.j + 1):
            weight, spec = _equal_param_term(
                variant, params.alpha, params.i, params.j, m, n, params.printed_form
            )
            if weight != 0:
                terms.append(Term(((spec, _SQ4),), weight, m + n))
    return Side(tuple(terms), Fraction(1))


def equal_parameter_rhs(
    variant: str,
    alpha: Fraction | int,
    i: int,
    j: int,
    cap: int,
    printed_form: bool = False,
) -> TruncatedSeries:
    """Single-parameter closed form of the shifted product at beta = alpha.

    Written out from its own formula (only alpha appears), so comparing it
    against the two-parameter composed side at beta = alpha is a real
    consistency check rather than a tautology.
    """
    params = IdentityParams(alpha=alpha, i=i, j=j, cap=cap, printed_form=printed_form)
    return _side_series(_equal_param_rhs(variant, params), cap)


# --------------------------------------------------------------------------
# scalar closed forms checked at a fixed argument


def _gamma_ratio(numerators: list[Fraction], denominators: list[Fraction]) -> float:
    """Ratio of Gamma factors in double precision.

    A pole in a denominator factor contributes a zero to the ratio, so the
    whole value is 0.0; a pole in a numerator factor leaves the ratio
    undefined and raises.
    """
    for g in numerators:
        if is_nonpositive_integer(g):
            raise DegenerateParameterError(f"Gamma({format_rational(g)})", g, 0)
    for g in denominators:
        if is_nonpositive_integer(g):
            return 0.0
    value = 1.0
    for g in numerators:
        value *= math.gamma(float(g))
    for g in denominators:
        value /= math.gamma(float(g))
    return value


def gauss_terminating_sides(n: int, b: Fraction, c: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating unit-argument sum, exactly.

    Left: sum_{k<=n} (-n)_k (b)_k / ((c)_k k!). Right: (c-b)_n / (c)_n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = Fraction(b)
    c = Fraction(c)
    _nonzero_poch("(c)_n", c, n)
    lhs = Fraction(0)
    for k in range(n + 1):
        lhs += (
            pochhammer(Fraction(-n), k)
            * pochhammer(b, k)
            / (_nonzero_poch("(c)_k", c, k) * factorial(k))
        )
    rhs = pochhammer(c - b, n) / pochhammer(c, n)
    return lhs, rhs


def gauss_second_sides_float(a: Fraction, b: Fraction) -> tuple[float, float, FloatSum]:
    """Half-argument 2F1 sum against its Gamma-ratio closed form.

    Returns the summed left side, the closed form, and the left side's
    :class:`~hypident.hyper.FloatSum` (convergence, terms, ``abs_sum``).
    """
    a = Fraction(a)
    b = Fraction(b)
    spec = HypSpec((a, b), ((a + b + 1) / 2,))
    lhs = pfq_eval_float(spec, 0.5, tol=_FLOAT_TOL, max_terms=600)
    rhs = _gamma_ratio(
        [HALF, (a + b + 1) / 2],
        [(a + 1) / 2, (b + 1) / 2],
    )
    return lhs.value, rhs, lhs


def watson_unit_sides_float(a: Fraction, b: Fraction, c: Fraction) -> tuple[float, float, FloatSum]:
    """Unit-argument 3F2 sum against its Gamma-ratio closed form.

    Returned as :func:`gauss_second_sides_float` returns its sides. The
    sum converges only polynomially at the unit argument; its tail is
    bounded by telescoping (:func:`~hypident.hyper.pfq_eval_float`), from
    the series' own parameters, never from the closed form.
    """
    a = Fraction(a)
    b = Fraction(b)
    c = Fraction(c)
    spec = HypSpec((a, b, c), ((a + b + 1) / 2, 2 * c))
    lhs = pfq_eval_float(spec, 1.0, tol=_FLOAT_TOL, max_terms=400_000)
    rhs = _gamma_ratio(
        [HALF, c + HALF, (a + b + 1) / 2, c - (a + b) / 2 + HALF],
        [(a + 1) / 2, (b + 1) / 2, c - a / 2 + HALF, c - b / 2 + HALF],
    )
    return lhs.value, rhs, lhs


# --------------------------------------------------------------------------
# requirement enumerations (admissibility, checked before any building)


def _req_lower(expr: str, value: Fraction, where: str = "") -> ParameterRequirement:
    return ParameterRequirement("lower", expr, value, where=where)


def _req_poch(expr: str, value: Fraction, max_index: int) -> ParameterRequirement:
    return ParameterRequirement("poch", expr, value, max_index=max_index)


def _expand_requirements(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str] = _FIRST
) -> tuple[list[ParameterRequirement], list[ParameterRequirement]]:
    """Admissibility of one expansion: the conditions on its factor and
    weights, then the lower parameter of every block."""
    base, lower, weight_base, block = _expansion_spelling(alpha, i, raised, names)
    k = names[2]
    weights = [
        _req_lower(lower, 2 * base + i),
        _req_poch(f"({lower})_{k}", 2 * base + i, i),
        _req_poch(f"({weight_base})_{k}", base - HALF, i),
    ]
    blocks = [
        _req_lower(block, base + m + HALF, where=f"summand {k}={m}")
        for m in range(i + 1)
    ]
    return weights, blocks


def _product_requirements(variant: str, params: IdentityParams, equal_param: bool = False) -> list[ParameterRequirement]:
    """Both expansions' requirements, then the third lower parameter
    ``rho + sigma - 1`` of every 1.11 block."""
    first_raised, second_raised = _variant_raised(variant)
    alpha, i, j = params.alpha, params.i, params.j
    beta, b_name = (alpha, "alpha") if equal_param else (params.beta, "beta")
    first_weights, first_blocks = _expand_requirements(alpha, i, first_raised)
    second_weights, second_blocks = _expand_requirements(beta, j, second_raised, (b_name, "j", "n"))
    reqs = first_weights + second_weights + first_blocks + second_blocks

    # rho + sigma - 1 is alpha + beta plus a shift running over m + n,
    # offset by -i for a lowered first factor and -j for a lowered second
    s_name = "2*alpha" if equal_param else "alpha + beta"
    low = (0 if first_raised else -i) + (0 if second_raised else -j)
    for shift in range(low, low + i + j + 1):
        sign = "+" if shift >= 0 else "-"
        expr = f"{s_name} {sign} {abs(shift)}" if shift != 0 else s_name
        reqs.append(_req_lower(expr, alpha + beta + shift, where=f"summand shift {shift}"))
    return reqs


def _watson_requirements(params: IdentityParams) -> list[ParameterRequirement]:
    a, b, c = params.alpha, params.beta, params.gamma
    reqs = [
        _req_lower("(alpha + beta + 1)/2", (a + b + 1) / 2),
        _req_lower("2*gamma", 2 * c),
        ParameterRequirement("gamma", "gamma + 1/2", c + HALF),
        ParameterRequirement("gamma", "gamma - (alpha + beta)/2 + 1/2", c - (a + b) / 2 + HALF),
    ]
    terminating = any(is_nonpositive_integer(u) for u in (a, b, c))
    if not terminating:
        reqs.append(
            ParameterRequirement("positive", "2*gamma - alpha - beta + 1", 2 * c - a - b + 1)
        )
    return reqs


# --------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class IdentityDef:
    """One catalog entry: how to build, evaluate, and sanity-check it.

    ``kind`` is "series" (both sides are exact truncated series, float
    evaluation is advisory), "exact_sum" (one exact scalar equation), or
    "float_sum" (scalar closed form checked in floating point at
    ``fixed_argument``).
    """

    id: IdentityId
    name: str
    summary: str
    uses: tuple[str, ...]
    kind: str
    build_lhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    build_rhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    lhs_float: Callable[[IdentityParams, float], tuple[float, bool]] | None = None
    rhs_float: Callable[[IdentityParams, float], tuple[float, bool]] | None = None
    scalar_exact: Callable[[IdentityParams], tuple[Fraction, Fraction]] | None = None
    scalar_float: Callable[[IdentityParams], tuple[float, float, FloatSum]] | None = None
    requirements: Callable[[IdentityParams], list[ParameterRequirement]] = lambda params: []
    notes: Callable[[IdentityParams], tuple[str, ...]] | None = None
    fixed_argument: float | None = None

    @property
    def tag(self) -> str:
        return self.id.value

    def validate_params(self, params: IdentityParams) -> None:
        if "beta" in self.uses and params.beta is None:
            raise ValueError(f"identity {self.tag} needs beta")
        if "gamma" in self.uses and params.gamma is None:
            raise ValueError(f"identity {self.tag} needs gamma")


_PM_NOTE_DEFAULT = (
    "mixed variant built with the second shift factor indexed by n "
    "(the reading the raw-product comparison confirms)"
)
_PM_NOTE_PRINTED = (
    "printed-form run: second shift factor indexed by m instead of n; "
    "disagrees with the raw product at every shift except i = j = 0"
)


def _pm_notes(params: IdentityParams) -> tuple[str, ...]:
    return (_PM_NOTE_PRINTED if params.printed_form else _PM_NOTE_DEFAULT,)


SideOf = Callable[[IdentityParams], Side]


def _series_entry(lhs: SideOf, rhs: SideOf, **fields) -> IdentityDef:
    """A series entry: both builders and both float evaluators come from
    the two side declarations."""
    return IdentityDef(
        kind="series",
        build_lhs=lambda p: _side_series(lhs(p), p.effective_cap),
        build_rhs=lambda p: _side_series(rhs(p), p.effective_cap),
        lhs_float=lambda p, x: _side_float(lhs(p), x),
        rhs_float=lambda p, x: _side_float(rhs(p), x),
        **fields,
    )


def _build_registry() -> dict[IdentityId, IdentityDef]:
    def halved_reqs(p: IdentityParams) -> list[ParameterRequirement]:
        return [
            _req_lower("2*alpha", 2 * p.alpha),
            _req_lower("alpha + 1/2", p.alpha + HALF),
        ]

    def bailey_reqs(p: IdentityParams) -> list[ParameterRequirement]:
        return [
            _req_lower("2*alpha", 2 * p.alpha),
            _req_lower("2*beta", 2 * p.beta),
            _req_lower("alpha + 1/2", p.alpha + HALF),
            _req_lower("beta + 1/2", p.beta + HALF),
            _req_lower("alpha + beta", p.alpha + p.beta),
        ]

    def preece_block(p: IdentityParams) -> Factor:
        return HypSpec((p.alpha,), (p.alpha + HALF, 2 * p.alpha)), _SQ4

    def bailey_block(p: IdentityParams) -> Factor:
        return bailey_product_spec(p.alpha + HALF, p.beta + HALF), _SQ4

    def contig_raised_rhs(p: IdentityParams) -> Side:
        a = p.alpha
        head = HypSpec((a,), (a + HALF, 2 * a))
        tail = HypSpec((a + 1,), (a + Fraction(3, 2), 2 * a + 1))
        return Side((
            Term(((head, _SQ4),)),
            Term(((tail, _SQ4),), Fraction(-1) / (2 * (2 * a + 1)), 1),
        ), Fraction(1))

    def contig_lowered_rhs(p: IdentityParams) -> Side:
        a = p.alpha
        head = HypSpec((a,), (a + HALF, 2 * a - 1))
        tail = HypSpec((a,), (a + HALF, 2 * a))
        return Side((
            Term(((head, _SQ4),)),
            Term(((tail, _SQ4),), Fraction(1) / (2 * (2 * a - 1)), 1),
        ), Fraction(1))

    defs = [
        # ---- two-parameter exponential-shift transformation
        _series_entry(
            id=IdentityId.KUMMER_FIRST,
            name="kummer-first",
            summary="e^(-x) 1F1(alpha; beta; x) = 1F1(beta - alpha; beta; -x)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, p.beta), exp=-1),
            rhs=lambda p: _product(_f11(p.beta - p.alpha, p.beta, _NEG_X)),
            requirements=lambda p: [_req_lower("beta", p.beta)],
        ),
        # ---- half-exponential square-argument transformations
        _series_entry(
            id=IdentityId.KUMMER_SECOND,
            name="kummer-second",
            summary="e^(-x/2) 1F1(alpha; 2*alpha; x) = 0F1(; alpha + 1/2; x^2/16)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), exp=-HALF),
            rhs=lambda p: _product(_f01(p.alpha + HALF, _SQ16)),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.KUMMER_SECOND_SCALED,
            name="kummer-second-scaled",
            summary="1F1(alpha; 2*alpha; 2x) = e^x 0F1(; alpha + 1/2; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha, Arg(2))),
            rhs=lambda p: _product(_f01(p.alpha + HALF, _SQ4), exp=1),
            requirements=halved_reqs,
        ),
        # ---- alternating and matched products of two confluent factors
        _series_entry(
            id=IdentityId.PREECE_ALTERNATING,
            name="preece-alternating",
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha; -x) = 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha, _NEG_X)),
            rhs=lambda p: _product(preece_block(p)),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.PREECE_SQUARED,
            name="preece-squared",
            summary="[1F1(alpha; 2*alpha; x)]^2 = e^x 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha)),
            rhs=lambda p: _product(preece_block(p), exp=1),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.BAILEY_ALTERNATING,
            name="bailey-alternating",
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; -x) = 2F3((alpha+beta)/2, (alpha+beta+1)/2; alpha + 1/2, beta + 1/2, alpha + beta; x^2/4)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta, _NEG_X)),
            rhs=lambda p: _product(bailey_block(p)),
            requirements=bailey_reqs,
        ),
        _series_entry(
            id=IdentityId.BAILEY_MATCHED,
            name="bailey-matched",
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; x) = e^x 2F3(...; x^2/4), same block as 1.7",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta)),
            rhs=lambda p: _product(bailey_block(p), exp=1),
            requirements=bailey_reqs,
        ),
        # ---- product of two 0F1 factors as one 2F3
        _series_entry(
            id=IdentityId.F01_PRODUCT,
            name="f01-product",
            summary="0F1(; alpha; t) 0F1(; beta; t) = 2F3((alpha+beta)/2, (alpha+beta-1)/2; alpha, beta, alpha+beta-1; 4t)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f01(p.alpha), _f01(p.beta)),
            rhs=lambda p: _product((bailey_product_spec(p.alpha, p.beta), Arg(4))),
            requirements=lambda p: [
                _req_lower("alpha", p.alpha),
                _req_lower("beta", p.beta),
                _req_lower("alpha + beta - 1", p.alpha + p.beta - 1),
            ],
        ),
        # ---- contiguous products (lower parameter off by one)
        _series_entry(
            id=IdentityId.CONTIG_RAISED,
            name="contiguous-raised",
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha+1; x) = e^x (1F2 block - x/(2(2*alpha+1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha + 1)),
            rhs=contig_raised_rhs,
            requirements=lambda p: [
                _req_lower("2*alpha", 2 * p.alpha),
                _req_lower("2*alpha + 1", 2 * p.alpha + 1),
                _req_lower("alpha + 1/2", p.alpha + HALF),
                _req_lower("alpha + 3/2", p.alpha + Fraction(3, 2)),
            ],
        ),
        _series_entry(
            id=IdentityId.CONTIG_LOWERED,
            name="contiguous-lowered",
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha-1; x) = e^x (1F2 block + x/(2(2*alpha-1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha - 1)),
            rhs=contig_lowered_rhs,
            requirements=lambda p: [
                _req_lower("2*alpha", 2 * p.alpha),
                _req_lower("2*alpha - 1", 2 * p.alpha - 1),
                _req_lower("alpha + 1/2", p.alpha + HALF),
            ],
        ),
        # ---- expansion of e^(-x/2) 1F1 with shifted lower parameter
        _series_entry(
            id=IdentityId.EXPAND_RAISED,
            name="expand-raised",
            summary="e^(-x/2) 1F1(alpha; 2*alpha+i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha + p.i), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=True),
            requirements=lambda p: sum(_expand_requirements(p.alpha, p.i, raised=True), []),
        ),
        _series_entry(
            id=IdentityId.EXPAND_LOWERED,
            name="expand-lowered",
            summary="e^(-x/2) 1F1(alpha; 2*alpha-i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m-i+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha - p.i), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=False),
            requirements=lambda p: sum(_expand_requirements(p.alpha, p.i, raised=False), []),
        ),
    ]

    # ---- the shifted-product family and its equal-parameter forms

    for variant, prod_id, equal_id in (
        ("PP", IdentityId.PRODUCT_PP, IdentityId.EQUAL_PARAM_PP),
        ("MM", IdentityId.PRODUCT_MM, IdentityId.EQUAL_PARAM_MM),
        ("PM", IdentityId.PRODUCT_PM, IdentityId.EQUAL_PARAM_PM),
    ):
        first_desc = "2*alpha+i" if variant[0] == "P" else "2*alpha-i"
        second_desc = "2*beta+j" if variant[1] == "P" else "2*beta-j"
        notes = _pm_notes if variant == "PM" else None

        defs.append(_series_entry(
            id=prod_id,
            name=f"product-{variant.lower()}",
            summary=(
                f"1F1(alpha; {first_desc}; x) 1F1(beta; {second_desc}; x) "
                "= e^x times a double sum of weighted x^(m+n) 2F3(...; x^2/4) blocks"
            ),
            uses=("alpha", "beta", "i", "j"),
            notes=notes,
            lhs=lambda p, v=variant: _product_lhs(v, p, p.beta),
            rhs=lambda p, v=variant: _product_rhs(v, p),
            requirements=lambda p, v=variant: _product_requirements(v, p),
        ))

        second_desc_eq = second_desc.replace("beta", "alpha")
        defs.append(_series_entry(
            id=equal_id,
            name=f"equal-param-{variant.lower()}",
            summary=(
                f"beta = alpha form: 1F1(alpha; {first_desc}; x) 1F1(alpha; {second_desc_eq}; x) "
                "as e^x times a double sum written with alpha only"
            ),
            uses=("alpha", "i", "j"),
            notes=notes,
            lhs=lambda p, v=variant: _product_lhs(v, p, p.alpha),
            rhs=lambda p, v=variant: _equal_param_rhs(v, p),
            requirements=lambda p, v=variant: _product_requirements(v, p, equal_param=True),
        ))

    # ---- scalar closed forms

    defs.append(IdentityDef(
        id=IdentityId.GAUSS_TERMINATING,
        name="gauss-terminating",
        summary="2F1(-n, b; c; 1) = (c - b)_n / (c)_n, exact, with n = i, b = alpha, c = beta",
        uses=("alpha", "beta", "i"),
        kind="exact_sum",
        scalar_exact=lambda p: gauss_terminating_sides(p.i, p.alpha, p.beta),
        requirements=lambda p: [_req_poch("(beta)_k, k <= i", p.beta, p.i)],
    ))

    defs.append(IdentityDef(
        id=IdentityId.GAUSS_SECOND,
        name="gauss-second",
        summary="2F1(a, b; (a+b+1)/2; 1/2) equals a Gamma ratio (float check), a = alpha, b = beta",
        uses=("alpha", "beta"),
        kind="float_sum",
        scalar_float=lambda p: gauss_second_sides_float(p.alpha, p.beta),
        requirements=lambda p: [_req_lower("(alpha + beta + 1)/2", (p.alpha + p.beta + 1) / 2)],
        fixed_argument=0.5,
    ))

    defs.append(IdentityDef(
        id=IdentityId.WATSON_UNIT,
        name="watson-unit",
        summary="3F2(a, b, c; (a+b+1)/2, 2c; 1) equals a Gamma ratio (float check), a = alpha, b = beta, c = gamma",
        uses=("alpha", "beta", "gamma"),
        kind="float_sum",
        scalar_float=lambda p: watson_unit_sides_float(p.alpha, p.beta, p.gamma),
        requirements=_watson_requirements,
        fixed_argument=1.0,
    ))

    return {d.id: d for d in defs}


_REGISTRY = _build_registry()

_ORDER = [
    "1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "1.10",
    "1.11", "1.12", "1.13", "1.17", "1.18", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3",
]


def get(identity: IdentityId | str) -> IdentityDef:
    """Look up a catalog entry by enum member or tag string."""
    if isinstance(identity, str) and not isinstance(identity, IdentityId):
        try:
            identity = IdentityId(identity)
        except ValueError:
            known = ", ".join(_ORDER)
            raise ValueError(f"unknown identity tag {identity!r} (known: {known})") from None
    return _REGISTRY[identity]


def catalog() -> tuple[IdentityDef, ...]:
    """All entries in tag order."""
    return tuple(get(tag) for tag in _ORDER)
