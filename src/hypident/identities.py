"""The identity catalog: every checkable equation this package knows about.

Each catalog entry pairs two independent constructions of the same object.
For the series identities each side is declared once, as a :class:`Side`:
an optional exponential prefactor times a sum of weighted products of
``pFq`` factors. The left side of every entry names only raw factors, so
its series is a product of raw factors, taken as a binomial convolution of
their exponential generating functions; the right side is its structured
closed form. Two interpreters turn one declaration into an exact
:class:`~hypident.series.TruncatedSeries` and into a float, so a single
coefficient comparison settles the claim up to the cap and the float
cross-check evaluates exactly the sides that were compared. Two entries are
fixed-argument summation theorems whose closed form is a Gamma-function
ratio; those are checked in floating point. One entry is a terminating sum
checked as a single exact scalar equation.

Entries are addressed by stable catalog tags ("1.1" through "3.3"). The
tags are opaque identifiers used by the command line and in reports; the
enum member names, in kebab case, are the entry names and say what each
identity does.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .hyper import DegenerateParameterError, FloatSum, HypSpec, _bailey_double_sum, _pfq_integers, bailey_product_spec, pfq_eval_float
from .rationals import format_rational, is_nonpositive_integer, pochhammer
from .reports import AdmissibilityFinding, check_lower, check_poch, check_pole, check_positive
from .series import TruncatedSeries

__all__ = [
    "IdentityDef",
    "IdentityId",
    "IdentityParams",
    "catalog",
    "default_cap",
    "get",
]

HALF = Fraction(1, 2)

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
    CONTIGUOUS_RAISED = "1.12"
    CONTIGUOUS_LOWERED = "1.13"
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
    product variants (2.3, 3.3) to their alternate transcription, whose
    second shift factor is indexed by m instead of n.
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


Expansion = tuple[tuple[Fraction, int, Fraction], ...]


@dataclass(frozen=True)
class ProductSide:
    """``e**x`` times the product of two 1.17/1.18 expansions, each the sum
    of ``weight * x**m * 0F1(; rho; x**2/16)`` over its ``(weight, m, rho)``
    triples (shifts 0, 1, 2, ..., zero weights dropped). Block (m, n) of
    the product is the 1.11 block ``2F3(...; x**2/4)`` of ``(rho, sigma)``,
    weighted ``w_m * w_n`` at power ``m + n``.

    ``_side_series`` sums it one anti-diagonal at a time; ``terms`` lists
    the blocks one by one, in m-major order without zero weights, for
    ``_side_floats``.
    """

    first: Expansion
    second: Expansion
    exp = Fraction(1)

    @property
    def terms(self) -> Iterator[Term]:
        for w1, m, rho in self.first:
            for w2, n, sigma in self.second:
                weight = w1 * w2
                if weight != 0:
                    yield Term(((bailey_product_spec(rho, sigma), _SQ4),), weight, m + n)


def _side_series(side: Side | ProductSide, cap: int) -> TruncatedSeries:
    """Exact truncation of a side: its terms summed as integer numerators
    over one denominator, a :class:`ProductSide` by ``_bailey_double_sum``
    one anti-diagonal at a time and any other side by
    :func:`_terms_integers`; one gcd makes the sum canonical, and an
    exponential prefactor is applied by ``TruncatedSeries.times_exp``, a
    binomial transform of additions.
    """
    if isinstance(side, ProductSide):
        rho, sigma = side.first[0][2], side.second[0][2]
        den, nums = _bailey_double_sum(rho, [w for w, _, _ in side.first], sigma, [w for w, _, _ in side.second], cap)
    else:
        den, nums = _terms_integers(side.terms, cap)
    total = TruncatedSeries.from_integers(cap, den, nums)
    if side.exp:
        total = total.times_exp(1 if side.exp > 0 else -1, half=abs(side.exp) == HALF)
    return total


def _terms_integers(terms: tuple[Term, ...], cap: int) -> tuple[int, list[int]]:
    """The sum of the terms up to ``x**cap`` as ``nums[d] / den``, not
    reduced, over one running denominator.

    A term ``weight * x**power * F(...)`` is needed only up to
    ``x**(cap - power)``, so each pFq factor is expanded only to the degree
    in t that still reaches the cap; a term whose power is past the cap
    contributes nothing. A term with one factor comes straight from the
    kernel (``_pfq_integers``), which applies the constant c of its argument
    in the term ratio, dividing each step by c or multiplying it by c, so
    its unreduced integers belong on degree ``power + stride*k`` as they
    come, times the weight: stride 2 for an ``x**2/c`` argument, 1 for
    ``c*x``. A term with several factors (left sides only) is their product
    taken by :func:`_egf_product`, placed at stride 1. The factors of one
    call share one dict of numerator prefix products: the blocks on one
    anti-diagonal of an equal-parameter side (3.x) have the same upper
    parameters and block cap, and so do the two factors of the 1.9, 1.12
    and 1.13 left sides, so their prefix is formed once. Each term
    joins the sum over the lcm of its denominator and the running one.
    """
    den = 1
    nums = [0] * (cap + 1)
    prefixes: dict = {}
    for term in terms:
        need = cap - term.power
        if need < 0:
            continue
        if len(term.factors) > 1:
            block_den, block_nums = _egf_product(term.factors, need, prefixes)
            stride = 1
        else:
            [(spec, arg)] = term.factors
            scales = (1, arg.c) if arg.squared else (arg.c, 1)
            block_den, block_nums = _pfq_integers(spec.upper, spec.lower, arg.t_cap(need), *scales, prefixes)
            stride = 2 if arg.squared else 1
        block_den *= term.weight.denominator
        common = math.lcm(den, block_den)
        if common != den:
            up = common // den
            nums = [n * up for n in nums]
            den = common
        scale = term.weight.numerator * (common // block_den)
        placed = slice(term.power, cap + 1, stride)
        nums[placed] = [a + scale * b for a, b in zip(nums[placed], block_nums)]
    return den, nums


def _egf_product(factors: tuple[Factor, ...], need: int, prefixes: dict) -> tuple[int, list[int]]:
    """The product of the factors up to ``x**need`` as ``nums[d] / den``,
    not reduced: a binomial convolution of their exponential generating
    functions (EGFs).

    Factor f enters as its EGF integers ``d! f_d``, which the kernel gives
    directly: one more upper parameter 1 multiplies coefficient k by
    ``(1)_k = k!``, and for an ``x**2/c`` argument the pair ``(1/2, 1)`` at
    ratio ``4/c`` gives ``(2k)! = 4**k (1/2)_k k!``. Most of the bits those
    factorials cancel go with one gcd per factor, and the factors are then
    multiplied as ``d! (fg)_d = sum_k C(d, k) (k! f_k) ((d-k)! g_{d-k})``.
    Over ``den * need!``, numerator d is the product's EGF integer times
    ``need!/d!``.
    """
    product = None
    for spec, arg in factors:
        if arg.squared:
            block_den, block_nums = _pfq_integers(spec.upper + (HALF, 1), spec.lower, need // 2, 4, arg.c, prefixes)
            egf = [0] * (need + 1)
            egf[::2] = block_nums
        else:
            block_den, egf = _pfq_integers(spec.upper + (1,), spec.lower, need, arg.c, 1, prefixes)
        g = math.gcd(block_den, *egf)
        block_den //= g
        egf = [n // g for n in egf]
        if product is None:
            den, product = block_den, egf
            continue
        den *= block_den
        product = [sum(map(mul, map(mul, _binomials(d), product), egf[d::-1])) for d in range(need + 1)]
    lift = 1
    for d in range(need, -1, -1):
        product[d] *= lift
        lift *= d
    return den * math.factorial(need), product


@functools.cache
def _binomials(d: int) -> tuple[int, ...]:
    """``C(d, 0 .. d)``, formed once per process and degree: rebuilding
    the rows in every call made a two-factor product 10-15% slower at caps
    16 to 96. The rows kept grow with the largest degree multiplied, about
    4,700 small integers at cap 96."""
    return tuple([math.comb(d, k) for k in range(d + 1)])


def _side_floats(side: Side | ProductSide, xs: Sequence[float]) -> list[tuple[float, bool]]:
    """Float value of a side at each x, and whether it is finite and every
    factor's sum converged; ``(inf, False)`` at an x where a weight, power
    or exponential overflows a double. The terms are listed once, then
    summed at each x in the same order."""
    terms = tuple(side.terms)
    values = []
    for x in xs:
        total = 0.0
        converged = True
        try:
            for term in terms:
                value = float(term.weight) * x**term.power
                for spec, arg in term.factors:
                    factor = pfq_eval_float(spec, arg.at(x), tol=_FLOAT_TOL, max_terms=_FLOAT_TERMS)
                    value *= factor.value
                    converged = converged and factor.converged
                total += value
            if side.exp:
                total *= math.exp(side.exp * x)
        except OverflowError:
            total, converged = math.inf, False
        values.append((total, converged and math.isfinite(total)))
    return values


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
    # weight m is sign**m (-i)_m (2*base - 1)_m / ((2*base + i)_m
    # (base - 1/2)_m m! 4**m); with base = P/Q, step m multiplies it by
    # sign (m-1-i) (2P + (m-2)Q) Q / (2m (2P + (i+m-1)Q) (2P + (2m-3)Q))
    P, Q = base.numerator, base.denominator
    num = den = 1
    rho = base + HALF
    terms = [(Fraction(1), 0, rho)]
    for m in range(1, i + 1):
        # denominator guards run before the zero-numerator shortcut so that
        # a 0/0 weight raises instead of being silently dropped
        lower_factor = 2 * P + (i + m - 1) * Q
        if lower_factor == 0:
            raise DegenerateParameterError(f"({lower})_{k}", 2 * base + i, m)
        base_factor = 2 * P + (2 * m - 3) * Q
        if base_factor == 0:
            raise DegenerateParameterError(f"({weight_base})_{k}", base - HALF, m)
        num *= sign * (m - 1 - i) * (2 * P + (m - 2) * Q) * Q
        den *= 2 * m * lower_factor * base_factor
        if num:
            terms.append((Fraction(num, den), m, rho + m))
    return terms


def _expansion_side(alpha: Fraction, i: int, raised: bool) -> Side:
    return Side(tuple(
        Term((_f01(rho, _SQ16),), weight, m)
        for weight, m, rho in _expansion_terms(alpha, i, raised)
    ))


# --------------------------------------------------------------------------
# the shifted-product family: 1F1(alpha; 2*alpha +/- i; x) * 1F1(beta; 2*beta +/- j; x)


def _variant_raised(variant: str) -> tuple[bool, bool]:
    """Whether each factor's lower parameter is raised (P) or lowered (M)."""
    return variant[0] == "P", variant[1] == "P"


def _product_lhs(variant: str, params: IdentityParams, beta: Fraction) -> Side:
    """The raw product of the two confluent factors, nothing else."""
    first_raised, second_raised = _variant_raised(variant)
    alpha, i, j = params.alpha, params.i, params.j
    return _product(
        _f11(alpha, 2 * alpha + (i if first_raised else -i)),
        _f11(beta, 2 * beta + (j if second_raised else -j)),
    )


def _product_rhs(variant: str, params: IdentityParams) -> ProductSide:
    """Composed closed form: e**x times the product of the two factors'
    1.17/1.18 expansions, each pair of 0F1 blocks merged by the 1.11 block.

    The printed-form mixed variant indexes the second shift factor by m:
    it weights block (m, n) by ``(-j)_m / (-j)_n`` more, which splits into
    ``(-j)_m`` on the first expansion and ``1 / (-j)_n`` on the second.
    """
    first_raised, second_raised = _variant_raised(variant)
    first = _expansion_terms(params.alpha, params.i, first_raised)
    second = _expansion_terms(params.beta, params.j, second_raised, _SECOND)
    if params.printed_form and variant == "PM":
        j = Fraction(-params.j)
        # (-j)_m vanishes for m > j: those weights drop like any zero weight
        first = [(w * pochhammer(j, m), m, rho) for w, m, rho in first if m <= params.j]
        second = [(w / pochhammer(j, n), n, sigma) for w, n, sigma in second]
    return ProductSide(tuple(first), tuple(second))


# --------------------------------------------------------------------------
# equal-parameter forms of the shifted products (beta = alpha), written out
# from their own single-parameter closed forms rather than by substitution


def _equal_param_factor(
    alpha: Fraction, shift: int, k: int, raised: bool, names: tuple[str, str]
) -> tuple[Fraction, int]:
    """Summand k of one factor of an equal-parameter closed form, without its
    ``(-shift)_k``: with ``d = 0`` raised and ``d = shift`` lowered, the part
    ``(+-1)**k (2*alpha - 2d - 1)_k / ((2*alpha +- shift)_k (alpha - d - 1/2)_k
    k! 4**k)`` and its block offset ``k - d``. ``names`` spells (shift,
    summation index) in messages."""
    s, index = names
    if raised:
        d, lower, base = 0, f"(2*alpha + {s})_{index}", f"(alpha - 1/2)_{index}"
    else:
        d, lower, base = shift, f"(2*alpha - {s})_{index}", f"(alpha - {s} - 1/2)_{index}"
    lower_poch = _nonzero_poch(lower, 2 * alpha + (shift if raised else -shift), k)
    den = lower_poch * _nonzero_poch(base, alpha - d - HALF, k) * math.factorial(k) * 4**k
    sign = 1 if raised or k % 2 == 0 else -1
    return sign * pochhammer(2 * alpha - 2 * d - 1, k) / den, k - d


def _equal_param_rhs(variant: str, params: IdentityParams) -> Side:
    """Single-parameter closed form at beta = alpha. Only alpha appears, so
    comparing it with the composed two-parameter side is not a tautology.

    Term (m, n) is ``(-i)_m (-j)_n x**(m+n)`` times both factors' parts and
    the 2F3 block with lower parameters ``alpha + a + 1/2, alpha + b + 1/2,
    2*alpha + a + b`` for their offsets a, b. The printed-form mixed variant
    reads ``(-j)_m`` for ``(-j)_n``."""
    first_raised, second_raised = _variant_raised(variant)
    alpha, i, j = params.alpha, params.i, params.j
    printed = params.printed_form and variant == "PM"
    terms = []
    for m in range(i + 1):
        first, a = _equal_param_factor(alpha, i, m, first_raised, ("i", "m"))
        for n in range(j + 1):
            second, b = _equal_param_factor(alpha, j, n, second_raised, ("j", "n"))
            weight = pochhammer(Fraction(-i), m) * pochhammer(Fraction(-j), m if printed else n) * first * second
            s = 2 * alpha + a + b
            # built before the zero-weight test: a degenerate block raises
            # even where its weight vanishes
            spec = HypSpec(upper=((s + 1) / 2, s / 2), lower=(alpha + a + HALF, alpha + b + HALF, s))
            if weight != 0:
                terms.append(Term(((spec, _SQ4),), weight, m + n))
    return Side(tuple(terms), Fraction(1))


# --------------------------------------------------------------------------
# scalar closed forms checked at a fixed argument


def _gamma_ratio(numerators: list[Fraction], denominators: list[Fraction]) -> float:
    """Ratio of Gamma factors in double precision.

    A pole in a denominator factor makes the ratio 0.0; one in a numerator
    raises. A factor beyond the double range, or below the normal range
    away from a pole (0.0, or a subnormal with too few significant bits),
    raises ValueError naming it. Mantissas and exponents are combined
    apart, so only the ratio itself must be a normal double, or ValueError.
    """
    for g in numerators:
        if is_nonpositive_integer(g):
            raise DegenerateParameterError(f"Gamma({format_rational(g)})", g, 0)
    for g in denominators:
        if is_nonpositive_integer(g):
            return 0.0
    mantissa, exponent = 1.0, 0
    for g, up in [(g, True) for g in numerators] + [(g, False) for g in denominators]:
        try:
            factor = math.gamma(float(g))
        except OverflowError:
            raise ValueError(f"Gamma({format_rational(g)}) overflows a double") from None
        if abs(factor) < sys.float_info.min:
            raise ValueError(f"Gamma({format_rational(g)}) underflows a double")
        m, e = math.frexp(factor)
        mantissa, exponent = (mantissa * m, exponent + e) if up else (mantissa / m, exponent - e)
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:
        raise ValueError("the Gamma ratio overflows a double") from None
    if abs(value) < sys.float_info.min:
        raise ValueError("the Gamma ratio underflows a double")
    return value


def _gauss_terminating(p: IdentityParams) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating unit-argument sum, exactly: the
    kernel's ``2F1(-n, b; c; t)`` summed at t = 1, and (c-b)_n / (c)_n.
    The kernel needs no ``(c)_k`` with k < n to vanish, which holds once
    ``(c)_n`` does not; a ``HypSpec`` would refuse c = -5 even at n = 3.
    """
    n, b, c = p.i, p.alpha, p.beta
    c_n = _nonzero_poch("(c)_n", c, n)
    den, nums = _pfq_integers((Fraction(-n), b), (c,), n)
    return Fraction(sum(nums), den), pochhammer(c - b, n) / c_n


# --------------------------------------------------------------------------
# admissibility conditions, checked before any building: each is a finding
# or None

Findings = list[AdmissibilityFinding | None]


def _expand_requirements(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str] = _FIRST
) -> tuple[Findings, Findings]:
    """Admissibility of one expansion: the conditions on its factor and
    weights, then the lower parameter of every block."""
    base, lower, weight_base, block = _expansion_spelling(alpha, i, raised, names)
    k = names[2]
    weights = [
        check_lower(lower, 2 * base + i),
        check_poch(f"({lower})_{k}", 2 * base + i, i),
        check_poch(f"({weight_base})_{k}", base - HALF, i),
    ]
    rho = base + HALF
    blocks = [check_lower(block, rho + m, where=f"summand {k}={m}") for m in range(i + 1)]
    return weights, blocks


def _product_requirements(variant: str, params: IdentityParams, equal_param: bool = False) -> Findings:
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
    total = alpha + beta
    for shift in range(low, low + i + j + 1):
        sign = "+" if shift >= 0 else "-"
        expr = f"{s_name} {sign} {abs(shift)}" if shift != 0 else s_name
        reqs.append(check_lower(expr, total + shift, where=f"summand shift {shift}"))
    return reqs


def _watson_requirements(params: IdentityParams) -> Findings:
    a, b, c = params.alpha, params.beta, params.gamma
    reqs = [
        check_lower("(alpha + beta + 1)/2", (a + b + 1) / 2),
        check_lower("2*gamma", 2 * c),
        check_pole("gamma + 1/2", c + HALF),
        check_pole("gamma - (alpha + beta)/2 + 1/2", c - (a + b) / 2 + HALF),
    ]
    terminating = any(is_nonpositive_integer(u) for u in (a, b, c))
    if not terminating:
        reqs.append(check_positive("2*gamma - alpha - beta + 1", 2 * c - a - b + 1))
    return reqs


# --------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class IdentityDef:
    """One catalog entry: how to build, evaluate, and sanity-check it.

    ``kind`` is "series" (both sides are exact truncated series, float
    evaluation is advisory), "exact_sum" (one exact scalar equation), or
    "float_sum" (scalar closed form checked in floating point).
    ``fixed_argument`` is the argument of every scalar entry: the point at
    which its sum is taken and its float residual reported.
    """

    id: IdentityId
    summary: str
    uses: tuple[str, ...]
    kind: str
    build_lhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    build_rhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    lhs_float: Callable[[IdentityParams, Sequence[float]], list[tuple[float, bool]]] | None = None
    rhs_float: Callable[[IdentityParams, Sequence[float]], list[tuple[float, bool]]] | None = None
    scalar_exact: Callable[[IdentityParams], tuple[Fraction, Fraction]] | None = None
    scalar_float: Callable[[IdentityParams], tuple[float, float, FloatSum]] | None = None
    requirements: Callable[[IdentityParams], Findings] = lambda params: []
    notes: Callable[[IdentityParams], tuple[str, ...]] = lambda params: ()
    fixed_argument: float | None = None

    @property
    def tag(self) -> str:
        return self.id.value

    @property
    def name(self) -> str:
        """The enum member name in kebab case, e.g. ``kummer-first``."""
        return self.id.name.lower().replace("_", "-")

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


SideOf = Callable[[IdentityParams], Side | ProductSide]


def _series_entry(lhs: SideOf, rhs: SideOf, **fields) -> IdentityDef:
    """A series entry: both builders and both float evaluators come from
    the two side declarations."""
    return IdentityDef(
        kind="series",
        build_lhs=lambda p: _side_series(lhs(p), p.effective_cap),
        build_rhs=lambda p: _side_series(rhs(p), p.effective_cap),
        lhs_float=lambda p, xs: _side_floats(lhs(p), xs),
        rhs_float=lambda p, xs: _side_floats(rhs(p), xs),
        **fields,
    )


def _float_sum_entry(
    spec: Callable[[IdentityParams], HypSpec],
    x: float,
    max_terms: int,
    gammas: Callable[[IdentityParams], tuple[list[Fraction], list[Fraction]]],
    **fields,
) -> IdentityDef:
    """A float-sum entry: ``pFq(spec; x)`` summed in floating point against
    the Gamma ratio of the (numerator, denominator) arguments ``gammas``
    gives. ``x`` is also the entry's ``fixed_argument``."""

    def sides(p: IdentityParams) -> tuple[float, float, FloatSum]:
        lhs = pfq_eval_float(spec(p), x, tol=_FLOAT_TOL, max_terms=max_terms)
        return lhs.value, _gamma_ratio(*gammas(p)), lhs

    return IdentityDef(kind="float_sum", scalar_float=sides, fixed_argument=x, **fields)


def _build_registry() -> dict[IdentityId, IdentityDef]:
    def halved_reqs(p: IdentityParams) -> Findings:
        return [
            check_lower("2*alpha", 2 * p.alpha),
            check_lower("alpha + 1/2", p.alpha + HALF),
        ]

    def bailey_reqs(p: IdentityParams) -> Findings:
        return [
            check_lower("2*alpha", 2 * p.alpha),
            check_lower("2*beta", 2 * p.beta),
            check_lower("alpha + 1/2", p.alpha + HALF),
            check_lower("beta + 1/2", p.beta + HALF),
            check_lower("alpha + beta", p.alpha + p.beta),
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
            summary="e^(-x) 1F1(alpha; beta; x) = 1F1(beta - alpha; beta; -x)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, p.beta), exp=-1),
            rhs=lambda p: _product(_f11(p.beta - p.alpha, p.beta, _NEG_X)),
            requirements=lambda p: [check_lower("beta", p.beta)],
        ),
        # ---- half-exponential square-argument transformations
        _series_entry(
            id=IdentityId.KUMMER_SECOND,
            summary="e^(-x/2) 1F1(alpha; 2*alpha; x) = 0F1(; alpha + 1/2; x^2/16)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), exp=-HALF),
            rhs=lambda p: _product(_f01(p.alpha + HALF, _SQ16)),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.KUMMER_SECOND_SCALED,
            summary="1F1(alpha; 2*alpha; 2x) = e^x 0F1(; alpha + 1/2; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha, Arg(2))),
            rhs=lambda p: _product(_f01(p.alpha + HALF, _SQ4), exp=1),
            requirements=halved_reqs,
        ),
        # ---- alternating and matched products of two confluent factors
        _series_entry(
            id=IdentityId.PREECE_ALTERNATING,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha; -x) = 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha, _NEG_X)),
            rhs=lambda p: _product(preece_block(p)),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.PREECE_SQUARED,
            summary="[1F1(alpha; 2*alpha; x)]^2 = e^x 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha)),
            rhs=lambda p: _product(preece_block(p), exp=1),
            requirements=halved_reqs,
        ),
        _series_entry(
            id=IdentityId.BAILEY_ALTERNATING,
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; -x) = 2F3((alpha+beta)/2, (alpha+beta+1)/2; alpha + 1/2, beta + 1/2, alpha + beta; x^2/4)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta, _NEG_X)),
            rhs=lambda p: _product(bailey_block(p)),
            requirements=bailey_reqs,
        ),
        _series_entry(
            id=IdentityId.BAILEY_MATCHED,
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; x) = e^x 2F3(...; x^2/4), same block as 1.7",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta)),
            rhs=lambda p: _product(bailey_block(p), exp=1),
            requirements=bailey_reqs,
        ),
        # ---- product of two 0F1 factors as one 2F3
        _series_entry(
            id=IdentityId.F01_PRODUCT,
            summary="0F1(; alpha; t) 0F1(; beta; t) = 2F3((alpha+beta)/2, (alpha+beta-1)/2; alpha, beta, alpha+beta-1; 4t)",
            uses=("alpha", "beta"),
            lhs=lambda p: _product(_f01(p.alpha), _f01(p.beta)),
            rhs=lambda p: _product((bailey_product_spec(p.alpha, p.beta), Arg(4))),
            requirements=lambda p: [
                check_lower("alpha", p.alpha),
                check_lower("beta", p.beta),
                check_lower("alpha + beta - 1", p.alpha + p.beta - 1),
            ],
        ),
        # ---- contiguous products (lower parameter off by one)
        _series_entry(
            id=IdentityId.CONTIGUOUS_RAISED,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha+1; x) = e^x (1F2 block - x/(2(2*alpha+1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha + 1)),
            rhs=contig_raised_rhs,
            requirements=lambda p: [
                check_lower("2*alpha", 2 * p.alpha),
                check_lower("2*alpha + 1", 2 * p.alpha + 1),
                check_lower("alpha + 1/2", p.alpha + HALF),
                check_lower("alpha + 3/2", p.alpha + Fraction(3, 2)),
            ],
        ),
        _series_entry(
            id=IdentityId.CONTIGUOUS_LOWERED,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha-1; x) = e^x (1F2 block + x/(2(2*alpha-1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha - 1)),
            rhs=contig_lowered_rhs,
            requirements=lambda p: [
                check_lower("2*alpha", 2 * p.alpha),
                check_lower("2*alpha - 1", 2 * p.alpha - 1),
                check_lower("alpha + 1/2", p.alpha + HALF),
            ],
        ),
        # ---- expansion of e^(-x/2) 1F1 with shifted lower parameter
        _series_entry(
            id=IdentityId.EXPAND_RAISED,
            summary="e^(-x/2) 1F1(alpha; 2*alpha+i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha + p.i), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=True),
            requirements=lambda p: sum(_expand_requirements(p.alpha, p.i, raised=True), []),
        ),
        _series_entry(
            id=IdentityId.EXPAND_LOWERED,
            summary="e^(-x/2) 1F1(alpha; 2*alpha-i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m-i+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: _product(_f11(p.alpha, 2 * p.alpha - p.i), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=False),
            requirements=lambda p: sum(_expand_requirements(p.alpha, p.i, raised=False), []),
        ),
    ]

    # ---- the shifted-product family and its equal-parameter forms
    #
    # Variant labels: the first letter says whether the first factor's lower
    # parameter is raised (P) or lowered (M) by i, the second letter the
    # same for j.

    for variant, prod_id, equal_id in (
        ("PP", IdentityId.PRODUCT_PP, IdentityId.EQUAL_PARAM_PP),
        ("MM", IdentityId.PRODUCT_MM, IdentityId.EQUAL_PARAM_MM),
        ("PM", IdentityId.PRODUCT_PM, IdentityId.EQUAL_PARAM_PM),
    ):
        first_desc = "2*alpha+i" if variant[0] == "P" else "2*alpha-i"
        second_desc = "2*beta+j" if variant[1] == "P" else "2*beta-j"
        notes = _pm_notes if variant == "PM" else lambda p: ()

        defs.append(_series_entry(
            id=prod_id,
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
        summary="2F1(-n, b; c; 1) = (c - b)_n / (c)_n, exact, with n = i, b = alpha, c = beta",
        uses=("alpha", "beta", "i"),
        kind="exact_sum",
        scalar_exact=_gauss_terminating,
        fixed_argument=1.0,
        requirements=lambda p: [check_poch("(beta)_k, k <= i", p.beta, p.i)],
    ))

    defs.append(_float_sum_entry(
        id=IdentityId.GAUSS_SECOND,
        summary="2F1(a, b; (a+b+1)/2; 1/2) equals a Gamma ratio (float check), a = alpha, b = beta",
        uses=("alpha", "beta"),
        spec=lambda p: HypSpec((p.alpha, p.beta), ((p.alpha + p.beta + 1) / 2,)),
        x=0.5,
        max_terms=600,
        gammas=lambda p: (
            [HALF, (p.alpha + p.beta + 1) / 2],
            [(p.alpha + 1) / 2, (p.beta + 1) / 2],
        ),
        requirements=lambda p: [check_lower("(alpha + beta + 1)/2", (p.alpha + p.beta + 1) / 2)],
    ))

    # The unit-argument sum converges only polynomially; pfq_eval_float bounds
    # its tail by telescoping, from the series' own parameters, never the closed form.
    defs.append(_float_sum_entry(
        id=IdentityId.WATSON_UNIT,
        summary="3F2(a, b, c; (a+b+1)/2, 2c; 1) equals a Gamma ratio (float check), a = alpha, b = beta, c = gamma",
        uses=("alpha", "beta", "gamma"),
        spec=lambda p: HypSpec((p.alpha, p.beta, p.gamma), ((p.alpha + p.beta + 1) / 2, 2 * p.gamma)),
        x=1.0,
        max_terms=400_000,
        gammas=lambda p: (
            [HALF, p.gamma + HALF, (p.alpha + p.beta + 1) / 2, p.gamma - (p.alpha + p.beta) / 2 + HALF],
            [(p.alpha + 1) / 2, (p.beta + 1) / 2, p.gamma - p.alpha / 2 + HALF, p.gamma - p.beta / 2 + HALF],
        ),
        requirements=_watson_requirements,
    ))

    return {d.id: d for d in defs}


_REGISTRY = _build_registry()


def get(identity: IdentityId | str) -> IdentityDef:
    """Look up a catalog entry by enum member or tag string."""
    if isinstance(identity, str) and not isinstance(identity, IdentityId):
        try:
            identity = IdentityId(identity)
        except ValueError:
            known = ", ".join(tag.value for tag in IdentityId)
            raise ValueError(f"unknown identity tag {identity!r} (known: {known})") from None
    return _REGISTRY[identity]


def catalog() -> tuple[IdentityDef, ...]:
    """All entries in tag order."""
    return tuple(_REGISTRY[tag] for tag in IdentityId)
