"""The identity catalog: every checkable equation this package knows about.

Each catalog entry pairs two independent constructions of the same object.
For the series identities each side is declared once. Every left side is a
:class:`RawProduct` of one or two ``1F1``/``0F1`` factors at ``c*x`` and an
exponential, its coefficients run from the factors' differential equations;
the right side is its closed form, a :class:`Side` of weighted one-factor
terms or a :class:`ProductSide` of two expansions. The route modules
:mod:`~hypident.left` and :mod:`~hypident.right` build its exact series,
one interpreter here its floats, so one coefficient comparison settles the
claim up to the cap and the float cross-check evaluates exactly the sides
that were compared. Two entries are fixed-argument summation theorems whose
closed form is a Gamma-function ratio; those are checked in floating point.
One entry is a terminating sum checked as a single exact scalar equation.

Entries are addressed by stable catalog tags ("1.1" through "3.3"). The
tags are opaque identifiers used by the command line and in reports; the
enum member names, in kebab case, are the entry names and say what each
identity does.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import right
from .hyper import DegenerateParameterError, FloatSum, HypSpec, _pfq_integers, bailey_product_spec, pfq_eval_float
from .left import _raw_product_series
from .rationals import _exact_rational, _over_common, format_rational, is_nonpositive_integer, pochhammer
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


class IdentityParams(namedtuple("IdentityParams", "alpha beta i j cap gamma printed_form")):
    """Parameter bundle for one verification run.

    ``alpha`` and ``beta`` are the free rational parameters (``beta`` is
    ignored by the one-parameter identities), ``i`` and ``j`` the
    nonnegative integer shifts, ``cap`` the truncation degree (None means
    ``default_cap(i, j)``). ``gamma`` is the third rational of the
    unit-argument summation check. ``printed_form``, a bool, switches the
    mixed product variants (2.3, 3.3) to their alternate transcription,
    whose second shift factor is indexed by m instead of n. Every way to a
    bundle goes through ``__new__``: ``_make``, and so ``_replace``, call it.
    """

    __slots__ = ()

    def __new__(cls, alpha: Fraction | int, beta: Fraction | int | None = None, i: int = 0, j: int = 0,
                cap: int | None = None, gamma: Fraction | int | None = None, printed_form: bool = False) -> IdentityParams:
        # alpha is required, and a float or a bool is refused
        alpha = _exact_rational(alpha, "alpha")
        beta = None if beta is None else _exact_rational(beta, "beta")
        gamma = None if gamma is None else _exact_rational(gamma, "gamma")
        # a bool is an int, but no shift or cap
        for name, value in (("i", i), ("j", j), ("cap", 0 if cap is None else cap)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if i < 0 or j < 0:
            raise ValueError("shifts i and j must be nonnegative")
        if cap is not None and cap < 0:
            raise ValueError("cap must be nonnegative")
        if not isinstance(printed_form, bool):
            raise ValueError(f"printed_form must be a bool, got {printed_form!r}")
        return tuple.__new__(cls, (alpha, beta, i, j, cap, gamma, printed_form))

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def effective_cap(self) -> int:
        return self.cap if self.cap is not None else default_cap(self.i, self.j)

    def describe(self, identity: IdentityId | str) -> str:
        """The :meth:`to_json_dict` fields as ``key=value`` words; a null one
        is left out and a set flag is its bare name."""
        doc = self.to_json_dict(identity)
        return " ".join(key if value is True else f"{key}={value}" for key, value in doc.items() if value is not None)

    def to_json_dict(self, identity: IdentityId | str) -> dict:
        """The one statement of a point, as catalog entry ``identity`` reads
        it: the fields the entry ``uses``, in the order alpha, beta, gamma,
        i, j, then ``cap`` (the effective cap) for a series entry and
        ``printed_form`` when set. An unset ``beta`` or ``gamma`` is null."""
        define = get(identity)
        doc = {
            "alpha": format_rational(self.alpha),
            "beta": None if self.beta is None else format_rational(self.beta),
            "gamma": None if self.gamma is None else format_rational(self.gamma),
            "i": self.i,
            "j": self.j,
        }
        doc = {key: value for key, value in doc.items() if key in define.uses}
        if define.kind == "series":
            doc["cap"] = self.effective_cap
        if self.printed_form:
            doc["printed_form"] = True
        return doc


# --------------------------------------------------------------------------
# side descriptions and their two interpreters


class Arg(NamedTuple):
    """Argument of one pFq factor: ``c*x``, or ``x**2/c`` when ``squared``."""

    c: int = 1
    squared: bool = False


_X = Arg()
_NEG_X = Arg(-1)
_SQ4 = Arg(4, squared=True)
_SQ16 = Arg(16, squared=True)

Factor = tuple[HypSpec, Arg]


class Term(NamedTuple):
    """``weight * x**power`` times the product of its ``pFq(spec; arg)`` factors."""

    factors: tuple[Factor, ...]
    weight: Fraction = Fraction(1)
    power: int = 0


class Side(NamedTuple):
    """A right side: a sum of one-factor terms times ``e**(exp*x)``, with
    ``exp`` any rational; :func:`~hypident.right._sum_series` says how it is
    taken."""

    terms: tuple[Term, ...]
    exp: Fraction = Fraction(0)


def _f11(a: Fraction, b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((a,), (b,)), arg


def _f01(b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((), (b,)), arg


def _block(factor: Factor, exp: Fraction | int = 0) -> Side:
    """A right side of one unweighted factor, times ``e**(exp*x)``."""
    return Side((Term((factor,)),), Fraction(exp))


class RawProduct(namedtuple("RawProduct", "factors exp")):
    """A left side: the plain product of one or two factors ``F(c*x)``,
    each ``F`` a ``1F1`` or a ``0F1``, times ``e**(exp*x)``, with ``exp``
    any rational: the recurrence builds every one exactly. It has no
    weight, no power and one term. Its series comes from the factors'
    differential equations (:mod:`~hypident.left`), so any other declaration
    (three factors, another pFq, an ``x**2/c`` argument) is refused here,
    by ``__new__``, which ``_make`` and ``_replace`` call too."""

    __slots__ = ()

    def __new__(cls, factors: tuple[Factor, ...], exp: Fraction | int = 0) -> RawProduct:
        if not 1 <= len(factors) <= 2:
            raise ValueError(f"a raw product takes one or two factors, got {len(factors)}")
        if any(len(spec.upper) > 1 or len(spec.lower) != 1 for spec, _ in factors):
            raise ValueError("a raw product takes 0F1 and 1F1 factors only")
        if any(arg.squared for _, arg in factors):
            raise ValueError("a raw product takes c*x arguments only")
        return tuple.__new__(cls, (factors, exp))

    _make = classmethod(lambda cls, iterable: cls(*iterable))


#: ``(rho, weights)``: the sum over shifts m of
#: ``weights[m] * x**m * 0F1(; rho + m; x**2/16)``.
Expansion = tuple[Fraction, tuple[Fraction, ...]]


class ProductSide(NamedTuple):
    """``e**x`` times the product of two expansions, ``first = (rho, v)``
    and ``second = (sigma, w)``: 1.17/1.18's for 2.x, or the summands of
    :func:`_equal_param_factor` in alpha alone for 3.x. Block (m, n) of the
    product is the 1.11 block ``2F3(...; x**2/4)`` of ``(rho + m, sigma +
    n)``, weighted ``v[m] * w[n]`` at power ``m + n``.
    """

    first: Expansion
    second: Expansion
    exp = Fraction(1)


def _side_series(side: RawProduct | Side | ProductSide, cap: int) -> TruncatedSeries:
    """Exact truncation of a side by its own route: a :class:`RawProduct`
    by :mod:`~hypident.left`, never through the pFq kernel, and a
    :class:`Side` or :class:`ProductSide` by :mod:`~hypident.right`."""
    if isinstance(side, RawProduct):
        return _raw_product_series(side, cap)
    if isinstance(side, ProductSide):
        return right._double_sum_series(side, cap)
    return right._sum_series(side, cap)


def _float_terms(side: RawProduct | Side | ProductSide) -> Sequence[Term]:
    """The terms the float route sums: a :class:`RawProduct` as one term, a
    :class:`Side` as its ``terms``, a :class:`ProductSide` as its blocks in
    m-major order without zero weights, each ``rho + m``, ``sigma + n`` and
    anti-diagonal's three block parameters formed once."""
    if isinstance(side, RawProduct):
        return (Term(side.factors),)
    if isinstance(side, Side):
        return side.terms
    (rho, first), (sigma, second) = side.first, side.second
    rhos, sigmas = [rho + m for m in range(len(first))], [sigma + n for n in range(len(second))]
    diagonals = [(t / 2, (t - 1) / 2, t - 1) for t in (rho + sigma + s for s in range(len(first) + len(second) - 1))]
    terms = []
    for m, w1 in enumerate(first):
        for n, w2 in enumerate(second):
            weight = w1 * w2
            if weight != 0:
                half, below, total = diagonals[m + n]
                terms.append(Term(((HypSpec((half, below), (rhos[m], sigmas[n], total)), _SQ4),), weight, m + n))
    return terms


# Every factor sum is kept for the process by value, (spec, argument), so the
# float sides of every entry at one point share each 1F1, 0F1 and 2F3 sum: at
# most 512 specs, the most recently used, each at up to 16 arguments. One
# point's catalog needs at least 20 specs and one 2.x side at i = j = 20 has
# 441 blocks; at the six default float points, 1F1(alpha; 2*alpha; c*x) at
# c = 1, -1 and 2 takes twelve arguments. Full of 2F3 sums, it holds about 2 MB.
# Threads need no lock: each lookup and store is one dict operation, and two
# threads that sum one factor at once make the same sum; only the count and
# the store are two steps, so threads storing at one moment may pass 16 by one.
_FLOAT_SPECS = 512
_FLOAT_ARGS = 16


@functools.lru_cache(maxsize=_FLOAT_SPECS)
def _factor_sums(key: tuple[int | tuple[int, int], ...]) -> dict[float, FloatSum]:
    """The kept sums of the spec whose :func:`_spec_key` is ``key``, by argument."""
    return {}


def _spec_key(spec: HypSpec) -> tuple[int | tuple[int, int], ...]:
    """A spec's value as integers: its count of upper parameters, then each
    parameter's integer ratio. It hashes in well under a microsecond, where
    a spec's Fractions take 2 to 5."""
    return len(spec.upper), *map(Fraction.as_integer_ratio, spec.upper + spec.lower)


def _side_floats(side: RawProduct | Side | ProductSide, xs: Sequence[float]) -> list[tuple[float, bool]]:
    """Float value of a side at each x, and whether it is finite and every
    factor's sum converged; ``(inf, False)`` at an x where a weight, power
    or exponential overflows a double, or where an overflowed sum would
    read nan. The terms are listed once, by :func:`_float_terms`, then
    summed at each x in the same order.

    Each distinct factor is summed once per process: the sums are kept by
    value, ``(spec, argument)``, in :func:`_factor_sums`, so both sides of
    every entry at one point share them, and an ``x**2/c`` factor takes the
    same argument at ``x`` and ``-x``. A kept sum is what the call would
    return, so no float depends on what was summed before. The call looks
    each factor's spec up once and keeps no sums of its own; a NaN
    argument, which no lookup finds again, is not kept.
    """
    try:
        terms = [(float(term.weight), term.power, [(_factor_sums(_spec_key(spec)), spec, arg) for spec, arg in term.factors])
                 for term in _float_terms(side)]
    except OverflowError:  # a weight past the double range
        return [(math.inf, False)] * len(xs)
    values = []
    for x in xs:
        total = 0.0
        converged = True
        try:
            for weight, power, factors in terms:
                value = weight * x**power
                for sums, spec, (c, squared) in factors:
                    arg = x * x / c if squared else c * x
                    factor = sums.get(arg)
                    if factor is None:
                        factor = pfq_eval_float(spec, arg, tol=_FLOAT_TOL, max_terms=_FLOAT_TERMS)
                        if len(sums) < _FLOAT_ARGS and not math.isnan(arg):
                            sums[arg] = factor
                    value *= factor.value
                    converged = converged and factor.converged
                total += value
            if side.exp:
                total *= math.exp(side.exp * x)
        except OverflowError:
            total, converged = math.inf, False
        if math.isnan(total) and not math.isnan(x):
            # inf * 0.0 from an e**(exp*x) that underflowed, or inf - inf
            total = math.inf
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

# An expansion and its findings are kept by (parameter, shift, direction,
# names), so the points of a grid and the gate and builder of each share
# them. The bound holds, at one (alpha, beta) and i, j <= 64, the four
# factors of 2.1-2.3 (2.3's are 2.1's first and 2.2's second) and the
# second factor of the 3.1-3.3 gates, spelled with alpha.
_FACTOR_MEMO = (4 + 2) * 65


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def _expansion(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str]
) -> tuple[Findings, Findings, Expansion | AdmissibilityFinding]:
    """One expansion and its admissibility: the findings on its factor and
    weights, those on the lower parameter of every block, then ``(rho,
    weights)``, the sum of ``weights[m] * x**m * 0F1(; rho + m; x**2/16)``,
    or, if a weight's denominator vanishes, the finding with the first index
    (``(2*base +/- i)_m`` on a tie). Weight m is term m of
    ``2F2(-i, 2*base - 1; 2*base +/- i, base - 1/2; +/-t/4)``, each
    denominator declared once with its spelling; the weights stop before
    the first zero one."""
    a, s, k = names
    if raised:
        base, lower, weight_base, block = alpha, f"2*{a} + {s}", f"{a} - 1/2", f"{a} + {k} + 1/2"
    else:
        base, lower, weight_base, block = alpha - i, f"2*{a} - {s}", f"{a} - {s} - 1/2", f"{a} + {k} - {s} + 1/2"
    twice = 2 * base
    lowers = (lower, twice + i), (weight_base, base - HALF)
    vanishing = tuple([check_poch(f"({spelling})_{k}", value, i, k) for spelling, value in lowers])
    rho = base + HALF  # every rho + m has rho's denominator, so only an integer rho can fail
    blocks = tuple([check_lower(block, rho + m, where=f"summand {k}={m}") for m in range(i + 1)]) if rho.denominator == 1 else ()
    findings = (check_lower(*lowers[0]), *vanishing), blocks
    if any(vanishing):
        return *findings, min(filter(None, vanishing), key=lambda finding: finding.index)
    den, nums = _pfq_integers((Fraction(-i), twice - 1), tuple([value for _, value in lowers]), i, 1 if raised else -1, 4)
    return *findings, (rho, tuple([Fraction(num, den) for num in nums if num]))  # zeros come only past the end


def _expansion_terms(alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str] = _FIRST) -> Expansion:
    """The expansion's ``(rho, weights)``; raises where a weight's
    denominator vanishes, at the finding :func:`_expansion` gives."""
    found = _expansion(alpha, i, raised, names)[2]
    if isinstance(found, AdmissibilityFinding):
        raise DegenerateParameterError(found.parameter_expr, found.value, found.index)
    return found


def _expansion_side(alpha: Fraction, i: int, raised: bool) -> Side:
    rho, weights = _expansion_terms(alpha, i, raised)
    return Side(tuple(Term((_f01(rho + m, _SQ16),), weight, m) for m, weight in enumerate(weights)))


# --------------------------------------------------------------------------
# the shifted-product family: 1F1(alpha; 2*alpha +/- i; x) * 1F1(beta; 2*beta +/- j; x)


def _product_lhs(raised: tuple[bool, bool], params: IdentityParams, beta: Fraction) -> RawProduct:
    """The raw product of the two confluent factors, nothing else."""
    alpha, i, j = params.alpha, params.i, params.j
    return RawProduct((
        _f11(alpha, 2 * alpha + (i if raised[0] else -i)),
        _f11(beta, 2 * beta + (j if raised[1] else -j)),
    ))


def _product_rhs(raised: tuple[bool, bool], params: IdentityParams) -> ProductSide:
    """Composed closed form: e**x times the product of the two factors'
    1.17/1.18 expansions, each pair of 0F1 blocks merged by the 1.11 block."""
    first = _expansion_terms(params.alpha, params.i, raised[0])
    return ProductSide(first, _expansion_terms(params.beta, params.j, raised[1], _SECOND))


def _printed(side: ProductSide, j: int) -> ProductSide:
    """The printed form of a mixed product, whose second shift factor is
    indexed by m instead of n: block (m, n) weighs ``(-j)_m / (-j)_n`` more,
    ``(-j)_m`` on the first weights and ``1 / (-j)_n`` on the second.
    ``(-j)_m`` vanishes for m > j: those weights drop like any zero weight."""
    (rho, v), (sigma, w) = side.first, side.second
    shift = Fraction(-j)
    first = tuple([c * pochhammer(shift, m) for m, c in enumerate(v[: j + 1])])
    return ProductSide((rho, first), (sigma, tuple([c / pochhammer(shift, n) for n, c in enumerate(w)])))


# --------------------------------------------------------------------------
# equal-parameter forms of the shifted products (beta = alpha), written out
# from their own single-parameter closed forms rather than by substitution


def _equal_param_factor(alpha: Fraction, shift: int, raised: bool, names: tuple[str, str]) -> tuple[Fraction, ...]:
    """One factor's summands k = 0..shift of an equal-parameter closed form:
    with ``d = 0`` raised and ``d = shift`` lowered, ``(+-1)**k (-shift)_k
    (2*alpha - 2d - 1)_k / ((2*alpha +- shift)_k (alpha - d - 1/2)_k k!
    4**k)``, each from the one before by its term ratio. Raises at the first
    vanishing denominator factor, ``(2*alpha +- shift)_k`` first on a tie.
    ``names`` spells (shift, summation index) in messages."""
    s, index = names
    if raised:
        sign, d, spelled = 1, 0, (f"(2*alpha + {s})_{index}", f"(alpha - 1/2)_{index}")
    else:
        sign, d, spelled = -1, shift, (f"(2*alpha - {s})_{index}", f"(alpha - {s} - 1/2)_{index}")
    bases = 2 * alpha + sign * shift, alpha - d - HALF
    top = 2 * alpha - 2 * d - 1
    summands = [Fraction(1)]
    for k in range(shift):
        for expr, base in zip(spelled, bases):
            if base + k == 0:
                raise DegenerateParameterError(expr, base, k + 1)
        summands.append(summands[-1] * (sign * (k - shift) * (top + k)) / (4 * (k + 1) * (bases[0] + k) * (bases[1] + k)))
    return tuple(summands)


def _equal_param_rhs(raised: tuple[bool, bool], params: IdentityParams) -> ProductSide:
    """Single-parameter closed form at beta = alpha. Only alpha appears, so
    comparing it with the composed two-parameter side is not a tautology.

    It is the :class:`ProductSide` of the two factors' summands, each block
    offset by ``-shift`` for a lowered factor. The first factor is formed,
    then the second, as :func:`_product_rhs` forms its expansions, so a
    build raises where a 2.x build does: at the first factor's vanishing
    weight, then the second's, then at block (0, 0)."""
    alpha, i, j = params.alpha, params.i, params.j
    rho, sigma = (alpha + HALF - (0 if up else shift) for up, shift in zip(raised, (i, j)))
    first = _equal_param_factor(alpha, i, raised[0], ("i", "m"))
    return ProductSide((rho, first), (sigma, _equal_param_factor(alpha, j, raised[1], ("j", "n"))))


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


def _gauss_second_values(p: IdentityParams) -> dict[str, Fraction]:
    """Every value 1.4 names, by name: with a = alpha and b = beta over
    their common denominator L, each half-sum is one ``Fraction`` over 2L."""
    scale, (a, b) = _over_common(p.alpha, p.beta)
    half = 2 * scale
    return {
        "alpha": p.alpha,
        "beta": p.beta,
        "1/2": HALF,
        "(alpha + beta + 1)/2": Fraction(a + b + scale, half),
        "(alpha + 1)/2": Fraction(a + scale, half),
        "(beta + 1)/2": Fraction(b + scale, half),
    }


def _watson_values(p: IdentityParams) -> dict[str, Fraction]:
    """Every value 1.8 names, by name: those 1.4 names, as Watson's Gamma
    ratio is Gauss's second theorem's times four factors, and those gamma
    enters, each one ``Fraction`` over L or 2L, with a = alpha, b = beta
    and c = gamma over their common denominator L."""
    scale, (a, b, c) = _over_common(p.alpha, p.beta, p.gamma)
    half = 2 * scale
    excess = 2 * c - a - b + scale  # 2*gamma - alpha - beta + 1, over L
    return {
        **_gauss_second_values(p),
        "gamma": p.gamma,
        "2*gamma": Fraction(2 * c, scale),
        "2*gamma - alpha - beta + 1": Fraction(excess, scale),
        "gamma + 1/2": Fraction(2 * c + scale, half),
        "gamma - (alpha + beta)/2 + 1/2": Fraction(excess, half),
        "gamma - alpha/2 + 1/2": Fraction(2 * c - a + scale, half),
        "gamma - beta/2 + 1/2": Fraction(2 * c - b + scale, half),
    }


def _gauss_terminating(p: IdentityParams) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating unit-argument sum, exactly: the
    kernel's ``2F1(-n, b; c; t)`` summed at t = 1, and (c-b)_n / (c)_n.
    The kernel needs no ``(c)_k`` with k < n to vanish, which holds once
    ``(c)_n`` does not; a ``HypSpec`` would refuse c = -5 even at n = 3.
    """
    n, b, c = p.i, p.alpha, p.beta
    c_n = pochhammer(c, n)
    if c_n == 0:
        raise DegenerateParameterError("(c)_n", c, int(-c) + 1)
    den, nums = _pfq_integers((Fraction(-n), b), (c,), n)
    return Fraction(sum(nums), den), pochhammer(c - b, n) / c_n


# --------------------------------------------------------------------------
# admissibility conditions, checked before any building: each is a finding
# or None

Findings = Sequence[AdmissibilityFinding | None]


def _spell(form: tuple[int, int, int, int]) -> str:
    """The form ``(a, b, c, d)``, ``(a*alpha + b*beta + c)/d``, as the
    findings spell it: ``2*alpha + 1``, ``alpha + beta - 1``."""
    *coefficients, d = form
    words = [format_rational(Fraction(c, d)) + f"*{name}" * bool(name) for c, name in zip(coefficients, ("alpha", "beta", "")) if c]
    return re.sub(r"\b1\*", "", " + ".join(words).replace("+ -", "- ")) or "0"  # 1*alpha is alpha, -1*beta -beta


def _lower_forms(*sides: SideOf) -> tuple[tuple[str, tuple[int, int, int, int]], ...]:
    """The spelling and form of each distinct lower parameter of the sides,
    in declaration order, read at generic integer points (alpha, beta): a
    base, a step in each and a check, none degenerate. Two equal at a point
    (``2*alpha``, ``2*beta`` at beta = alpha) stay two. One not affine in
    alpha and beta, or a count that depends on the point, raises ValueError."""
    points = (1000, 3000), (1001, 3000), (1000, 3001), (2017, 4999)
    (a0, b0), *_, (a3, b3) = points
    forms = {}
    for side in sides:
        lowers = [[lower for term in _float_terms(side(IdentityParams(*point))) for spec, _ in term.factors
                   for lower in spec.lower] for point in points]
        for v0, va, vb, v3 in zip(*lowers, strict=True):  # a count that depends on the point raises
            a, b = va - v0, vb - v0
            c = v0 - a * a0 - b * b0
            if a * a3 + b * b3 + c != v3:
                raise ValueError(f"lower parameter {format_rational(v0)} at {points[0]} is not affine in alpha and beta")
            d = math.lcm(a.denominator, b.denominator, c.denominator)
            forms[int(a * d), int(b * d), int(c * d), d] = None
    return tuple((_spell(form), form) for form in forms)


def _clear_memos() -> None:
    """Forget what the points of a grid share: each factor's expansion and
    findings, the kept shift tables and span quotients and the kept float sums."""
    _expansion.cache_clear()
    right._shift_tables.cache_clear()
    right._span_row.cache_clear()
    _factor_sums.cache_clear()


def _product_requirements(raised: tuple[bool, bool], params: IdentityParams, equal_param: bool = False) -> Findings:
    """Both expansions' requirements, then the third lower parameter
    ``rho + sigma - 1`` of every 1.11 block."""
    first_raised, second_raised = raised
    alpha, i, j = params.alpha, params.i, params.j
    beta, b_name = (alpha, "alpha") if equal_param else (params.beta, "beta")
    first_weights, first_blocks, _ = _expansion(alpha, i, first_raised, _FIRST)
    second_weights, second_blocks, _ = _expansion(beta, j, second_raised, (b_name, "j", "n"))
    reqs = [*first_weights, *second_weights, *first_blocks, *second_blocks]

    # rho + sigma - 1 is alpha + beta plus a shift running over m + n,
    # offset by -i for a lowered first factor and -j for a lowered second;
    # it can be a nonpositive integer only when alpha + beta is an integer
    low = (0 if first_raised else -i) + (0 if second_raised else -j)
    total = alpha + beta
    for shift in range(low, low + i + j + 1) if total.denominator == 1 else ():
        form = (2, 0, shift, 1) if equal_param else (1, 1, shift, 1)
        reqs.append(check_lower(_spell(form), total + shift, where=f"summand shift {shift}"))
    return reqs


# --------------------------------------------------------------------------
# the catalog


# The package's one dataclass, because perfbench's tracer swaps each entry's
# callables with dataclasses.replace. Once the tracer reads the reports'
# own timings instead, this can be a NamedTuple like the other records, and
# dataclasses, with the inspect module it loads, leaves the import path.
@dataclass(frozen=True)
class IdentityDef:
    """One catalog entry: how to build, evaluate, and sanity-check it.

    ``kind`` is "series" (both sides are exact truncated series, float
    evaluation is advisory), "exact_sum" (one exact scalar equation), or
    "float_sum" (scalar closed form checked in floating point).
    ``fixed_argument`` is the argument of every scalar entry: the point at
    which its sum is taken and its float residual reported. The builders,
    float sides and scalar sides take their parameters as given; the gate
    that ``verify``, ``sweep`` and ``eval`` ask is ``verify.check_admissible``,
    which runs :meth:`validate_params` first (``expand`` prints one side and
    asks only :meth:`validate_params`). ``reading`` marks the entries that
    read ``printed_form``.
    """

    id: IdentityId
    summary: str
    uses: tuple[str, ...]
    kind: str
    requirements: Callable[[IdentityParams], Findings]
    build_lhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    build_rhs: Callable[[IdentityParams], TruncatedSeries] | None = None
    lhs_float: Callable[[IdentityParams, Sequence[float]], list[tuple[float, bool]]] | None = None
    rhs_float: Callable[[IdentityParams, Sequence[float]], list[tuple[float, bool]]] | None = None
    scalar_exact: Callable[[IdentityParams], tuple[Fraction, Fraction]] | None = None
    scalar_float: Callable[[IdentityParams], tuple[float, float, FloatSum]] | None = None
    fixed_argument: float | None = None
    reading: bool = False

    @property
    def tag(self) -> str:
        return self.id.value

    @property
    def name(self) -> str:
        """The enum member name in kebab case, e.g. ``kummer-first``."""
        return self.id.name.lower().replace("_", "-")

    def validate_params(self, params: IdentityParams) -> None:
        for name in ("beta", "gamma"):
            if name in self.uses and getattr(params, name) is None:
                raise ValueError(f"identity {self.tag} needs {name}")
        if "gamma" not in self.uses and params.gamma is not None:
            raise ValueError(f"identity {self.tag} takes no gamma, got gamma = {format_rational(params.gamma)}")
        for shift in ("i", "j"):
            value = getattr(params, shift)
            if value and shift not in self.uses:
                raise ValueError(f"identity {self.tag} takes no shift {shift}, got {shift} = {value}")
        if params.cap is not None and self.kind != "series":
            raise ValueError(f"identity {self.tag} takes no cap (--degree): it is a scalar check, got cap = {params.cap}")
        if params.printed_form and not self.reading:
            readers = " and ".join(d.tag for d in catalog() if d.reading)
            raise ValueError(f"identity {self.tag} takes no printed_form: only {readers} have a printed-form reading")

    def notes(self, params: IdentityParams) -> tuple[str, ...]:
        """The reading a run used, for an entry that has one."""
        return (_NOTE_PRINTED if params.printed_form else _NOTE_DEFAULT,) if self.reading else ()


_NOTE_DEFAULT = (
    "mixed variant built with the second shift factor indexed by n "
    "(the reading the raw-product comparison confirms)"
)
_NOTE_PRINTED = (
    "printed-form run: second shift factor indexed by m instead of n; "
    "disagrees with the raw product at every shift except i = j = 0"
)


SideOf = Callable[[IdentityParams], RawProduct | Side | ProductSide]


def _series_entry(lhs: SideOf, rhs: SideOf, **fields) -> IdentityDef:
    """A series entry: both builders and both float evaluators come from
    the two side declarations, and unless stated so do its requirements:
    ``check_lower`` of each of their :func:`_lower_forms`, read once."""
    forms = functools.cache(lambda: _lower_forms(lhs, rhs))

    def derived(p: IdentityParams) -> Findings:
        (P, Q), (R, S) = p.alpha.as_integer_ratio(), (p.beta or 0).as_integer_ratio()
        return [check_lower(expr, Fraction(a * P * S + b * R * Q + c * Q * S, d * Q * S)) for expr, (a, b, c, d) in forms()]

    fields.setdefault("requirements", derived)
    return IdentityDef(
        kind="series",
        build_lhs=lambda p: _side_series(lhs(p), p.effective_cap),
        build_rhs=lambda p: _side_series(rhs(p), p.effective_cap),
        lhs_float=lambda p, xs: _side_floats(lhs(p), xs),
        rhs_float=lambda p, xs: _side_floats(rhs(p), xs),
        **fields,
    )


Names = tuple[str, ...]


def _float_sum_entry(
    values: Callable[[IdentityParams], dict[str, Fraction]],
    spec: tuple[Names, Names],
    gammas: tuple[Names, Names],
    x: float,
    max_terms: int,
    excess: str | None = None,
    **fields,
) -> IdentityDef:
    """A float-sum entry: ``pFq(spec; x)`` summed in floating point against
    the Gamma ratio of the (numerator, denominator) arguments ``gammas``.
    ``values`` works out every value the entry names from a point, in exact
    rationals, once for the admissibility check and the sum that follows it
    at the same point; ``spec`` (upper, lower) and ``gammas`` name the
    values they take, and the findings read the same names: each lower
    parameter, each Gamma numerator that is not one at a pole, and, for a
    sum at x = 1, ``excess > 0`` unless an upper parameter is a nonpositive
    integer. ``x`` is also the entry's ``fixed_argument``."""
    upper, lower = spec
    numerators, denominators = gammas
    poles = [e for e in numerators if e not in lower]
    last = (None, None)

    def values_at(p: IdentityParams) -> dict[str, Fraction]:
        # verify_identity checks, then sums, the one params object it was
        # given; keyed by identity, the second call costs no hashing. It
        # saves one values(p) a request: 15 us of a 540 us cli.run verify
        # of 1.8, 5 us of 273 us for 1.4 (Python 3.11.7, BENCH_35.json memo)
        nonlocal last
        point, found = last
        if point is not p:
            found = values(p)
            last = p, found
        return found

    def sides(p: IdentityParams) -> tuple[float, float, FloatSum]:
        v = values_at(p)
        lhs = pfq_eval_float(HypSpec([v[e] for e in upper], [v[e] for e in lower]), x, tol=_FLOAT_TOL, max_terms=max_terms)
        return lhs.value, _gamma_ratio([v[e] for e in numerators], [v[e] for e in denominators]), lhs

    def requirements(p: IdentityParams) -> Findings:
        v = values_at(p)
        reqs = [check_lower(e, v[e]) for e in lower] + [check_pole(e, v[e]) for e in poles]
        if excess is not None and not any(is_nonpositive_integer(v[e]) for e in upper):
            reqs.append(check_positive(excess, v[excess]))
        return reqs

    return IdentityDef(kind="float_sum", scalar_float=sides, requirements=requirements, fixed_argument=x, **fields)


def _product_entries(prod_id: IdentityId, equal_id: IdentityId, raised: tuple[bool, bool], reading: bool) -> list[IdentityDef]:
    """A shifted-product variant and its beta = alpha form, both read from
    the variant's one statement: which factors are raised, and whether it
    has a printed-form reading."""
    first, second = (("+" if up else "-") + shift for up, shift in zip(raised, "ij"))

    def read(side: ProductSide, p: IdentityParams) -> ProductSide:
        return _printed(side, p.j) if reading and p.printed_form else side

    return [
        _series_entry(
            id=prod_id,
            summary=f"1F1(alpha; 2*alpha{first}; x) 1F1(beta; 2*beta{second}; x) = e^x times a double sum of weighted x^(m+n) 2F3(...; x^2/4) blocks",
            uses=("alpha", "beta", "i", "j"),
            reading=reading,
            lhs=lambda p: _product_lhs(raised, p, p.beta),
            rhs=lambda p: read(_product_rhs(raised, p), p),
            requirements=lambda p: _product_requirements(raised, p),
        ),
        _series_entry(
            id=equal_id,
            summary=f"beta = alpha form: 1F1(alpha; 2*alpha{first}; x) 1F1(alpha; 2*alpha{second}; x) as e^x times a double sum written with alpha only",
            uses=("alpha", "i", "j"),
            reading=reading,
            lhs=lambda p: _product_lhs(raised, p, p.alpha),
            rhs=lambda p: read(_equal_param_rhs(raised, p), p),
            requirements=lambda p: _product_requirements(raised, p, equal_param=True),
        ),
    ]


def _build_registry() -> dict[IdentityId, IdentityDef]:
    def preece_block(p: IdentityParams) -> Factor:
        return HypSpec((p.alpha,), (p.alpha + HALF, 2 * p.alpha)), _SQ4

    def bailey_block(p: IdentityParams) -> Factor:
        return bailey_product_spec(p.alpha + HALF, p.beta + HALF), _SQ4

    def contig_raised_rhs(p: IdentityParams) -> Side:
        a = p.alpha
        head = preece_block(p)
        tail = HypSpec((a + 1,), (a + Fraction(3, 2), 2 * a + 1))
        return Side((
            Term((head,)),
            Term(((tail, _SQ4),), Fraction(-1) / (2 * (2 * a + 1)), 1),
        ), Fraction(1))

    def contig_lowered_rhs(p: IdentityParams) -> Side:
        a = p.alpha
        head = HypSpec((a,), (a + HALF, 2 * a - 1))
        tail = preece_block(p)
        return Side((
            Term(((head, _SQ4),)),
            Term((tail,), Fraction(1) / (2 * (2 * a - 1)), 1),
        ), Fraction(1))

    defs = [
        # ---- two-parameter exponential-shift transformation
        _series_entry(
            id=IdentityId.KUMMER_FIRST,
            summary="e^(-x) 1F1(alpha; beta; x) = 1F1(beta - alpha; beta; -x)",
            uses=("alpha", "beta"),
            lhs=lambda p: RawProduct((_f11(p.alpha, p.beta),), exp=-1),
            rhs=lambda p: _block(_f11(p.beta - p.alpha, p.beta, _NEG_X)),
        ),
        # ---- half-exponential square-argument transformations
        _series_entry(
            id=IdentityId.KUMMER_SECOND,
            summary="e^(-x/2) 1F1(alpha; 2*alpha; x) = 0F1(; alpha + 1/2; x^2/16)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha),), exp=-HALF),
            rhs=lambda p: _block(_f01(p.alpha + HALF, _SQ16)),
        ),
        _series_entry(
            id=IdentityId.KUMMER_SECOND_SCALED,
            summary="1F1(alpha; 2*alpha; 2x) = e^x 0F1(; alpha + 1/2; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha, Arg(2)),)),
            rhs=lambda p: _block(_f01(p.alpha + HALF, _SQ4), exp=1),
        ),
        # ---- alternating and matched products of two confluent factors
        _series_entry(
            id=IdentityId.PREECE_ALTERNATING,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha; -x) = 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha, _NEG_X))),
            rhs=lambda p: _block(preece_block(p)),
        ),
        _series_entry(
            id=IdentityId.PREECE_SQUARED,
            summary="[1F1(alpha; 2*alpha; x)]^2 = e^x 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha))),
            rhs=lambda p: _block(preece_block(p), exp=1),
        ),
        _series_entry(
            id=IdentityId.BAILEY_ALTERNATING,
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; -x) = 2F3((alpha+beta)/2, (alpha+beta+1)/2; alpha + 1/2, beta + 1/2, alpha + beta; x^2/4)",
            uses=("alpha", "beta"),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta, _NEG_X))),
            rhs=lambda p: _block(bailey_block(p)),
        ),
        _series_entry(
            id=IdentityId.BAILEY_MATCHED,
            summary="1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; x) = e^x 2F3(...; x^2/4), same block as 1.7",
            uses=("alpha", "beta"),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta))),
            rhs=lambda p: _block(bailey_block(p), exp=1),
        ),
        # ---- product of two 0F1 factors as one 2F3
        _series_entry(
            id=IdentityId.F01_PRODUCT,
            summary="0F1(; alpha; t) 0F1(; beta; t) = 2F3((alpha+beta)/2, (alpha+beta-1)/2; alpha, beta, alpha+beta-1; 4t)",
            uses=("alpha", "beta"),
            lhs=lambda p: RawProduct((_f01(p.alpha), _f01(p.beta))),
            rhs=lambda p: _block((bailey_product_spec(p.alpha, p.beta), Arg(4))),
        ),
        # ---- contiguous products (lower parameter off by one)
        _series_entry(
            id=IdentityId.CONTIGUOUS_RAISED,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha+1; x) = e^x (1F2 block - x/(2(2*alpha+1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha + 1))),
            rhs=contig_raised_rhs,
        ),
        _series_entry(
            id=IdentityId.CONTIGUOUS_LOWERED,
            summary="1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha-1; x) = e^x (1F2 block + x/(2(2*alpha-1)) 1F2 block)",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha - 1))),
            rhs=contig_lowered_rhs,
        ),
        # ---- expansion of e^(-x/2) 1F1 with shifted lower parameter
        _series_entry(
            id=IdentityId.EXPAND_RAISED,
            summary="e^(-x/2) 1F1(alpha; 2*alpha+i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha + p.i),), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=True),
            requirements=lambda p: sum(_expansion(p.alpha, p.i, True, _FIRST)[:2], ()),
        ),
        _series_entry(
            id=IdentityId.EXPAND_LOWERED,
            summary="e^(-x/2) 1F1(alpha; 2*alpha-i; x) as a sum of i+1 weighted x^m 0F1(; alpha+m-i+1/2; x^2/16) blocks",
            uses=("alpha", "i"),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha - p.i),), exp=-HALF),
            rhs=lambda p: _expansion_side(p.alpha, p.i, raised=False),
            requirements=lambda p: sum(_expansion(p.alpha, p.i, False, _FIRST)[:2], ()),
        ),
    ]

    # ---- the shifted-product family and its equal-parameter forms
    #
    # Each variant is stated here once: whether each factor's lower
    # parameter is raised (by i, then j) or lowered, and whether the variant
    # has a printed-form reading (only the mixed one does).
    for prod_id, equal_id, raised, reading in (
        (IdentityId.PRODUCT_PP, IdentityId.EQUAL_PARAM_PP, (True, True), False),
        (IdentityId.PRODUCT_MM, IdentityId.EQUAL_PARAM_MM, (False, False), False),
        (IdentityId.PRODUCT_PM, IdentityId.EQUAL_PARAM_PM, (True, False), True),
    ):
        defs += _product_entries(prod_id, equal_id, raised, reading)

    # ---- scalar closed forms

    defs.append(IdentityDef(
        id=IdentityId.GAUSS_TERMINATING,
        summary="2F1(-n, b; c; 1) = (c - b)_n / (c)_n, exact, with n = i, b = alpha, c = beta",
        uses=("alpha", "beta", "i"),
        kind="exact_sum",
        scalar_exact=_gauss_terminating,
        fixed_argument=1.0,
        requirements=lambda p: [check_poch("(beta)_k, k <= i", p.beta, p.i, "k")],
    ))

    defs.append(_float_sum_entry(
        id=IdentityId.GAUSS_SECOND,
        summary="2F1(a, b; (a+b+1)/2; 1/2) equals a Gamma ratio (float check), a = alpha, b = beta",
        uses=("alpha", "beta"),
        values=_gauss_second_values,
        spec=(("alpha", "beta"), ("(alpha + beta + 1)/2",)),
        gammas=(("1/2", "(alpha + beta + 1)/2"), ("(alpha + 1)/2", "(beta + 1)/2")),
        x=0.5,
        max_terms=600,
    ))

    # The unit-argument sum converges only polynomially; pfq_eval_float bounds
    # its tail by telescoping, from the series' own parameters, never the closed form.
    defs.append(_float_sum_entry(
        id=IdentityId.WATSON_UNIT,
        summary="3F2(a, b, c; (a+b+1)/2, 2c; 1) equals a Gamma ratio (float check), a = alpha, b = beta, c = gamma",
        uses=("alpha", "beta", "gamma"),
        values=_watson_values,
        spec=(("alpha", "beta", "gamma"), ("(alpha + beta + 1)/2", "2*gamma")),
        gammas=(
            ("1/2", "gamma + 1/2", "(alpha + beta + 1)/2", "gamma - (alpha + beta)/2 + 1/2"),
            ("(alpha + 1)/2", "(beta + 1)/2", "gamma - alpha/2 + 1/2", "gamma - beta/2 + 1/2"),
        ),
        x=1.0,
        max_terms=400_000,
        excess="2*gamma - alpha - beta + 1",
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
