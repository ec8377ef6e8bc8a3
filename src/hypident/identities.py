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
from .hyper import KEPT, DegenerateParameterError, FloatSum, HypSpec, _pfq_integers, bailey_product_spec, pfq_eval_float
from .left import _raw_product_series
from .rationals import _exact_rational, _over_common, format_rational, is_nonpositive_integer, pochhammer
from .reports import AdmissibilityFinding, check_lower, check_poch, check_pole, check_positive
from .series import TruncatedSeries, _over_last

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
        it: the fields the entry ``uses``, in their order there, which every
        entry states as alpha, beta, gamma, i, j, then ``cap`` (the effective
        cap) for a series entry and ``printed_form`` when set. An unset
        ``beta`` or ``gamma`` is null. Only a field the entry uses is
        formatted."""
        define = get(identity)
        doc = {}
        for key in define.uses:
            value = getattr(self, key)
            doc[key] = value if value is None or key in ("i", "j") else format_rational(value)
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
    """A right side: a sum of one-factor terms, with no exponential
    (:func:`~hypident.right._sum_series`)."""

    terms: tuple[Term, ...]


def _f11(a: Fraction, b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((a,), (b,)), arg


def _f01(b: Fraction, arg: Arg = _X) -> Factor:
    return HypSpec((), (b,)), arg


def _block(factor: Factor) -> Side:
    """A right side of one unweighted factor."""
    return Side((Term((factor,)),))


class RawProduct(namedtuple("RawProduct", "factors exp")):
    """A left side: the plain product of one or two factors ``F(c*x)``,
    each ``F`` a ``1F1`` or a ``0F1``, times ``e**(exp*x)``, with ``exp``
    any rational: the recurrence builds every one exactly. It is the only
    side with an exponential: where the paper states ``e**x`` times a sum,
    the left side is ``e**(-x)`` times its product. It has no weight, no
    power and one term. Its series comes from the factors'
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


#: ``(rho, den, nums)``, the weights as canonical integer lanes (:func:`_lanes`):
#: the sum over shifts m of ``nums[m] / den * x**m * 0F1(; rho + m; x**2/16)``.
Expansion = tuple[Fraction, int, tuple[int, ...]]


class ProductSide(NamedTuple):
    """The double sum of two expansions, ``first = (rho, den, v)`` and
    ``second = (sigma, den', w)``: 1.17/1.18's for 2.x, or the summands of
    :func:`_equal_param_factor` in alpha alone for 3.x. Block (m, n) of the
    sum is the 1.11 block ``2F3(...; x**2/4)`` of ``(rho + m, sigma + n)``,
    weighted ``v[m] w[n] / (den den')`` at power ``m + n``. The paper's
    product is ``e**x`` times this sum; the exponential is declared on the left side.
    """

    first: Expansion
    second: Expansion


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
    (rho, den_a, first), (sigma, den_b, second) = side.first, side.second
    rhos, sigmas = [rho + m for m in range(len(first))], [sigma + n for n in range(len(second))]
    diagonals = [(t / 2, (t - 1) / 2, t - 1) for t in (rho + sigma + s for s in range(len(first) + len(second) - 1))]
    terms = []
    for m, v in enumerate(first):
        for n, w in enumerate(second):
            weight = v * w
            if weight:
                half, below, total = diagonals[m + n]
                terms.append(Term(((HypSpec((half, below), (rhos[m], sigmas[n], total)), _SQ4),), Fraction(weight, den_a * den_b), m + n))
    return terms


def _uncompared(side: Side | ProductSide, cap: int) -> tuple[str, ...]:
    """A note on the terms of a right side (``power > cap``) or the blocks
    with a weight (``m + n > cap``) that start past the cap, so that none of
    their coefficients is compared, and how many there are; none when every
    one starts within it, as at the default cap."""
    if isinstance(side, Side):
        noun, where, count = "term", "power", sum(term.power > cap for term in side.terms)
    else:
        (_, _, first), (_, _, second) = side.first, side.second
        noun, where, count = "block", "m + n", 0
        if len(first) + len(second) - 2 > cap:  # the last block starts past the cap
            count = sum(1 for m, v in enumerate(first) if v for n, w in enumerate(second) if w and m + n > cap)
    if not count:
        return ()
    return (f"cap {cap} leaves {count} right-side {noun}{'' if count == 1 else 's'} uncompared ({where} > {cap})",)


def _side_floats(side: RawProduct | Side | ProductSide, xs: Sequence[float]) -> list[tuple[float, bool]]:
    """Float value of a side at each x, and whether it is finite and every
    factor's sum converged; ``(inf, False)`` at an x that is not NaN where
    a weight, power or exponential overflows a double, or where a sum
    overflows, to either sign or to nan. The terms are listed once, by
    :func:`_float_terms`, with each weight and the exponent converted to a
    float once. Each factor is then summed at its distinct arguments by
    :func:`_factor_sums`, factor by factor, the arguments of each
    :class:`Arg` worked out once (:func:`_arguments`), and the terms are
    added at each x in their listed order, so every float is the one a loop
    over x, summing each factor at that x, gives.
    """
    places: dict[Arg, tuple] = {}
    try:
        grow = float(side.exp) if isinstance(side, RawProduct) and side.exp else None
        terms = []
        for term in _float_terms(side):
            factors = []
            for spec, arg in term.factors:
                if arg not in places:
                    places[arg] = _arguments(arg, xs)
                args, sums, order = places[arg]
                factors.append((sums(_spec_key(spec), args), order))
            terms.append((float(term.weight), term.power, factors))
    except OverflowError:  # a weight or an exponent past the double range
        return [(math.inf, False)] * len(xs)
    values = []
    for at, x in enumerate(xs):
        total = 0.0
        converged = True
        try:
            for weight, power, factors in terms:
                value = weight * x**power
                for sums, order in factors:
                    factor = sums[order[at]]
                    value *= factor.value
                    converged = converged and factor.converged
                total += value
            if grow is not None:
                total *= math.exp(grow * x)
        except OverflowError:
            total, converged = math.inf, False
        if not math.isfinite(total) and not math.isnan(x):
            # one reading of an overflow: -inf from a block that overflowed
            # negative first, nan from inf * 0.0 (an e**(exp*x) that
            # underflowed) or from inf - inf
            total = math.inf
        values.append((total, converged and math.isfinite(total)))
    return values


def _arguments(arg: Arg, xs: Sequence[float]) -> tuple[tuple[float, ...], Callable, list[int]]:
    """The sorted distinct arguments that ``arg`` takes at the points, so
    the ``x**2/c`` of ``x`` and ``-x`` is one; what sums a factor at them,
    :func:`_factor_sums`, or its ``__wrapped__``, which keeps nothing, where
    they hold a NaN, which no lookup finds again; and each x's place among
    them."""
    c, squared = arg
    args = [x * x / c if squared else c * x for x in xs]
    distinct = tuple(sorted(set(args)))
    place = {a: k for k, a in enumerate(distinct)}  # a NaN is found by identity
    sums = _factor_sums.__wrapped__ if any(map(math.isnan, distinct)) else _factor_sums
    return distinct, sums, [place[a] for a in args]


def _spec_key(spec: HypSpec) -> tuple[int | tuple[int, int], ...]:
    """A spec's value as integers, the key of its float sums: its count of
    upper parameters, then each parameter's integer ratio. It hashes in well
    under a microsecond, where a spec's Fractions take 2 to 5."""
    return len(spec.upper), *map(Fraction.as_integer_ratio, spec.upper + spec.lower)


@KEPT.memo("float sums")
def _factor_sums(key: tuple[int | tuple[int, int], ...], args: tuple[float, ...]) -> tuple[FloatSum, ...]:
    """The sums of ``pFq`` at each of ``args``, distinct arguments, the spec
    rebuilt from its :func:`_spec_key`, kept by the key and the arguments in
    :data:`~hypident.hyper.KEPT`, namespace ``"float sums"``: one read and
    at most one write a factor, not one an x. So both sides of every entry
    at one point share them, and so do the factors ``F(c*x)`` and
    ``F(-c*x)`` of one spec, whose arguments over symmetric points are one
    set. A kept sum is what the call would return, so no float depends on
    what was summed before.
    """
    params = [Fraction(*ratio) for ratio in key[1:]]
    spec = HypSpec(params[: key[0]], params[key[0] :])
    return tuple([pfq_eval_float(spec, a, tol=_FLOAT_TOL, max_terms=_FLOAT_TERMS) for a in args])


# --------------------------------------------------------------------------
# expansion of e**(-x/2) 1F1(alpha; 2*alpha +/- i; x) into shifted 0F1 blocks
#
# The lowered expansion is the raised one at alpha - i with alternating
# signs. ``names`` spells (parameter, shift, summation index) in messages,
# so the same code serves as either factor of a product.

_FIRST = ("alpha", "i", "m")
_SECOND = ("beta", "j", "n")


# kept by (parameter, shift, direction, names): a grid's gates and builders share each derivation
@KEPT.memo("expansions")
def _expansion(
    alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str]
) -> tuple[Findings, Findings, Expansion | AdmissibilityFinding]:
    """One expansion and its admissibility: the findings on its factor and
    weights, those on the lower parameter of every block, then the
    :data:`Expansion` ``(rho, den, nums)``, the kernel's integers as lanes,
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
    return *findings, (rho, *_lanes(den, [num for num in nums if num]))  # zeros come only past the end


def _lanes(den: int, nums: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """``nums[m] / den`` as canonical lanes, ``den > 0`` and ``gcd(den, *nums) == 1``,
    as ``_over_common`` gives them: so a factor's lanes, a shift table's key, are its value."""
    g = math.gcd(den, *nums) * (-1 if den < 0 else 1)
    return den // g, tuple([num // g for num in nums])


def _expansion_terms(alpha: Fraction, i: int, raised: bool, names: tuple[str, str, str] = _FIRST) -> Expansion:
    """The expansion's ``(rho, den, nums)``; raises where a weight's
    denominator vanishes, at the finding :func:`_expansion` gives."""
    found = _expansion(alpha, i, raised, names)[2]
    if isinstance(found, AdmissibilityFinding):
        raise DegenerateParameterError(found.parameter_expr, found.value, found.index)
    return found


def _expansion_side(alpha: Fraction, i: int, raised: bool) -> Side:
    rho, den, nums = _expansion_terms(alpha, i, raised)
    return Side(tuple(Term((_f01(rho + m, _SQ16),), Fraction(num, den), m) for m, num in enumerate(nums)))


# --------------------------------------------------------------------------
# the shifted-product family: 1F1(alpha; 2*alpha +/- i; x) * 1F1(beta; 2*beta +/- j; x)


def _product_lhs(raised: tuple[bool, bool], params: IdentityParams, beta: Fraction) -> RawProduct:
    """``e**(-x)`` times the raw product of the two confluent factors."""
    alpha, i, j = params.alpha, params.i, params.j
    return RawProduct((
        _f11(alpha, 2 * alpha + (i if raised[0] else -i)),
        _f11(beta, 2 * beta + (j if raised[1] else -j)),
    ), exp=-1)


def _product_rhs(raised: tuple[bool, bool], params: IdentityParams) -> ProductSide:
    """Composed closed form: the product of the two factors' 1.17/1.18
    expansions, each pair of 0F1 blocks merged by the 1.11 block."""
    first = _expansion_terms(params.alpha, params.i, raised[0])
    return ProductSide(first, _expansion_terms(params.beta, params.j, raised[1], _SECOND))


def _printed(side: ProductSide, j: int) -> ProductSide:
    """The printed form of a mixed product, whose second shift factor is
    indexed by m instead of n: block (m, n) weighs ``(-j)_m / (-j)_n`` more,
    ``(-j)_m = (-1)**m j!/(j-m)!`` on the first lanes, zero for m > j like
    any dropped weight, and ``1 / (-j)_n = (-1)**n (j-n)!/j!`` on the second."""
    (rho, den_a, v), (sigma, den_b, w) = side.first, side.second
    first = _lanes(den_a, [(-1) ** m * c * math.perm(j, m) for m, c in enumerate(v[: j + 1])])
    second = _lanes(den_b * math.factorial(j), [(-1) ** n * c * math.factorial(j - n) for n, c in enumerate(w)])
    return ProductSide((rho, *first), (sigma, *second))


# --------------------------------------------------------------------------
# equal-parameter forms of the shifted products (beta = alpha), written out
# from their own single-parameter closed forms rather than by substitution


def _equal_param_factor(alpha: Fraction, shift: int, raised: bool, names: tuple[str, str]) -> tuple[int, tuple[int, ...]]:
    """One factor's summands k = 0..shift of an equal-parameter closed form:
    with ``d = 0`` raised and ``d = shift`` lowered, ``(+-1)**k (-shift)_k
    (2*alpha - 2d - 1)_k / ((2*alpha +- shift)_k (alpha - d - 1/2)_k k!
    4**k)``, as lanes, each from the one before by its term ratio in the
    integers of ``alpha = a/b``. Raises at the first vanishing denominator
    factor, ``(2*alpha +- shift)_k`` first on a tie; ``names`` spells (shift, index)."""
    s, index = names
    if raised:
        sign, d, spelled = 1, 0, (f"(2*alpha + {s})_{index}", f"(alpha - 1/2)_{index}")
    else:
        sign, d, spelled = -1, shift, (f"(2*alpha - {s})_{index}", f"(alpha - {s} - 1/2)_{index}")
    a, b = alpha.as_integer_ratio()
    f, t = 2 * a + sign * shift * b, 2 * a - (2 * d + 1) * b  # 2*alpha +- shift over b, alpha - d - 1/2 over 2b
    rows, steps = [1], [1]
    for k in range(shift):
        for expr, base, scale in zip(spelled, (f, t), (b, 2 * b)):
            if base + k * scale == 0:
                raise DegenerateParameterError(expr, Fraction(base, scale), k + 1)
        rows.append(rows[-1] * sign * (k - shift) * (t + k * b) * b)
        steps.append(2 * (k + 1) * (f + k * b) * (t + 2 * k * b))
    return _lanes(*_over_last(1, steps, rows))


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
    return ProductSide((rho, *first), (sigma, *_equal_param_factor(alpha, j, raised[1], ("j", "n"))))


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
    """Forget what the points of a grid share: every namespace of the one
    kept store, each factor's expansion and findings, the shift tables, the
    span quotients and the float sums; and each entry's last declaration,
    every ``_LAST_READ`` pair (:func:`_read_once`)."""
    KEPT.cache_clear()
    for last in _LAST_READ:
        last[0] = None, None


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
    which its sum is taken and its float residual reported. ``uncompared``
    of a series entry notes the right side's terms or blocks that start past
    the cap, whose coefficients the comparison never reaches. The builders,
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
    uncompared: Callable[[IdentityParams], tuple[str, ...]] | None = None
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

#: the last ``(params, value)`` of every :func:`_read_once` reader, which :func:`_clear_memos` forgets
_LAST_READ: list[list[tuple]] = []


def _read_once(read: Callable[[IdentityParams], object]) -> Callable[[IdentityParams], object]:
    """``read``, made once per params object: the last object and its value
    are kept by identity, so a second call with that object costs no
    hashing. ``verify_identity`` checks, builds and evaluates the one params
    object it was given, so a series side is declared once for its exact
    series and its floats, and a float-sum entry's values are worked out
    once for its gate and its sum. The pair is replaced whole, so a thread
    reads either pair, never a mix; two threads may both call ``read``."""
    last = [(None, None)]
    _LAST_READ.append(last)

    def reader(p: IdentityParams):
        point, value = last[0]
        if point is not p:
            value = read(p)
            last[0] = p, value
        return value

    return reader


def _series_entry(lhs: SideOf, rhs: SideOf, **fields) -> IdentityDef:
    """A series entry: both builders and both float evaluators come from
    the two side declarations, each read once per params object
    (:func:`_read_once`), and unless stated so do its requirements:
    ``check_lower`` of each of their :func:`_lower_forms`, read once."""
    declared = lhs, rhs
    forms = functools.cache(lambda: _lower_forms(*declared))
    lhs, rhs = _read_once(lhs), _read_once(rhs)

    def derived(p: IdentityParams) -> Findings:
        # form (a, b, c, d) is (num / den) at the point, a finding only where
        # that is a nonpositive integer: only a finding forms its Fraction
        (P, Q), (R, S) = p.alpha.as_integer_ratio(), (p.beta or 0).as_integer_ratio()
        values = [(expr, a * P * S + b * R * Q + c * Q * S, d * Q * S) for expr, (a, b, c, d) in forms()]
        return [None if num > 0 or num % den else check_lower(expr, Fraction(num, den)) for expr, num, den in values]

    fields.setdefault("requirements", derived)
    return IdentityDef(
        kind="series",
        build_lhs=lambda p: _side_series(lhs(p), p.effective_cap),
        build_rhs=lambda p: _side_series(rhs(p), p.effective_cap),
        lhs_float=lambda p, xs: _side_floats(lhs(p), xs),
        rhs_float=lambda p, xs: _side_floats(rhs(p), xs),
        uncompared=lambda p: _uncompared(rhs(p), p.effective_cap),
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
    # it saves one values(p) a request: 15 us of a 540 us cli.run verify of
    # 1.8, 5 us of 273 us for 1.4 (Python 3.11.7, BENCH_35.json memo)
    values_at = _read_once(values)

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
            summary=f"e^(-x) 1F1(alpha; 2*alpha{first}; x) 1F1(beta; 2*beta{second}; x) = a double sum of weighted x^(m+n) 2F3(...; x^2/4) blocks; the paper states it as e^x times the sum",
            uses=("alpha", "beta", "i", "j"),
            reading=reading,
            lhs=lambda p: _product_lhs(raised, p, p.beta),
            rhs=lambda p: read(_product_rhs(raised, p), p),
            requirements=lambda p: _product_requirements(raised, p),
        ),
        _series_entry(
            id=equal_id,
            summary=f"beta = alpha form: e^(-x) 1F1(alpha; 2*alpha{first}; x) 1F1(alpha; 2*alpha{second}; x) as a double sum written with alpha only; the paper states it as e^x times the sum",
            uses=("alpha", "i", "j"),
            reading=reading,
            lhs=lambda p: _product_lhs(raised, p, p.alpha),
            rhs=lambda p: read(_equal_param_rhs(raised, p), p),
            requirements=lambda p: _product_requirements(raised, p, equal_param=True),
        ),
    ]


def _build_registry() -> dict[str, IdentityDef]:
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
        ))

    def contig_lowered_rhs(p: IdentityParams) -> Side:
        a = p.alpha
        head = HypSpec((a,), (a + HALF, 2 * a - 1))
        tail = preece_block(p)
        return Side((
            Term(((head, _SQ4),)),
            Term((tail,), Fraction(1) / (2 * (2 * a - 1)), 1),
        ))

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
            summary="e^(-x) 1F1(alpha; 2*alpha; 2x) = 0F1(; alpha + 1/2; x^2/4); the paper states it as e^x times the 0F1",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha, Arg(2)),), exp=-1),
            rhs=lambda p: _block(_f01(p.alpha + HALF, _SQ4)),
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
            summary="e^(-x) [1F1(alpha; 2*alpha; x)]^2 = 1F2(alpha; alpha + 1/2, 2*alpha; x^2/4); the paper states it as e^x times the 1F2",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha)), exp=-1),
            rhs=lambda p: _block(preece_block(p)),
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
            summary="e^(-x) 1F1(alpha; 2*alpha; x) 1F1(beta; 2*beta; x) = 2F3(...; x^2/4), same block as 1.7; the paper states it as e^x times the 2F3",
            uses=("alpha", "beta"),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.beta, 2 * p.beta)), exp=-1),
            rhs=lambda p: _block(bailey_block(p)),
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
            summary="e^(-x) 1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha+1; x) = 1F2 block - x/(2(2*alpha+1)) 1F2 block; the paper states it as e^x times the difference",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha + 1)), exp=-1),
            rhs=contig_raised_rhs,
        ),
        _series_entry(
            id=IdentityId.CONTIGUOUS_LOWERED,
            summary="e^(-x) 1F1(alpha; 2*alpha; x) 1F1(alpha; 2*alpha-1; x) = 1F2 block + x/(2(2*alpha-1)) 1F2 block; the paper states it as e^x times the sum",
            uses=("alpha",),
            lhs=lambda p: RawProduct((_f11(p.alpha, 2 * p.alpha), _f11(p.alpha, 2 * p.alpha - 1)), exp=-1),
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

    return {d.tag: d for d in defs}


#: The catalog, keyed by tag string; the only registry, which perfbench's
#: tracer rewrites in place.
_REGISTRY = _build_registry()


def get(identity: IdentityId | str) -> IdentityDef:
    """Look up a catalog entry by enum member or tag string, in one dict
    lookup: a member is a ``str`` that hashes and compares as its tag."""
    try:
        return _REGISTRY[identity]
    except KeyError:
        known = ", ".join(tag.value for tag in IdentityId)
        raise ValueError(f"unknown identity tag {identity!r} (known: {known})") from None


def catalog() -> tuple[IdentityDef, ...]:
    """All entries in tag order."""
    return tuple(_REGISTRY[tag] for tag in IdentityId)
