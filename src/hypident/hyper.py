"""Generalized hypergeometric series: exact truncations and float sums.

Exact coefficients come from the term-ratio recurrence

    c_{k+1} = c_k * prod(a_j + k) / (prod(b_j + k) * (k + 1))

so each degree costs one big-rational multiply and divide instead of fresh
rising-factorial products. The float path runs the same recurrence in
double precision with Neumaier-compensated accumulation, which keeps the
digits of alternating series at moderate arguments. It stops only on a
proven bound for the omitted tail and returns that bound with the value:
a geometric bound from the term ratio wherever the ratio tends below 1,
and a telescoped tail at the unit argument, where ``p = q + 1`` series
converge only like ``k**-(1+s)``. A sum that exhausts its term budget
reports no bound rather than a wrong value.
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
        # tuple() of a list, not of a generator: see TruncatedSeries.from_integers
        object.__setattr__(self, "upper", tuple([Fraction(a) for a in self.upper]))
        object.__setattr__(self, "lower", tuple([Fraction(b) for b in self.lower]))
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

    With every parameter written over one common denominator L, step k of
    the recurrence multiplies by ``num_k / den_k`` where
    ``num_k = prod(A_j + k*L) * L**(q-p)`` and
    ``den_k = (k+1) * prod(B_j + k*L) * L**(p-q)`` (each power only when
    positive) are integers. Coefficient k is then the prefix product of
    the numerator factors times the suffix product of the denominator
    factors over the product of all of them, with no gcd inside the loop.

    Once a term hits zero (an upper parameter was a nonpositive integer)
    every later term is zero too, so the loop stops early and the series
    is genuinely polynomial.
    """
    if cap < 0:
        raise ValueError("series cap must be nonnegative")
    scale = math.lcm(*(v.denominator for v in spec.upper + spec.lower))
    upper = [a.numerator * (scale // a.denominator) for a in spec.upper]
    lower = [b.numerator * (scale // b.denominator) for b in spec.lower]
    excess = len(spec.lower) - len(spec.upper)
    num_extra = scale**excess if excess > 0 else 1
    den_extra = scale**-excess if excess < 0 else 1

    prefix = [1]  # prefix[k] = num_0 * ... * num_{k-1}
    dens = []
    for k in range(cap):
        num = num_extra
        for a in upper:
            num *= a + k * scale
        if num == 0:
            break
        den = (k + 1) * den_extra
        for b in lower:
            den *= b + k * scale
        prefix.append(prefix[-1] * num)
        dens.append(den)

    # walking down, suffix = den_k * ... * den_{last - 1}
    top = len(dens)
    nums = [0] * (cap + 1)
    suffix = 1
    for k in range(top, -1, -1):
        nums[k] = prefix[k] * suffix
        if k:
            suffix *= dens[k - 1]
    return TruncatedSeries.from_integers(cap, suffix, nums)


@dataclass(frozen=True)
class FloatSum:
    """Outcome of a floating-point series summation.

    ``converged`` says the truncation was bounded: a proven bound on the
    omitted tail is at most ``tol * |value|``. ``error_bound`` then bounds
    ``|sum - value|``: that tail bound plus a first-order allowance for
    rounding, ``c * terms * 2**-53`` times ``abs_sum`` and the size of the
    tail estimate (``c`` counts the roundings of one term step). When the
    budget runs out there is no bound: ``converged`` is False,
    ``error_bound`` is infinite, and the partial value is still reported so
    callers can decide what to do with it. ``abs_sum`` is ``sum |t_k|`` over
    the summed terms plus the magnitude of the tail estimate, the scale
    against which cancellation in ``value`` is measured.
    """

    value: float
    converged: bool
    terms: int
    last_term: float
    abs_sum: float
    error_bound: float


#: Order M of the telescoped tail at the unit argument: its remainder
#: falls like ``|t_N| * N**-M``.
_TAIL_ORDER = 8
_ROUNDOFF = 2.0**-53


def pfq_eval_float(
    spec: HypSpec,
    x: float,
    tol: float = 1e-15,
    max_terms: int = 500,
) -> FloatSum:
    """Sum pFq(upper; lower; x) in double precision with a bounded tail.

    Terms follow the same ratio recurrence as the exact path, accumulated
    with Neumaier compensation. The sum stops only when a proven bound on
    the tail is at most ``tol * |value|``; running out of ``max_terms``
    gives ``converged`` False, which means "no bound", not "wrong".

    * A term that is exactly 0 (an upper parameter ``-n``) ends the sum
      with tail 0.
    * At ``x = 1`` with ``p = q + 1`` (log-convergent) the tail is
      telescoped, see :func:`_telescoped_tail`; it needs the excess
      ``sum(lower) - sum(upper)`` to be positive.
    * Everywhere else the tail is geometric once every later term ratio
      is at most some ``q < 1``, see :func:`_geometric_tail`. This covers
      every ``p <= q`` series and ``p = q + 1`` at ``|x| < 1``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    upper = [float(a) for a in spec.upper]
    lower = [float(b) for b in spec.lower]
    telescoped = None
    if x == 1.0 and len(upper) == len(lower) + 1:
        if not any(is_nonpositive_integer(a) for a in spec.upper):
            telescoped = _telescoped_tail(spec)

    total = 1.0  # k = 0 term
    comp = 0.0
    term = 1.0
    abs_sum = 1.0
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
        abs_sum += abs(term)

        # terms t_0 .. t_{k+1} are in the sum
        if telescoped is not None:
            found = telescoped(k + 1, term)
        elif abs(term) > tol * abs(total + comp):
            continue
        elif term == 0.0:  # an upper parameter -n: every later term is 0
            found = 0.0, 0.0, 0.0
        else:
            found = _geometric_tail(upper, lower, x, k + 1, term)
        if found is None:
            continue
        correction, tail, magnitude = found
        value = total + comp + correction
        if tail <= tol * abs(value):
            steps = 2 * (len(upper) + len(lower)) + 4
            rounding = steps * (k + 2) * _ROUNDOFF * (abs_sum + magnitude)
            return FloatSum(value, True, k + 2, term, abs_sum + abs(correction), tail + rounding)
    return FloatSum(total + comp, False, max_terms + 1, term, abs_sum, math.inf)


def _geometric_tail(upper: list[float], lower: list[float], x: float, n: int, term: float):
    """Bound on ``sum_{j > n} |t_j|`` from a ratio bound, or None.

    Pair each upper parameter ``a`` with a lower one ``b`` (the ``k + 1`` of
    ``k!`` counting as a lower parameter 1). For ``j >= n`` with ``b + n >
    0``, ``|a + j| / (b + j) <= 1 + |a - b| / (b + n)``, and an unpaired
    lower factor gives ``1 / (b + n)``, so every later ratio is at most
    ``q = |x| * prod(...)``. When ``q < 1`` the tail is at most
    ``|t_n| * q / (1 - q)``. ``p > q + 1`` upper parameters, or ``q >= 1``,
    give no bound.
    """
    lows = lower + [1.0]
    if len(upper) > len(lows) or min(lows) + n <= 0:
        return None
    q = abs(x)
    for a, b in zip(upper, lows):
        q *= 1.0 + abs(a - b) / (b + n)
    for b in lows[len(upper):]:
        q /= b + n
    if q >= 1.0:
        return None
    return 0.0, abs(term) * q / (1.0 - q), 0.0


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, coefficients in ascending order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _poly_from_roots(shifts: list[int]) -> list[int]:
    """``prod (K + s)`` in ascending coefficients."""
    out = [1]
    for s in shifts:
        out = _poly_mul(out, [s, 1])
    return out


def _telescoped_tail(spec: HypSpec):
    """Tail rule for a ``q+1Fq`` sum at ``x = 1``, or None without one.

    With ``t_{k+1} = t_k * P(k)/Q(k)``, ``P(k) = prod(k + a)`` and
    ``Q(k) = (k + 1) prod(k + b)``, take ``R(k) = k * sum_j c_j k**-j``
    (``j <= M``). Then ``g_k = t_k R(k)`` telescopes:

        S = S_N + t_N R(N) + sum_{k >= N} t_k eps_k,
        eps_k = 1 - R(k) + r_k R(k+1).

    In ``K = L*k`` (``L`` the common denominator of the parameters),
    ``eps_k`` is an integer polynomial over
    ``L Q(K) K**(M-1) (K + L)**(M-1)``, and its numerator is linear in the
    ``c_j``. Choosing them so that its top ``M + 1`` coefficients vanish
    makes ``eps_k = O(k**(-M-1))``; that is a triangular system whose pivot
    at order ``n`` is ``-L (s + n)``, with ``s = sum(b) - sum(a)`` the
    excess. The solve is exact, so it needs ``s > 0``; otherwise there is
    no rule. The remaining coefficients bound ``|eps_k| k**(M+1) <= E_N``
    for all ``k >= N``. For ``N`` past the last sign change (every
    ``k + a`` and ``k + b`` positive, ``Q - P > 0``) the terms shrink
    monotonically, hence

        |sum_{k >= N} t_k eps_k| <= |t_N| E_N (N**(-M-1) + N**-M / M).

    The returned function maps ``(N, t_N)`` to ``(t_N (R(N) - 1), bound,
    magnitude)``, the correction to the partial sum ``S_N + t_N``, the
    remainder bound, and ``|t_N| (1 + sum |c_j| N**(1-j))`` for the
    rounding allowance. It evaluates the rule on a schedule (each check
    lets ``N`` grow by an eighth) and answers None in between and before
    the first valid ``N``. The bound uses the series' own parameters only.
    (F. Johansson, *Computing hypergeometric functions rigorously*,
    arXiv:1606.06977, bounds tails in the same spirit.)
    """
    order = _TAIL_ORDER
    scale = math.lcm(*(v.denominator for v in spec.upper + spec.lower))
    ups = [a.numerator * (scale // a.denominator) for a in spec.upper]
    lows = [b.numerator * (scale // b.denominator) for b in spec.lower]
    if sum(lows) <= sum(ups):
        return None
    p_poly = _poly_from_roots(ups)  # scale**(q+1) P(K / scale)
    q_poly = _poly_from_roots(lows + [scale])
    shifted = [[1]]  # (K + scale)**m
    for _ in range(order):
        shifted.append(_poly_mul(shifted[-1], [scale, 1]))
    q_shifted = _poly_mul(q_poly, shifted[order - 1])

    # The numerator of eps_k is acc / den: it starts as the part free of
    # the c_j, and c_j * scale**j = nums[j] / den adds c_j times
    # P(K) (K + scale)**(M-j) K**(M-1) - Q(K) (K + scale)**(M-1) K**(M-j).
    acc = [0] * (order - 1) + [scale * v for v in q_shifted]
    size = len(acc)
    nums: list[int] = []
    den = 1
    for n in range(order + 1):
        basis = [0] * (order - 1) + _poly_mul(p_poly, shifted[order - n]) + [0] * n
        for i, v in enumerate(q_shifted):
            basis[i + order - n] -= v
        # basis has size + 1 entries, the top one 0 (both products are monic)
        degree = size - 1 - n
        pivot, lead = basis[degree], acc[degree]
        acc = [pivot * u - lead * v for u, v in zip(acc, basis)]
        nums = [pivot * v for v in nums] + [-lead]
        den *= pivot
    top = len(spec.lower) + order - 2
    assert not any(acc[top + 1:]), "telescoped tail: leading orders did not cancel"
    norm = abs(den) * scale ** (top + order + 2)
    e_coeffs = [abs(v) * scale**i / norm for i, v in enumerate(acc[: top + 1])]
    r_coeffs = [v / (den * scale**j) for j, v in enumerate(nums)]
    lower = [float(b) for b in spec.lower]

    # first N past the last sign change: N + a > 0, N + b > 0, Q - P > 0 on [N, oo)
    gap = [u - v for u, v in zip(q_poly, p_poly)][:-1]  # Q - P, degree q

    def gap_positive(n: int) -> bool:
        big = scale * n
        return gap[-1] * big ** (len(gap) - 1) > sum(abs(v) * big**i for i, v in enumerate(gap[:-1]))

    next_check = max(1, 1 - min(math.ceil(v) for v in spec.upper + spec.lower))
    while not gap_positive(next_check):
        next_check += 1

    def tail(n: int, term: float):
        nonlocal next_check
        if n < next_check:
            return None
        next_check = n + 1 + n // 8
        w = 1.0 / n
        r = r_abs = 0.0
        for c in reversed(r_coeffs):
            r = r * w + c
            r_abs = r_abs * w + abs(c)
        e = 0.0
        for c in e_coeffs:
            e = e * w + c
        # for k >= N the denominator is at least K**(q+2M-1) prod min(1, 1 + b/N)
        for b in lower:
            e /= min(1.0, 1.0 + b * w)
        bound = abs(term) * e * (w ** (order + 1) + w**order / order)
        return term * (r * n - 1.0), bound, abs(term) * (r_abs * n + 1.0)

    return tail


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
