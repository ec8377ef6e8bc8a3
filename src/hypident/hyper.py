"""Generalized hypergeometric series: exact truncations and float sums.

Exact coefficients come from the term-ratio recurrence

    c_{k+1} = c_k * prod(a_j + k) / (prod(b_j + k) * (k + 1))

run over integers, each parameter over its own denominator. The running
numerator is divided by its common factor with each step's small
denominator, one big-by-small gcd a step, so the integers stay near lowest
terms as they go and no degree builds a fraction (see
:func:`_pfq_integers`). The float path runs the same recurrence in double
precision with Neumaier-compensated accumulation, which keeps the digits of
alternating series at moderate arguments. It stops only on a proven bound
for the omitted tail and returns that bound with the value: a geometric
bound from the term ratio wherever the ratio tends below 1, and a
telescoped tail at the unit argument, where ``p = q + 1`` series converge
only like ``k**-(1+s)``. A sum that exhausts its term budget reports no
bound rather than a wrong value. :data:`KEPT` is the process's one store of
what the points of a grid share, under one budget in bits.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .rationals import _exact_rational, _over_common, format_rational, is_nonpositive_integer
from .series import TruncatedSeries, _over_last

__all__ = [
    "DegenerateParameterError",
    "FloatSum",
    "HypSpec",
    "bailey_product_spec",
    "pfq_eval_float",
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


class HypSpec(namedtuple("HypSpec", "upper lower")):
    """Parameter block of a pFq series: upper (numerator) and lower
    (denominator) parameter tuples of Fractions.

    Lower parameters that are nonpositive integers are rejected at
    construction, because the term recurrence would divide by zero before
    reaching the cap. Every way to a spec goes through ``__new__``:
    ``_make``, and so ``_replace``, call it.
    """

    __slots__ = ()

    def __new__(cls, upper: Sequence[Fraction | int], lower: Sequence[Fraction | int]) -> HypSpec:
        # tuple() of a list, not of a generator: see TruncatedSeries.from_integers
        # (a Fraction is kept as it is, with no call, so a side built from
        # Fractions reaches nothing past HypSpec; a float is refused)
        upper = tuple([a if isinstance(a, Fraction) else _exact_rational(a, f"upper[{pos}]") for pos, a in enumerate(upper)])
        lower = tuple([b if isinstance(b, Fraction) else _exact_rational(b, f"lower[{pos}]") for pos, b in enumerate(lower)])
        for pos, b in enumerate(lower):
            if b.denominator == 1 and b.numerator <= 0:
                raise DegenerateParameterError(f"lower[{pos}]", b, -b.numerator)
        return tuple.__new__(cls, (upper, lower))

    _make = classmethod(lambda cls, iterable: cls(*iterable))


def pfq_series(spec: HypSpec, cap: int) -> TruncatedSeries:
    """Exact truncation of pFq(upper; lower; x) to the given cap: the
    integers of :func:`_pfq_integers` brought to canonical form by one gcd.
    Unused by the package: perfbench's tracer patches it, and tests use it as an oracle.
    """
    return TruncatedSeries.from_integers(cap, *_pfq_integers(spec.upper, spec.lower, cap))


def _pfq_integers(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    cap: int,
    num_scale: int = 1,
    den_scale: int = 1,
) -> tuple[int, list[int]]:
    """Coefficients ``nums[k] / den`` of pFq(upper; lower; r*t) up to the
    cap, with ``r = num_scale / den_scale`` (nonzero integers, 1 by
    default), not reduced: ``den`` is nonzero but may share a factor with
    every numerator and may be negative.

    With each parameter ``p/q`` over its own denominator q, step k of the
    recurrence multiplies by ``num_k / den_k``, where
    ``num_k = num_scale * prod(q of each lower) * prod(p + k*q over the
    upper)`` and ``den_k = den_scale * prod(q of each upper) * (k+1) *
    prod(p + k*q over the lower)`` are integers, their constant parts
    divided by their common factor once. The running numerator is
    multiplied by ``num_k`` and then divided, with ``den_k``, by their
    common factor: one gcd of a big integer with a small one a step, as the
    left sides' recurrence does. The reduced ``den_k`` are the steps'
    denominators; their product, the last denominator, is the canonical one
    at every catalog term checked, and coefficient k is brought to it by
    suffix products (:func:`~hypident.series._over_last`). The kernel keeps
    no state between calls.

    An upper parameter ``-n``, a nonpositive integer, makes step n's
    factor ``p + n q`` zero and every term past degree n zero: the series
    is genuinely polynomial. So the step factors are formed only up to the
    first such step, and the terms past it are padded with zeros. The
    parameters are bare tuples, which unlike a :class:`HypSpec` may hold a
    nonpositive integer lower parameter: the caller must exclude a zero
    denominator factor before the series ends.
    """
    if cap < 0:
        raise ValueError("series cap must be nonnegative")
    ups = [a.as_integer_ratio() for a in upper]
    lows = [b.as_integer_ratio() for b in lower]
    count = cap  # steps to form: an upper parameter -n < cap ends the series at n
    for p, q in ups:
        if p <= 0 and q == 1 and -p < count:
            count = -p
    # step k multiplies coefficient k by nums[k] / dens[k]; their constant
    # parts share a factor that would otherwise cost a division every step
    num = num_scale * math.prod([q for _, q in lows])
    den = den_scale * math.prod([q for _, q in ups])
    g = math.gcd(num, den)
    nums = [num // g] * count
    extra = den // g
    dens = list(range(extra, extra * (count + 1), extra))
    for p, q in ups:
        nums = list(map(mul, nums, range(p, p + count * q, q)))
    for p, q in lows:
        dens = list(map(mul, dens, range(p, p + count * q, q)))
    steps, heads = [1], [1]
    head = 1
    for num, den in zip(nums, dens):
        head *= num
        g = math.gcd(head, den)
        if g > 1:
            head //= g
            den //= g
        steps.append(den)
        heads.append(head)
    den, nums = _over_last(1, steps, heads)
    return den, nums + [0] * (cap + 1 - len(nums))


class FloatSum(NamedTuple):
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
    gives ``converged`` False, which means "no bound", not "wrong". Each
    parameter is converted once, as ``numerator / denominator``: the double
    that ``float`` gives a ``Fraction``, without its call through the
    ``numbers`` ABC. Each term's magnitude is formed once.

    * A term that is exactly 0 (an upper parameter ``-n``) ends the sum
      with tail 0.
    * A term that overflows ends the sum: the value is that term's signed
      infinity, not converged, with infinite ``abs_sum`` and error bound.
      So does a parameter past the double range, or a lower one that
      rounds to ``-n`` when the sum reaches step ``n``: the value is ``inf``.
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
    total = 1.0  # k = 0 term
    comp = 0.0
    term = 1.0
    abs_sum = 1.0
    k = -1  # no step yet, should a parameter overflow
    try:
        upper = [a.numerator / a.denominator for a in spec.upper]
        lower = [b.numerator / b.denominator for b in spec.lower]
        telescoped = None
        if x == 1.0 and len(upper) == len(lower) + 1:
            if not any(is_nonpositive_integer(a) for a in spec.upper):
                telescoped = _telescoped_tail(spec, tol)

        for k in range(max_terms):
            ratio = x / (k + 1.0)
            for a in upper:
                ratio *= a + k
            for b in lower:
                ratio /= b + k
            term *= ratio
            size = abs(term)
            fresh = total + term
            if abs(total) >= size:
                comp += (total - fresh) + term
            else:
                comp += (term - fresh) + total
            total = fresh
            abs_sum += size

            # terms t_0 .. t_{k+1} are in the sum. A term that is not finite
            # never continues here, as its compensation makes the sum nan, so
            # the check below costs the hot loop nothing
            if telescoped is None and size > tol * abs(total + comp):
                continue
            if not math.isfinite(term):
                return FloatSum(term, False, k + 2, math.inf, math.inf)
            if telescoped is not None:
                found = telescoped(k + 1, term, total, comp)
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
                return FloatSum(value, True, k + 2, abs_sum + abs(correction), tail + rounding)
    except (OverflowError, ZeroDivisionError):
        return FloatSum(math.inf, False, k + 2, math.inf, math.inf)
    return FloatSum(total + comp, False, max_terms + 1, abs_sum, math.inf)


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


def _times_linear(poly: Sequence[int], s: int) -> list[int]:
    """``poly * (K + s)``, coefficients in ascending order."""
    return [a * s + b for a, b in zip([*poly, 0], [0, *poly])]


def _poly_from_roots(shifts: list[int], poly: Sequence[int] = (1,)) -> list[int]:
    """``poly * prod (K + s)`` in ascending coefficients."""
    for s in shifts:
        poly = _times_linear(poly, s)
    return list(poly)


def _telescoped_tail(spec: HypSpec, tol: float):
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

    The returned function maps ``(N, t_N, total, comp)``, the partial sum
    ``S_N + t_N`` being ``total + comp``, to ``(t_N (R(N) - 1), bound,
    magnitude)``: the correction to that sum, the remainder bound, and
    ``|t_N| (1 + sum |c_j| N**(1-j))`` for the rounding allowance. It
    evaluates the rule on a schedule (each check lets ``N`` grow by an
    eighth) and answers None in between and before the first valid ``N``.
    The bound uses the series' own parameters only. (F. Johansson,
    *Computing hypergeometric functions rigorously*, arXiv:1606.06977,
    bounds tails in the same spirit.)

    Most checks fail; :func:`_tail_cannot_stop` skips one cheaply. E has
    nonnegative coefficients and each ``min(1, 1 + b/N)`` is in ``(0, 1]``,
    so the bound is at least ``|t_N| e_0 N**-M / M``, ``e_0`` being E's
    constant coefficient, while ``|R(N)| <= C N`` with ``C = sum |c_j|``. If

        |t_N| (e_0 / 2) N**-M / M > tol (|total| + |comp| + |t_N| (2C + 1) N),

    the bound exceeds ``tol |value|`` twice over (the 2s cover rounding) and
    the check fails. The test is used only for ``N >= -2b``, every lower
    ``b``, so that ``1 + b/N`` is positive in floating point too.
    """
    order = _TAIL_ORDER
    scale, values = _over_common(*spec.upper, *spec.lower)
    ups, lows = values[: len(spec.upper)], values[len(spec.upper) :]
    if sum(lows) <= sum(ups):
        return None
    p_poly = _poly_from_roots(ups)  # scale**(q+1) P(K / scale)
    q_poly = _poly_from_roots(lows + [scale])
    p_shifted = list(accumulate([scale] * order, _times_linear, initial=p_poly))  # P(K) (K + scale)**m
    q_shifted = _poly_from_roots([scale] * (order - 1), q_poly)

    # The numerator of eps_k is acc / den: it starts as the part free of
    # the c_j, and c_j * scale**j = nums[j] / den adds c_j times
    # P(K) (K + scale)**(M-j) K**(M-1) - Q(K) (K + scale)**(M-1) K**(M-j).
    acc = [0] * (order - 1) + [scale * v for v in q_shifted]
    size = len(acc)
    nums: list[int] = []
    den = 1
    for n in range(order + 1):
        basis = [0] * (order - 1) + p_shifted[order - n] + [0] * n
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
    floor, span = e_coeffs[-1] / (2 * order), 2 * sum(map(abs, r_coeffs)) + 1  # e_0 / 2M, 2C + 1
    skip_from = -2 * min([0.0, *lower])  # so 1 + b/N >= 1/2

    # first N past the last sign change: N + a > 0, N + b > 0, Q - P > 0 on [N, oo)
    gap = [u - v for u, v in zip(q_poly, p_poly)][:-1]  # Q - P, degree q

    def gap_positive(n: int) -> bool:
        big = scale * n
        return gap[-1] * big ** (len(gap) - 1) > sum(abs(v) * big**i for i, v in enumerate(gap[:-1]))

    next_check = max(1, 1 + -min(ups + lows) // scale)
    while not gap_positive(next_check):
        next_check += 1

    def tail(n: int, term: float, total: float, comp: float):
        nonlocal next_check
        if n < next_check:
            return None
        next_check = n + 1 + n // 8
        if n >= skip_from and _tail_cannot_stop(term, total, comp, n, floor, span, tol):
            return None
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


def _tail_cannot_stop(term: float, total: float, comp: float, n: int, floor: float, span: float, tol: float) -> bool:
    """The test of :func:`_telescoped_tail`, with ``floor = e_0 / 2M`` and ``span = 2C + 1``."""
    return abs(term) * floor * n**-_TAIL_ORDER > tol * (abs(total) + abs(comp) + abs(term) * span * n)


def bailey_product_spec(rho: Fraction | int, sigma: Fraction | int) -> HypSpec:
    """Parameters of the single series equal to 0F1(; rho; t) * 0F1(; sigma; t).

    The product is ``2F3((rho+sigma)/2, (rho+sigma-1)/2; rho, sigma,
    rho+sigma-1; 4t)``. Degenerate rho, sigma, or rho+sigma-1 raise here.
    """
    total = Fraction(rho) + Fraction(sigma)
    return HypSpec(upper=(total / 2, (total - 1) / 2), lower=(rho, sigma, total - 1))


def bailey_product_series(rho: Fraction | int, sigma: Fraction | int, cap: int) -> TruncatedSeries:
    """Single-series form of the product 0F1(; rho; t) * 0F1(; sigma; t).

    Returns the exact truncation of the :func:`bailey_product_spec` series
    at ``4t``, as a series in t, the variable the two factors share.
    Degenerate parameters raise before any work happens.
    Unused by the package: perfbench's tracer patches it, and tests use it as an oracle.
    """
    return pfq_series(bailey_product_spec(rho, sigma), cap).scale_argument(4)


class KeptInfo(NamedTuple):
    """One namespace of :data:`KEPT`: its reads, and the bits and entries it keeps."""

    hits: int
    misses: int
    bits: int
    entries: int


def _bits(value) -> int:
    """What keeping ``value`` is charged: the bits of its integers, a
    ``Fraction``'s two, summed over tuples; 2,048 for a ``FloatSum``, which
    holds no integer of size; nothing for a string."""
    if isinstance(value, FloatSum):
        return 2048
    if isinstance(value, tuple):
        if value and type(value[-1]) is int:  # a row or column of integers, summed at C speed
            try:
                return sum(map(int.bit_length, value))
            except TypeError:  # not integers alone
                pass
        return sum(map(_bits, value))
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return value.bit_length() if type(value) is int else 0


class KeptStore:
    """Values kept for the process, each built by a :meth:`memo` builder and
    kept under its namespace and arguments, up to ``budget`` bits
    (:func:`_bits`) in all. The first kept is the first dropped, and a
    value larger than the budget is built and not kept. A value is charged
    once, when it is built, and kept beside its charge, so a drop reads the
    charge; each namespace's counts run as values are kept and dropped, so
    :meth:`cache_info` walks nothing. A kept value is a tuple and never
    changes, so a read takes no lock, and two threads that build one value
    at once build equal values. The lock covers the order, which says what
    to drop, and the kept bits and entries; the hit and miss counts are not
    locked and may lose a count to a thread switch."""

    def __init__(self, budget: int):
        self.budget = budget
        self._kept: OrderedDict = OrderedDict()  # (namespace, *args): (value, bits)
        self._bits = 0
        self._counts: dict[str, list[int]] = {}  # hits, misses, bits, entries, by namespace
        self._lock = threading.Lock()

    def memo(self, namespace: str):
        """A decorator, as ``functools.lru_cache`` is one: the function's
        value is kept in ``namespace``, made here and refused a second
        builder (``ValueError``), by its positional arguments."""
        if namespace in self._counts:
            raise ValueError(f"namespace {namespace!r} already has a builder")
        kept, counts = self._kept, self._counts.setdefault(namespace, [0, 0, 0, 0])

        def wrap(build):
            def lookup(*args):
                key = (namespace, *args)
                found = kept.get(key)
                counts[found is None] += 1  # hits, misses
                if found is not None:
                    return found[0]
                value = build(*args)
                bits = _bits(value)
                with self._lock:
                    if bits <= self.budget and key not in kept:
                        while self._bits + bits > self.budget:
                            first, (_, charge) = kept.popitem(last=False)
                            dropped = self._counts[first[0]]
                            self._bits -= charge
                            dropped[2:] = dropped[2] - charge, dropped[3] - 1
                        kept[key] = value, bits
                        self._bits += bits
                        counts[2:] = counts[2] + bits, counts[3] + 1
                return value

            return functools.update_wrapper(lookup, build)

        return wrap

    def cache_info(self) -> dict[str, KeptInfo]:
        """Each namespace's counts since the last clear, by name."""
        with self._lock:
            return {name: KeptInfo(*counts) for name, counts in self._counts.items()}

    def cache_clear(self) -> None:
        with self._lock:
            self._kept.clear()
            self._bits = 0
            for counts in self._counts.values():
                counts[:] = 0, 0, 0, 0


#: the bits :data:`KEPT` may hold over every namespace; README's "How sides are built" says why
KEPT_BITS = 1 << 22
KEPT = KeptStore(KEPT_BITS)
