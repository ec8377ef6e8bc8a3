"""The right route: each right side summed from its closed form, a
``Side``'s one-factor terms or a ``ProductSide``'s double sum of ``2F3``
blocks. No right side carries an exponential: where the paper states a
closed form as ``e**x`` times a sum, the catalog checks ``e**(-x)`` times
the left side against the bare sum, and the left route takes the
exponential inside its own recurrence. A side is read by its fields, so
this module imports nothing from :mod:`~hypident.identities` and, as a
tier-1 test checks, nothing from the left route, :mod:`~hypident.left`."""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul

from .hyper import KEPT, _pfq_integers, bailey_product_spec
from .series import TruncatedSeries, _over_last

__all__: list[str] = []


def _sum_series(side, cap: int) -> TruncatedSeries:
    """A ``Side`` by :func:`_terms_integers`, canonical after one gcd."""
    return TruncatedSeries.from_integers(cap, *_terms_integers(side.terms, cap))


def _double_sum_series(side, cap: int) -> TruncatedSeries:
    """A ``ProductSide`` by :func:`_bailey_double_sum`, canonical after one gcd."""
    return TruncatedSeries.from_integers(cap, *_bailey_double_sum(*side.first, *side.second, cap))


def _terms_integers(terms, cap: int) -> tuple[int, list[int]]:
    """The sum of one-factor terms up to ``x**cap`` as ``nums[d] / den``,
    not reduced, over one running denominator.

    A term ``weight * x**power * F(...)`` is needed only up to
    ``x**(cap - power)``, so its pFq factor is expanded only that far; a
    term whose power is past the cap contributes nothing. The factor comes
    straight from the kernel (``_pfq_integers``), which applies the constant
    c of its argument in the term ratio, dividing each step by c or
    multiplying it by c, so its unreduced integers belong on degree ``power
    + stride*k`` as they come, times the weight: stride 2 for an ``x**2/c``
    argument, 1 for ``c*x``. Each term joins the sum over the lcm of its
    denominator and the running one.
    """
    den = 1
    nums = [0] * (cap + 1)
    for term in terms:
        need = cap - term.power
        if need < 0:
            continue
        [(spec, arg)] = term.factors
        scales = (1, arg.c) if arg.squared else (arg.c, 1)
        stride = 2 if arg.squared else 1
        block_den, block_nums = _pfq_integers(spec.upper, spec.lower, need // stride, *scales)
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


def _bailey_double_sum(
    rho: Fraction, den_a: int, first: Sequence[int], sigma: Fraction, den_b: int, second: Sequence[int], cap: int
) -> tuple[int, list[int]]:
    """Coefficients ``nums[d] / den``, up to ``x**cap`` and not reduced, of

        sum over m, n of first[m] / den_a * second[n] / den_b * x**(m+n) * 2F3(B(rho+m, sigma+n); x**2/4),

    with ``B`` the :func:`bailey_product_spec` block. Each factor's weights
    are canonical integer lanes, indexed by the shift, which may hold zeros.

    On the anti-diagonal ``s = m + n`` the block's third lower parameter is
    ``T = rho + sigma + s - 1`` and its upper ones are ``T/2`` and
    ``(T+1)/2``. Legendre's duplication formula (DLMF 5.5.5) gives
    ``(T/2)_k ((T+1)/2)_k = (T)_{2k} / 4**k``, and ``(T)_{2k} / (T)_k =
    (T+k)_k``, so coefficient k of block (m, n) is

        [first[m] / (rho+m)_k] [second[n] / (sigma+n)_k] (T+k)_k / (16**k k!).

    Each factor's part is one integer column ``A[m][k]`` per shift, relative
    to ``(rho + top)_k`` (:func:`_shift_table`). The table depends on the
    factor alone, so it is kept between points by the factor's value as
    integers, at the depth rounded up to a power of two: the points of one
    grid whose caps differ read one table, and ``map`` stops at the shorter
    column. With ``rho = p/q``, ``sigma = p'/q'``, ``rho + top = pa/q``,
    ``sigma + top' = pb/q'``, ``rho + sigma = P/Q`` and ``F(u) = P + u*Q``,
    the rest of coefficient k is ``(q q')**k F(s+k-1) ... F(s+2k-2)`` over
    ``16**k Q**k k! prod_{l<k} (pa + l q)(pb + l q')``; every one of these
    is formed from the integer ratios of rho and sigma, with no
    ``Fraction`` arithmetic. Only the span
    of F depends on the diagonal. Every other denominator divides the one of
    the deepest k, so one k-table ``shared[k]`` over that denominator serves
    every diagonal. The spans stay in the numerator: with ``n, P0 =
    divmod(P, Q)`` the span of diagonal s is row ``s + n`` of the class
    ``(P0, Q)`` (:func:`_span_row`), which the points of one grid share. The
    row is read at the diagonal's depth rounded up as the tables are.
    Coefficient k of diagonal s is then ``shared[k] * span * sum_m A[m][k]
    B[s-m][k]``: each diagonal sums its pairs as one vector over k, column
    by column, and writes its coefficients ``nums[s::2]`` at once.
    """
    # every block's parameters are block (0, 0)'s plus nonnegative integers,
    # so if any block is degenerate, block (0, 0) is: one of rho, sigma and
    # rho + sigma - 1 = (P - Q)/Q is a nonpositive integer, and building the
    # block raises as bailey_product_spec does. Otherwise F(u) != 0 for every
    # u >= -1
    (p, q), (p2, q2) = rho.as_integer_ratio(), sigma.as_integer_ratio()
    g = math.gcd(p * q2 + p2 * q, q * q2)
    P, Q = (p * q2 + p2 * q) // g, q * q2 // g
    if (q == 1 and p <= 0) or (q2 == 1 and p2 <= 0) or (Q == 1 and P <= 1):
        bailey_product_spec(rho, sigma)
    depth = cap // 2
    rounded = 1 << (depth - 1).bit_length()
    den_a, cols_a = _shift_table((p, q, den_a, *first), rounded)
    den_b, cols_b = _shift_table((p2, q2, den_b, *second), rounded)
    top_a, top_b = len(first) - 1, len(second) - 1
    pa, pb = p + top_a * q, p2 + top_b * q2
    steps = [16 * Q * k * (pa + (k - 1) * q) * (pb + (k - 1) * q2) for k in range(depth + 1)]
    common, shared = _over_last(1, steps, list(accumulate(repeat(q * q2, depth), mul, initial=1)))
    n, P0 = divmod(P, Q)
    nums = [0] * (cap + 1)
    for s in range(min(cap, top_a + top_b) + 1):
        pairs = [0] * ((cap - s) // 2 + 1)
        for m in range(max(0, s - top_b), min(s, top_a) + 1):
            pairs = list(map(add, pairs, map(mul, cols_a[m], cols_b[s - m])))
        scales = map(mul, shared, _span_row(P0, Q, s + n, 1 << (len(pairs) - 2).bit_length()))
        nums[s::2] = map(add, nums[s::2], map(mul, scales, pairs))
    return common * den_a * den_b, nums


@KEPT.memo("span rows")
def _span_row(P0: int, Q: int, t: int, depth: int) -> tuple[int, ...]:
    """Row t of the span quotients ``q(t, k) = F0(t+k-1) ... F0(t+2k-2)``
    of the class ``(P0, Q)``, ``F0(u) = P0 + u*Q``, for ``k <= depth``, by
    the exact step ``q(t, k+1) = q(t, k) F0(t+2k-1) F0(t+2k) // F0(t+k-1)``,
    whose divisor is ``F(s+k-1)`` of :func:`_bailey_double_sum`, nonzero at
    every block it admits. The row is kept in :data:`~hypident.hyper.KEPT`,
    namespace ``"span rows"``, by its arguments: the depth is in the key, so
    a row is never read past its end. A kept row never changes, so threads
    share rows with no lock; two that build one row at once build equal rows."""
    row = [1]
    for k in range(depth):
        row.append(row[-1] * (P0 + (t + 2 * k - 1) * Q) * (P0 + (t + 2 * k) * Q) // (P0 + (t + k - 1) * Q))
    return tuple(row)


#: a factor ``(rho, den, nums)`` as integers: ``(p, q, den, *nums)`` with ``rho = p/q``
ShiftKey = tuple[int, ...]
ShiftTable = tuple[int, tuple[tuple[int, ...], ...]]


@KEPT.memo("shift tables")
def _shift_table(key: ShiftKey, depth: int) -> ShiftTable:
    """Integer columns ``cols[m][k]`` over one ``den`` with

        cols[m][k] / den = nums[m] / wden * (rho + top)_k / (rho + m)_k

    for ``k <= depth`` and every shift m, ``top = len(nums) - 1``, the
    factor given by its :data:`ShiftKey`, ``(p, q, wden, *nums)`` with
    ``rho = p/q`` and canonical weight lanes: no ``Fraction`` is formed.

    With ``F(l) = p + l*q``, ``(rho + top)_k / (rho + m)_k`` is ``F(m+k)
    ... F(top+k-1)`` over ``F(m) ... F(top-1)``. Over ``den = wden F(0)
    ... F(top-1)``, entry (m, k) is ``nums[m]`` times the prefix ``F(0) ...
    F(m-1)`` times that k-dependent suffix. Walking m down, each suffix
    column is the one above it times the column ``F(m+k)`` over k. The
    table is kept in :data:`~hypident.hyper.KEPT`, namespace ``"shift
    tables"``, by key and depth; canonical lanes make the key the factor's
    value. The columns are tuples, so a kept table never changes. The
    caller guarantees no ``F(l)`` is 0.
    """
    p, q, wden, *nums = key
    top = len(nums) - 1
    lead = []  # nums[m] times F(0) ... F(m-1)
    prefix = 1
    for m, num in enumerate(nums):
        lead.append(num * prefix)
        if m < top:
            prefix *= p + m * q
    cols = []
    suffix = [1] * (depth + 1)  # F(m+k) ... F(top+k-1) over k
    for m in range(top, -1, -1):
        cols.append(tuple([lead[m] * v for v in suffix]))
        suffix = list(map(mul, suffix, range(p + (m - 1) * q, p + (m - 1 + depth) * q + 1, q)))
    cols.reverse()
    return wden * prefix, tuple(cols)
