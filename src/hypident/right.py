"""The right route: each right side summed from its closed form, a
``Side``'s one-factor terms or a ``ProductSide``'s double sum of ``2F3``
blocks. The exponential depends on the side type alone: a ``Side`` takes
it inside each term, by the term's own recurrence, and a ``ProductSide``
once, on its double sum, by ``TruncatedSeries.times_exp``. A side is read
by its fields, so this module imports nothing from
:mod:`~hypident.identities` and, as a tier-1 test checks, nothing from the
left route, :mod:`~hypident.left`."""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub

from .hyper import KEPT, HypSpec, _pfq_integers, bailey_product_spec
from .series import TruncatedSeries, _over_last

__all__: list[str] = []


def _sum_series(side, cap: int) -> TruncatedSeries:
    """A ``Side`` by :func:`_terms_integers`, canonical after one gcd; a
    side with an exponential takes it inside each term, by the term's own
    recurrence (:func:`_exp_term_integers`), at every cap."""
    return TruncatedSeries.from_integers(cap, *_terms_integers(side.terms, cap, side.exp))


def _double_sum_series(side, cap: int) -> TruncatedSeries:
    """A ``ProductSide`` by :func:`_bailey_double_sum`, times ``e**x`` by ``times_exp``."""
    return TruncatedSeries.from_integers(cap, *_bailey_double_sum(*side.first, *side.second, cap)).times_exp(side.exp)


def _terms_integers(terms, cap: int, eps: Fraction | int = 0) -> tuple[int, list[int]]:
    """The sum of one-factor terms up to ``x**cap``, each times
    ``e**(eps*x)``, as ``nums[d] / den``, not reduced, over one running
    denominator.

    A term ``weight * x**power * F(...)`` is needed only up to
    ``x**(cap - power)``, so its pFq factor is expanded only that far; a
    term whose power is past the cap contributes nothing. Without an
    exponential the factor comes straight from the kernel
    (``_pfq_integers``), which applies the constant c of its argument in
    the term ratio, dividing each step by c or multiplying it by c, so its
    unreduced integers belong on degree ``power + stride*k`` as they come,
    times the weight: stride 2 for an ``x**2/c`` argument, 1 for ``c*x``.
    With one, the factor times ``e**(eps*x)`` comes from its own recurrence
    (:func:`_exp_term_integers`), every degree in turn. Each term joins the
    sum over the lcm of its denominator and the running one.
    """
    den = 1
    nums = [0] * (cap + 1)
    for term in terms:
        need = cap - term.power
        if need < 0:
            continue
        [(spec, arg)] = term.factors
        if eps:
            block_den, block_nums = _exp_term_integers(spec, arg, eps, need)
            stride = 1
        else:
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


def _exp_term_integers(spec: HypSpec, arg, eps: Fraction, cap: int) -> tuple[int, list[int]]:
    """``y = e**(eps*x) F(r x**k)`` up to ``x**cap``, for ``F =
    pFq(spec)`` at the argument ``c*x`` (``k = 1``, ``r = c``) or ``x**2/c``
    (``k = 2``, ``r = 1/c``), as ``nums[n] / den``, not reduced.

    F solves ``theta_t prod(theta_t + b - 1) F = t prod(theta_t + a) F``
    (DLMF 16.8.3). With ``t = r x**k`` and ``theta = x d/dx``, ``G = F(r
    x**k)`` solves ``P(theta) G = R x**k Q(theta) G`` with ``P(m) = m
    prod(m + k(b-1))``, ``Q(m) = prod(m + k a)`` and ``R = r k**(q+1-p)``,
    and ``y = E G``, ``E = e**(eps*x)``, solves the same with ``theta``
    replaced by ``E theta E**-1 = theta - eps*x``. That operator takes
    ``x**m`` to ``E P(theta) E**-1 x**m``, whose coefficient of
    ``x**(m+j)`` is ``(-eps)**j / j!`` times the forward difference
    ``Delta**j P(m)``. So ``sum_j C_j(n-j) y_(n-j) = 0`` with

        C_j(m) = (-eps)**j / j! Delta**j P(m) - R (-eps)**(j-k) / (j-k)! Delta**(j-k) Q(m),

    which gives degree n from the last few in O(1) big-by-small integer
    steps. Every factor of P and Q is scaled to integers over its own
    denominator, and the C_j to integers once, from one small table of
    forward differences of P and of Q; each C_j is then a polynomial in n
    whose values are running sums of its differences. Top C_j that vanish
    shorten the recurrence. The last few y are kept over one running
    denominator, the one before times the pivot ``C_0(n)``; the new head and
    its step are divided by their common factor, one gcd with the small
    step, as the left sides' recurrence does. The heads are brought to the
    last denominator by :func:`~hypident.series._over_last`.

    The pivot vanishes where ``k(1-b) = n`` (never for ``k = 1``: a
    ``HypSpec`` refuses a nonpositive integer lower parameter). That degree
    is left free by its equation and is taken from its definition
    (:func:`_resonant_exp_term`).
    """
    k = 2 if arg.squared else 1
    e, s = eps.as_integer_ratio()
    lower = [b.as_integer_ratio() for b in spec.lower]
    upper = [a.as_integer_ratio() for a in spec.upper]
    degree, order = len(lower) + 1, max(len(lower) + 1, len(upper) + k)
    # P and Q, each factor times its denominator, at m = 1 - order .. 1 + order,
    # and their forward differences: table[t][i] is Delta**t at m = 1 - order + i
    first, last = 1 - order, 2 + order
    p_table, q_table = [list(range(first, last))], [[1] * (last - first)]
    for p, q in lower:
        p_table[0] = list(map(mul, p_table[0], range(k * (p - q) + first * q, k * (p - q) + last * q, q)))
    for p, q in upper:
        q_table[0] = list(map(mul, q_table[0], range(k * p + first * q, k * p + last * q, q)))
    for table, top in ((p_table, degree), (q_table, len(upper))):
        for _ in range(top):
            table.append(list(map(sub, table[-1][1:], table[-1])))
    # P - R x**k Q over those denominators is v P - u x**k Q; times s**order
    # order!, Delta**j P comes with p_scales[j] and Delta**i Q with q_scales[i]
    power = len(lower) + 1 - len(upper)
    u = math.prod([q for _, q in lower]) * k ** max(power, 0) * (1 if arg.squared else arg.c)
    v = math.prod([q for _, q in upper]) * k ** max(-power, 0) * (arg.c if arg.squared else 1)
    p_scales = [v * (-e) ** j * s ** (order - j) * math.perm(order, order - j) for j in range(degree + 1)]
    q_scales = [-u * (-e) ** i * s ** (order - i) * math.perm(order, order - i) for i in range(len(upper) + 1)]
    # the pivot C_0(n), then -C_j(n - j), are polynomials in n, each given by
    # its forward differences at n = 1
    columns = []
    for j in range(order + 1):
        registers = []
        for i in range(order - j + 1):
            r = p_scales[j] * p_table[i + j][order - j] if i + j <= degree else 0
            if j >= k and i + j - k <= len(upper):
                r += q_scales[j - k] * q_table[i + j - k][order - j]
            registers.append(r if j == 0 else -r)
        columns.append(registers)
    # the top C_j can vanish, and the recurrence is then shorter: the last
    # does for every catalog block, a pF(p+1) at x**2/4 with eps = +-1
    while len(columns) > 2 and not any(columns[-1]):
        columns.pop()
    order = len(columns) - 1
    g = math.gcd(*[r for registers in columns for r in registers])
    columns = [[r // g for r in registers] for registers in columns]
    # each column's values at n = 1, 2, ..., summed up from its differences
    lanes = []
    for registers in columns:
        lane = repeat(registers[-1])
        for r in registers[-2::-1]:
            lane = accumulate(lane, initial=r)
        lanes.append(lane)
    window = [1] + [0] * (order - 1)  # y_(n-1), ..., y_(n-order) over the last denominator
    steps, heads = [1], [1]
    for n, step, stencil in zip(range(1, cap + 1), lanes[0], zip(*lanes[1:])):
        head = sum(map(mul, stencil, window))
        if not step:
            full = math.prod(steps)
            value = _resonant_exp_term(spec, arg, eps, n)
            step = value.denominator // math.gcd(full, value.denominator)
            head = value.numerator * (full * step // value.denominator)
        g = math.gcd(head, step)
        if g > 1:
            head //= g
            step //= g
        steps.append(step)
        heads.append(head)
        del window[-1]
        window = [head, *map(step.__mul__, window)]
    return _over_last(1, steps, heads)


def _resonant_exp_term(spec: HypSpec, arg, eps: Fraction, n: int) -> Fraction:
    """Coefficient n of ``e**(eps*x) F``, F the factor at ``x**2/c``: the
    sum over i of ``f_i / c**i`` times ``eps**(n-2i) / (n-2i)!``."""
    den, nums = _pfq_integers(spec.upper, spec.lower, n // 2, 1, arg.c)
    return sum(Fraction(f * eps ** (n - 2 * i), den * math.factorial(n - 2 * i)) for i, f in enumerate(nums))


def _bailey_double_sum(
    rho: Fraction, first: Sequence[Fraction], sigma: Fraction, second: Sequence[Fraction], cap: int
) -> tuple[int, list[int]]:
    """Coefficients ``nums[d] / den``, up to ``x**cap`` and not reduced, of

        sum over m, n of first[m] * second[n] * x**(m+n) * 2F3(B(rho+m, sigma+n); x**2/4),

    with ``B`` the :func:`bailey_product_spec` block. The weight lists are
    indexed by the shift and may hold zeros.

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
    den_a, cols_a = _shift_table(((p, q), *map(Fraction.as_integer_ratio, first)), rounded)
    den_b, cols_b = _shift_table(((p2, q2), *map(Fraction.as_integer_ratio, second)), rounded)
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


#: a factor ``(rho, weights)`` as integers: ``rho``'s integer ratio, then each weight's
ShiftKey = tuple[tuple[int, int], ...]
ShiftTable = tuple[int, tuple[tuple[int, ...], ...]]


@KEPT.memo("shift tables")
def _shift_table(key: ShiftKey, depth: int) -> ShiftTable:
    """Integer columns ``cols[m][k]`` over one ``den`` with

        cols[m][k] / den = weights[m] * (rho + top)_k / (rho + m)_k

    for ``k <= depth`` and every shift m, ``top = len(weights) - 1``, the
    factor given by its :data:`ShiftKey`, ``((p, q), *weights)`` with ``rho
    = p/q``, each weight as its integer ratio: no ``Fraction`` is formed.

    With ``F(l) = p + l*q``, ``(rho + top)_k / (rho + m)_k`` is ``F(m+k)
    ... F(top+k-1)`` over ``F(m) ... F(top-1)``. Over ``den`` = the weights'
    common denominator times ``F(0) ... F(top-1)``, entry (m, k) is the
    weight's numerator times the prefix ``F(0) ... F(m-1)`` times that
    k-dependent suffix. Walking m down, each suffix column is the one above
    it times the column ``F(m+k)`` over k. The table is kept in
    :data:`~hypident.hyper.KEPT`, namespace ``"shift tables"``, by key and
    depth; the key is integers because hashing the weights' Fractions costs
    what a kept table saves. The columns are tuples, so a kept table never
    changes. The caller guarantees no ``F(l)`` is 0.
    """
    (p, q), *weights = key
    top = len(weights) - 1
    wden = math.lcm(*[d for _, d in weights])
    lead = []  # numerator of weights[m] over wden, times F(0) ... F(m-1)
    prefix = 1
    for m, (num, d) in enumerate(weights):
        lead.append(num * (wden // d) * prefix)
        if m < top:
            prefix *= p + m * q
    cols = []
    suffix = [1] * (depth + 1)  # F(m+k) ... F(top+k-1) over k
    for m in range(top, -1, -1):
        cols.append(tuple([lead[m] * v for v in suffix]))
        suffix = list(map(mul, suffix, range(p + (m - 1) * q, p + (m - 1 + depth) * q + 1, q)))
    cols.reverse()
    return wden * prefix, tuple(cols)
