"""The left route: a raw product of ``1F1``/``0F1`` factors at ``c*x``
times an exponential, from the factors' differential equations. A side is
read by its fields, so this module imports from the package only
:mod:`~hypident.series` and :mod:`~hypident.rationals`, as a tier-1 test checks."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .series import TruncatedSeries, _over_last

__all__: list[str] = []


def _raw_product_series(side, cap: int) -> TruncatedSeries:
    """A raw product up to ``x**cap``, from its own differential system.

    A factor ``phi = F(c*x)`` solves ``x phi'' = (alpha x - b) phi' + beta
    phi`` (:func:`_factor_ode`). With the exponential ``E = e**(eps*x)``,
    the vector ``u = E (phi, phi')``, or ``u = E (phi psi, phi' psi, phi
    psi', phi' psi')`` for two factors, then solves ``x u' = (A0 + x A1) u``
    with ``A0`` lower triangular. So ``(d I - A0) u_d = A1 u_(d-1)`` gives
    degree d from degree d-1 in O(1) big-by-small integer steps
    (:func:`_lone_rows`, :func:`_pair_rows`), and the side is the first
    component. The only other input is ``u_0``, from ``phi_0 = 1`` and
    ``phi_1 = beta / b``. The first components are brought to one
    denominator by :func:`_over_last` and canonicalised once. (D.
    Zeilberger, *A holonomic systems approach to special function
    identities*, J. Comput. Appl. Math. 32, 1990, for such systems.) Every
    parameter enters as its integer ratio, so the set-up forms no ``Fraction``.
    """
    eps = side.exp.as_integer_ratio()
    odes = [_factor_ode(spec, arg.c) for spec, arg in side.factors]
    if len(odes) == 1:
        den, steps, heads, _ = _lone_rows(*odes, eps, cap)
    else:
        den, steps, heads = _pair_rows(*odes, eps, cap)
    return TruncatedSeries.from_integers(cap, *_over_last(den, steps, heads))


#: ``(alpha, beta, b)`` of a factor's equation ``x phi'' = (alpha x - b) phi' + beta phi``:
#: the int ``alpha``, then ``beta`` and ``b`` as integer ratios in lowest terms
Ode = tuple[int, tuple[int, int], tuple[int, int]]
#: a rational as its integer ratio ``(p, q)``, ``q > 0``, in lowest terms
Ratio = tuple[int, int]


def _ratio(num: int, den: int) -> Ratio:
    """``num / den`` in lowest terms with a positive denominator, as ``Fraction`` gives it."""
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _over_lcm(*ratios: Ratio) -> tuple[int, list[int]]:
    """``(L, [p*L/q, ...])``: the ratios as integers over their common denominator L."""
    scale = math.lcm(*[q for _, q in ratios])
    return scale, [p * (scale // q) for p, q in ratios]


def _factor_ode(spec, c: int) -> Ode:
    """The equation of ``phi = F(c*x)``: Kummer's (DLMF 13.2.1) for
    ``F = 1F1(a; b; .)``, with ``(alpha, beta) = (c, a*c)``, and DLMF 16.8.3
    for ``F = 0F1(; b; .)``, with ``(alpha, beta) = (0, c)``. Either way
    ``phi_(k+1) / phi_k = (beta + k alpha) / ((k + 1)(b + k))``."""
    (b,) = spec.lower
    if spec.upper:
        p, q = spec.upper[0].as_integer_ratio()
        g = math.gcd(c, q)
        return c, (p * (c // g), q // g), b.as_integer_ratio()
    return 0, (c, 1), b.as_integer_ratio()


def _lone_rows(ode: Ode, eps: Ratio, cap: int) -> tuple[int, list[int], list[int], list[int]]:
    """``h = E phi`` and ``v = E phi'`` up to ``x**cap`` by

        d h_d = eps h + v,    (d + b) v_d = (eps + alpha) v + beta h_d,

    with degree d-1 on the right unless marked d. Returns ``(den, steps,
    hs, vs)``: ``h_d = hs[d] / (den * steps[1] * ... * steps[d])``, and
    likewise ``v_d``. Each equation is scaled to integer coefficients on its
    own. Step d multiplies its pivots ``d`` and ``d + b``, so scaled, into
    the running denominator, and then divides the state and the step by
    their common factor, one gcd with the small step. That keeps the
    running denominator near the reduced one. ``d + b`` never vanishes: a
    ``HypSpec`` refuses a nonpositive integer lower parameter. ``eps =
    e1/s1`` comes as its integer ratio, and ``eps + alpha`` is ``(e1 +
    alpha s1)/s1``, in lowest terms as ``eps`` is."""
    alpha, (bp, bq), b = ode
    e1, s1 = eps
    l2, (lb, a2, b2) = _over_lcm(b, (e1 + alpha * s1, s1), (bp, bq))
    v, den = _ratio(bp * b[1], bq * b[0])  # beta / b
    h = den
    steps, hs, vs = [1], [h], [v]
    for d in range(1, cap + 1):
        p1, p2 = s1 * d, l2 * d + lb
        n1 = e1 * h + s1 * v
        h, v = n1 * p2, p1 * a2 * v + b2 * n1
        step = p1 * p2
        g = math.gcd(step, h, v)
        if g > 1:
            step, h, v = step // g, h // g, v // g
        steps.append(step)
        hs.append(h)
        vs.append(v)
    return den, steps, hs, vs


def _pair_rows(first: Ode, second: Ode, eps: Ratio, cap: int) -> tuple[int, list[int], list[int]]:
    """``u1 = E phi psi``, as :func:`_lone_rows` gives ``h``, through
    ``u2 = E phi' psi``, ``u3 = E phi psi'`` and ``u4 = E phi' psi'``:

        d u1_d = eps u1 + u2 + u3
        (d + b) u2_d = (eps + alpha) u2 + u4 + beta u1_d
        (d + b') u3_d = (eps + alpha') u3 + u4 + beta' u1_d
        (d + b + b') u4_d = (eps + alpha + alpha') u4 + beta' u2_d + beta u3_d

    The state is kept and reduced as there: for 1.10 at alpha 3/7, beta
    2/5 and cap 96 the last denominator has 837 bits, against 3,002
    without the reduction and 835 canonical. ``d + b + b'`` vanishes at
    ``d = -(b + b')`` when the lower parameters sum to a nonpositive
    integer. That degree of ``u4`` is left free by its equation, so it is
    taken from its definition (:func:`_resonant_u4`)."""
    (alpha, beta, b), (alpha2, beta2, b2) = first, second
    e1, s1 = eps
    l2, (lb2, a2, c2) = _over_lcm(b, (e1 + alpha * s1, s1), beta)
    l3, (lb3, a3, c3) = _over_lcm(b2, (e1 + alpha2 * s1, s1), beta2)
    lower = _ratio(b[0] * b2[1] + b2[0] * b[1], b[1] * b2[1])  # b + b'
    l4, (lb4, a4, c42, c43) = _over_lcm(lower, (e1 + (alpha + alpha2) * s1, s1), beta2, beta)
    over_b, over_b2 = (beta[0] * b[1], beta[1] * b[0]), (beta2[0] * b2[1], beta2[1] * b2[0])
    den, (u1, u2, u3, u4) = _over_lcm(
        (1, 1), _ratio(*over_b), _ratio(*over_b2), _ratio(over_b[0] * over_b2[0], over_b[1] * over_b2[1])
    )
    steps, heads = [1], [u1]
    for d in range(1, cap + 1):
        p1, p2, p3, p4 = s1 * d, l2 * d + lb2, l3 * d + lb3, l4 * d + lb4
        n1 = e1 * u1 + s1 * (u2 + u3)
        n2 = p1 * (a2 * u2 + l2 * u4) + c2 * n1
        n3 = p1 * (a3 * u3 + l3 * u4) + c3 * n1
        if p4:
            u4 = p1 * p2 * p3 * a4 * u4 + c42 * p3 * n2 + c43 * p2 * n3
            u1, u2, u3 = n1 * (p2 * p3 * p4), n2 * (p3 * p4), n3 * (p2 * p4)
            step = p1 * p2 * p3 * p4
        else:
            u1, u2, u3 = n1 * (p2 * p3), n2 * p3, n3 * p2
            step = p1 * p2 * p3
            # u4_d over the running denominator, widened by what it lacks
            full = den * math.prod(steps) * step
            value = _resonant_u4(first, second, eps, d)
            wider = value.denominator // math.gcd(full, value.denominator)
            u1, u2, u3 = u1 * wider, u2 * wider, u3 * wider
            u4 = value.numerator * (full * wider // value.denominator)
            step *= wider
        g = math.gcd(step, u1, u2, u3, u4)
        if g > 1:
            step, u1, u2, u3, u4 = step // g, u1 // g, u2 // g, u3 // g, u4 // g
        steps.append(step)
        heads.append(u1)
    return den, steps, heads


def _resonant_u4(first: Ode, second: Ode, eps: Ratio, d: int) -> Fraction:
    """Coefficient d of ``E phi' psi'``: the sum over k of ``(E phi')_k
    (psi')_(d-k)``, each factor by :func:`_lone_rows`."""
    den, steps, _, vs = _lone_rows(first, eps, d)
    den_a, a = _over_last(den, steps, vs)
    den, steps, _, vs = _lone_rows(second, (0, 1), d)
    den_b, b = _over_last(den, steps, vs)
    return Fraction(sum(map(mul, a, reversed(b))), den_a * den_b)
