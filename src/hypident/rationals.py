"""Exact rational scalars plus the rising-factorial primitive.

Every parameter, weight and reported coefficient in this package is a
:class:`fractions.Fraction`. Construction reduces to lowest terms with a
positive denominator, arithmetic never rounds, and equality is structural,
so two routes to the same value compare equal by ``==``. Truncated series
are the exception inside the arithmetic: :mod:`hypident.series` keeps their
coefficients as integer numerators over one shared denominator and turns
them into fractions only at the boundaries. The helpers here are the small
combinatorial layer everything else is assembled from; the rising factorial
is one of those boundaries, an integer product turned into one fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "RationalParseError",
    "format_rational",
    "is_nonpositive_integer",
    "parse_rational",
    "pochhammer",
]


class RationalParseError(ValueError):
    """A rational literal does not match the ``p`` / ``p/q`` grammar."""


_RATIONAL_RE = re.compile(r"^(?P<num>[+-]?\d+)(?:/(?P<den>\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (integer p, positive integer q) exactly.

    Decimal and exponent notations are rejected on purpose: accepting them
    would silently leave the exact domain. A zero denominator raises
    ``ZeroDivisionError``; anything else malformed raises
    :class:`RationalParseError`.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise RationalParseError(f"not a p/q rational literal: {text!r}")
    num = int(match.group("num"))
    den = match.group("den")
    if den is None:
        return Fraction(num)
    if int(den) == 0:
        raise ZeroDivisionError(f"zero denominator in rational literal {text!r}")
    return Fraction(num, int(den))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``"p"`` or ``"p/q"``, the inverse of parsing."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_nonpositive_integer(value: Fraction | int) -> bool:
    """True for 0, -1, -2, ... (the values that break lower parameters)."""
    return value.denominator == 1 and value.numerator <= 0


def _exact_rational(value: Fraction | int, name: str) -> Fraction:
    """``value`` as a fraction, a ``Fraction`` kept as it is. A float is refused:
    ``Fraction(0.1)`` is the nearest double, not 1/10. So is a bool: Python
    counts ``True`` as the int 1, but it is no rational. ``name`` names the value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(f"{name} must be an exact rational, not the {type(value).__name__} {value!r}")
    return Fraction(value)


def _over_common(*values: Fraction) -> tuple[int, list[int]]:
    """``(L, [v*L, ...])``: the values as integers over their common denominator L."""
    scale = math.lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def pochhammer(base: Fraction | int, count: int) -> Fraction:
    """Rising factorial ``(base)_count = base (base+1) ... (base+count-1)``.

    ``(base)_0 == 1`` for every base. The result is zero exactly when the
    base is a nonpositive integer with ``-base < count``; that vanishing is
    what terminates every finite sum in the identity catalog, so callers
    must treat a zero result as meaningful rather than degenerate.

    With ``base = p/q`` it is one integer product over ``q**count``,
    ``p (p+q) ... (p+(count-1)q) / q**count``, reduced once at the end.
    """
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"pochhammer index must be an int, got {count!r}")
    if count < 0:
        raise ValueError("pochhammer index must be nonnegative")
    p, q = _exact_rational(base, "base").as_integer_ratio()
    if q == 1 and -count < p <= 0:  # the factor at index -p is 0
        return Fraction(0)
    return Fraction(math.prod(range(p, p + count * q, q)), q**count)
