"""Exact rational scalars plus the factorial and rising-factorial primitives.

Every parameter, weight and reported coefficient in this package is a
:class:`fractions.Fraction`. Construction reduces to lowest terms with a
positive denominator, arithmetic never rounds, and equality is structural,
so two routes to the same value compare equal by ``==``. Truncated series
are the exception inside the arithmetic: :mod:`hypident.series` keeps their
coefficients as integer numerators over one shared denominator and turns
them into fractions only at the boundaries. The helpers here are the small
combinatorial layer everything else is assembled from.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Rational",
    "RationalParseError",
    "factorial",
    "format_rational",
    "is_nonpositive_integer",
    "parse_rational",
    "pochhammer",
]

Rational = Fraction

# m! as an arbitrary-precision integer; the stdlib version is exact.
factorial = math.factorial


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
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_nonpositive_integer(value: Fraction | int) -> bool:
    """True for 0, -1, -2, ... (the values that break lower parameters)."""
    value = Fraction(value)
    return value.denominator == 1 and value.numerator <= 0


def pochhammer(base: Fraction | int, count: int) -> Fraction:
    """Rising factorial ``(base)_count = base (base+1) ... (base+count-1)``.

    ``(base)_0 == 1`` for every base. The result is zero exactly when the
    base is a nonpositive integer with ``-base < count``; that vanishing is
    what terminates every finite sum in the identity catalog, so callers
    must treat a zero result as meaningful rather than degenerate.
    """
    if count < 0:
        raise ValueError("pochhammer index must be nonnegative")
    base = Fraction(base)
    out = Fraction(1)
    for k in range(count):
        out *= base + k
        if out == 0:
            break
    return out
