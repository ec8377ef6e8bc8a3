"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients ``c_0 .. c_cap`` of a series
in one indeterminate as integer numerators over one shared positive
denominator, ``c_k = nums[k] / den``. Every operation is plain integer
arithmetic followed by a single gcd that cancels the common factor, so the
pair ``(den, nums)`` is canonical: two series with the same coefficients
have the same fields and compare and hash equal. ``coeffs`` presents the
coefficients as :class:`fractions.Fraction` values for rendering and
callers outside the arithmetic; it is built on first use.

Operations never invent coefficients above the cap: binary operations
truncate to the smaller of the two caps and the result records the cap
that survived, so intermediate results of different depths compose without
bookkeeping at call sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable

from .rationals import factorial, format_rational

__all__ = ["TruncatedSeries", "exp_series"]


@dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Coefficients ``c_k = nums[k] / den`` for ``k = 0 .. cap``, exact and immutable."""

    cap: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, cap: int, coeffs: Iterable[Fraction | int]) -> None:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if cap < 0:
            raise ValueError("series cap must be nonnegative")
        if len(coeffs) != cap + 1:
            raise ValueError(
                f"expected {cap + 1} coefficients for cap {cap}, got {len(coeffs)}"
            )
        # over the lcm of reduced denominators no common factor is left
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _set(self, cap, den, nums)
        self.__dict__["coeffs"] = coeffs

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced fractions, index = degree."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @staticmethod
    def from_coeffs(values: Iterable[Fraction | int], cap: int | None = None) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padding to the cap."""
        coeffs = [Fraction(v) for v in values]
        if cap is None:
            cap = len(coeffs) - 1
        if cap < 0:
            raise ValueError("series cap must be nonnegative")
        if len(coeffs) > cap + 1:
            coeffs = coeffs[: cap + 1]
        else:
            coeffs.extend([Fraction(0)] * (cap + 1 - len(coeffs)))
        return TruncatedSeries(cap, coeffs)

    @staticmethod
    def from_integers(cap: int, den: int, nums: Iterable[int]) -> "TruncatedSeries":
        """The series with coefficients ``nums[k] / den`` (den nonzero),
        brought to canonical form by one gcd."""
        nums = tuple(nums)
        if cap < 0:
            raise ValueError("series cap must be nonnegative")
        if len(nums) != cap + 1:
            raise ValueError(f"expected {cap + 1} numerators for cap {cap}, got {len(nums)}")
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            # tuple() of a list, not of a generator: the generator form
            # resizes a guessed-size tuple, and the resized tuples pile up
            # on the interpreter's per-size free lists (peak RSS grew ~10%)
            nums = tuple([n // g for n in nums])
        out = object.__new__(TruncatedSeries)
        _set(out, cap, den, nums)
        return out

    @staticmethod
    def zero(cap: int) -> "TruncatedSeries":
        return TruncatedSeries.from_integers(cap, 1, (0,) * (cap + 1))

    @staticmethod
    def one(cap: int) -> "TruncatedSeries":
        return TruncatedSeries.from_integers(cap, 1, (1,) + (0,) * cap)

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of ``x**degree``; degrees above the cap are unknown,
        not zero, so asking for one is an error."""
        if not 0 <= degree <= self.cap:
            raise IndexError(f"degree {degree} outside truncation range 0..{self.cap}")
        return Fraction(self.nums[degree], self.den)

    def _aligned(self, other: "TruncatedSeries") -> tuple[int, int, list[int], list[int]]:
        """Smaller cap, common denominator, both numerator lists over it."""
        cap = min(self.cap, other.cap)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return (
            cap,
            den,
            [n * fa for n in self.nums[: cap + 1]],
            [n * fb for n in other.nums[: cap + 1]],
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        cap, den, a, b = self._aligned(other)
        return TruncatedSeries.from_integers(cap, den, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        cap, den, a, b = self._aligned(other)
        return TruncatedSeries.from_integers(cap, den, [x - y for x, y in zip(a, b)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries.from_integers(self.cap, self.den, [-n for n in self.nums])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the smaller cap."""
        cap = min(self.cap, other.cap)
        a, b = self.nums, other.nums
        nums = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(cap + 1)]
        return TruncatedSeries.from_integers(cap, self.den * other.den, nums)

    def scale(self, factor: Fraction | int) -> "TruncatedSeries":
        factor = Fraction(factor)
        p = factor.numerator
        return TruncatedSeries.from_integers(
            self.cap, self.den * factor.denominator, [p * n for n in self.nums]
        )

    def scale_argument(self, factor: Fraction | int) -> "TruncatedSeries":
        """Substitute ``x -> factor * x``: coefficient k picks up factor**k.

        With factor -1 this flips the signs of the odd coefficients, which
        is how every ``f(-x)`` in the catalog is built.
        """
        factor = Fraction(factor)
        # over q**cap, coefficient k gains p**k * q**(cap - k)
        p, q = factor.numerator, factor.denominator
        return TruncatedSeries.from_integers(
            self.cap,
            self.den * q**self.cap,
            [n * p**k * q ** (self.cap - k) for k, n in enumerate(self.nums)],
        )

    def shift(self, power: int, cap: int | None = None) -> "TruncatedSeries":
        """Multiply by ``x**power``; the result has the given cap, by default
        the input's (top coefficients fall off).

        The cap may be at most ``self.cap + power``: beyond that the
        coefficients are unknown, not zero.
        """
        if power < 0:
            raise ValueError("shift power must be nonnegative")
        if cap is None:
            cap = self.cap
        if not 0 <= cap <= self.cap + power:
            raise ValueError(f"shift by {power} cannot reach cap {cap} from cap {self.cap}")
        kept = self.nums[: max(cap + 1 - power, 0)]
        return TruncatedSeries.from_integers(cap, self.den, (0,) * min(power, cap + 1) + kept)

    def substitute_even(self, divisor: Fraction | int, cap: int | None = None) -> "TruncatedSeries":
        """Read ``self`` as a series in t and substitute ``t = x**2 / divisor``.

        Input coefficient c_k lands on degree 2k scaled by divisor**-k; the
        result has the given cap, by default the input's, and odd
        coefficients are all zero by construction. The cap may be at most
        ``2 * self.cap + 1``, the last degree the input still determines.
        """
        divisor = Fraction(divisor)
        if divisor == 0:
            raise ValueError("substitute_even divisor must be nonzero")
        if cap is None:
            cap = self.cap
        if not 0 <= cap <= 2 * self.cap + 1:
            raise ValueError(
                f"substitute_even cannot reach cap {cap} from cap {self.cap}"
            )
        # divisor**-k = (q/p)**k; over |p|**top, coefficient k gains
        # (sign(p)*q)**k * |p|**(top - k)
        p, q = abs(divisor.numerator), divisor.denominator
        if divisor < 0:
            q = -q
        top = cap // 2
        nums = [0] * (cap + 1)
        for k in range(top + 1):
            nums[2 * k] = self.nums[k] * q**k * p ** (top - k)
        return TruncatedSeries.from_integers(cap, self.den * p**top, nums)

    def truncate(self, cap: int) -> "TruncatedSeries":
        """Drop to a smaller cap (a larger one would need unknown coefficients)."""
        if cap > self.cap:
            raise ValueError(f"cannot extend cap {self.cap} to {cap}")
        return TruncatedSeries.from_integers(cap, self.den, self.nums[: cap + 1])

    def eval_float(self, x: float) -> float:
        """Horner evaluation of the truncated polynomial in double precision."""
        acc = 0.0
        for c in reversed(self.coeffs):
            try:
                acc = acc * x + float(c)
            except OverflowError as exc:
                raise OverflowError(
                    f"coefficient {format_rational(c)} does not fit in a float"
                ) from exc
        return acc

    def coefficient_strings(self) -> list[str]:
        """Coefficients rendered as exact p/q strings, index = degree."""
        return [format_rational(c) for c in self.coeffs]

    def to_text(self) -> str:
        """Human-readable form like ``1 - 1/2*x + 1/8*x^2``; zero prints as 0."""
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = format_rational(abs(c))
            if k == 1:
                term += "*x"
            elif k > 1:
                term += f"*x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def _set(series: TruncatedSeries, cap: int, den: int, nums: tuple[int, ...]) -> None:
    object.__setattr__(series, "cap", cap)
    object.__setattr__(series, "den", den)
    object.__setattr__(series, "nums", nums)


def exp_series(cap: int, sign: int = 1, half: bool = False) -> TruncatedSeries:
    """Exact series of ``e**(sign*x)``, or of ``e**(sign*x/2)`` when half is set.

    Coefficient k is ``sign**k / (k! * 2**k)`` with the ``2**k`` only in the
    half case. Example: ``exp_series(2, -1, half=True)`` is
    ``1 - 1/2*x + 1/8*x^2``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if cap < 0:
        raise ValueError("series cap must be nonnegative")
    # over cap! (times 2**cap in the half case), numerator k is
    # sign**k * cap!/k! (times 2**(cap - k)), built from the top down
    nums = [0] * (cap + 1)
    acc = 1
    for k in range(cap, -1, -1):
        nums[k] = acc if sign > 0 or k % 2 == 0 else -acc
        acc *= 2 * k if half else k
    den = factorial(cap) * (2**cap if half else 1)
    return TruncatedSeries.from_integers(cap, den, nums)
