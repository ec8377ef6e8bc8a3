"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients ``c_0 .. c_cap`` of a series
in one indeterminate as integer numerators over one shared positive
denominator, ``c_k = nums[k] / den``. Every series is brought to canonical
form by one gcd that cancels the common factor, so the pair ``(den, nums)``
is canonical: two series with the same coefficients have the same fields
and compare and hash equal. Every route hands
:meth:`~TruncatedSeries.from_integers` numerators over its last step's
denominator, so numerator d carries every step after d and the top one the
fewest; the canonicalising gcd therefore runs from the top degree down,
which takes one full-size gcd where the other order takes one a degree.
``coeffs`` presents the coefficients as :class:`fractions.Fraction` values;
it is built on each access.

No route multiplies or adds series: each builds its integers by its own
recurrence and hands them to :meth:`~TruncatedSeries.from_integers`. An
operation stays integer arithmetic where measured traffic pays for it:
``+``, ``-``, ``*``, ``scale`` and ``shift``, on which the tests' reference
builders lean (with ``+``, ``-``, ``scale`` and ``shift`` written over
``coeffs``, ``tests/test_identities.py`` took 38-41 s against 22-24 s,
Python 3.11.7 on a two-core x86 VM).
``scale_argument``, ``substitute_even`` and :func:`exp_series`, which no
route calls, are their definitions over ``coeffs``.

Operations never invent coefficients above the cap: binary operations
truncate to the smaller of the two caps and the result records the cap
that survived, so intermediate results of different depths compose without
bookkeeping at call sites.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

from .rationals import _exact_rational, _over_common, format_rational

__all__ = ["TruncatedSeries"]


class TruncatedSeries:
    """Coefficients ``c_k = nums[k] / den`` for ``k = 0 .. cap``, exact and immutable.

    A ``__slots__`` class, not a tuple, so it has no tuple ``+``, ``*`` or
    indexing to confuse with the series operations. Its fields are set
    once, by :func:`_set`; assigning one afterwards raises AttributeError.
    """

    __slots__ = ("cap", "den", "nums")

    def __init__(self, cap: int, coeffs: Iterable[Fraction | int]) -> None:
        # a bool is an int, but no cap
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"series cap must be an int, got {cap!r}")
        if cap < 0:
            raise ValueError("series cap must be nonnegative")
        # over the lcm of reduced denominators no common factor is left
        den, nums = _over_common(*[_exact_rational(c, f"coeffs[{k}]") for k, c in enumerate(coeffs)])
        if len(nums) != cap + 1:
            raise ValueError(f"expected {cap + 1} coefficients for cap {cap}, got {len(nums)}")
        _set(self, cap, den, tuple(nums))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: a TruncatedSeries is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TruncatedSeries:
            return NotImplemented
        return self.cap == other.cap and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.cap, self.den, self.nums))

    def __repr__(self) -> str:
        return f"TruncatedSeries(cap={self.cap!r}, den={self.den!r}, nums={self.nums!r})"

    def __reduce__(self):
        return TruncatedSeries.from_integers, (self.cap, self.den, self.nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced fractions, index = degree, built on
        each access."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @staticmethod
    def from_integers(cap: int, den: int, nums: Iterable[int]) -> "TruncatedSeries":
        """The series with coefficients ``nums[k] / den`` (den nonzero),
        brought to canonical form by one gcd.

        The gcd chain starts at the top degree. A recurrence's numerator d
        is lifted by every step after d, so the top one is the least lifted:
        ``gcd(den, nums[-1])`` is the one full-size gcd, and each later one
        reduces a big numerator by the small running gcd it left. From
        degree 0 up, the running gcd would stay nearly as large as ``den``
        and every gcd would be full size. The result does not depend on the
        order, since the gcd of several integers does not.
        """
        nums = tuple(nums)
        # a bool is an int, but no cap
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"series cap must be an int, got {cap!r}")
        if cap < 0:
            raise ValueError("series cap must be nonnegative")
        if den == 0:
            raise ValueError("series denominator must be nonzero")
        if len(nums) != cap + 1:
            raise ValueError(f"expected {cap + 1} numerators for cap {cap}, got {len(nums)}")
        g = math.gcd(den, *reversed(nums))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            # tuple() of a list, not of a generator: the generator form
            # resizes a guessed-size tuple, and the resized tuples pile up
            # on the interpreter's per-size free lists (peak RSS grew ~10%)
            nums = tuple([n // g for n in nums])
        # already canonical: skip __init__'s Fractions and lcm
        out = object.__new__(TruncatedSeries)
        _set(out, cap, den, nums)
        return out

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
        if other.__class__ is not TruncatedSeries:
            return NotImplemented
        cap, den, a, b = self._aligned(other)
        return TruncatedSeries.from_integers(cap, den, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.__class__ is not TruncatedSeries:
            return NotImplemented
        cap, den, a, b = self._aligned(other)
        return TruncatedSeries.from_integers(cap, den, [x - y for x, y in zip(a, b)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the smaller cap.

        The package does not call it; it is kept only as the tests' oracle
        for left-side products and as the layer the benchmark's tracer
        wraps.
        """
        if other.__class__ is not TruncatedSeries:
            return NotImplemented
        cap = min(self.cap, other.cap)
        a, b = self.nums, other.nums
        nums = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(cap + 1)]
        return TruncatedSeries.from_integers(cap, self.den * other.den, nums)

    def scale(self, factor: Fraction | int) -> "TruncatedSeries":
        factor = _exact_rational(factor, "factor")
        p = factor.numerator
        return TruncatedSeries.from_integers(
            self.cap, self.den * factor.denominator, [p * n for n in self.nums]
        )

    def scale_argument(self, factor: Fraction | int) -> "TruncatedSeries":
        """Substitute ``x -> factor * x``: coefficient k picks up factor**k.

        With factor -1 this flips the signs of the odd coefficients, which
        is how every ``f(-x)`` in the catalog is built.
        """
        factor = _exact_rational(factor, "factor")
        return TruncatedSeries(self.cap, [c * factor**k for k, c in enumerate(self.coeffs)])

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
        divisor = _exact_rational(divisor, "divisor")
        if divisor == 0:
            raise ValueError("substitute_even divisor must be nonzero")
        if cap is None:
            cap = self.cap
        if not 0 <= cap <= 2 * self.cap + 1:
            raise ValueError(
                f"substitute_even cannot reach cap {cap} from cap {self.cap}"
            )
        coeffs = [0] * (cap + 1)
        coeffs[::2] = [c * divisor**-k for k, c in enumerate(self.coeffs[: cap // 2 + 1])]
        return TruncatedSeries(cap, coeffs)

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


def _over_last(den: int, steps: list[int], rows: list[int]) -> tuple[int, list[int]]:
    """``rows[d] / (den * steps[1] * ... * steps[d])`` over the last of
    those denominators: row d times the suffix ``steps[d+1] * ... ``, with
    no big division. The integers a recurrence leaves when it divides each
    step by its common factor with the state, ready for
    :meth:`TruncatedSeries.from_integers`."""
    nums = rows[:]
    suffix = 1
    for d in range(len(rows) - 1, 0, -1):
        suffix *= steps[d]
        nums[d - 1] *= suffix
    return den * suffix, nums


def _set(series: TruncatedSeries, cap: int, den: int, nums: tuple[int, ...]) -> None:
    """The one place a series' fields are written: past the class's
    ``__setattr__``, which refuses every assignment."""
    object.__setattr__(series, "cap", cap)
    object.__setattr__(series, "den", den)
    object.__setattr__(series, "nums", nums)


def exp_series(cap: int, eps: Fraction | int = 1) -> TruncatedSeries:
    """Exact series of ``e**(eps*x)``, eps any nonzero rational: coefficient k
    is ``eps**k / k!``. Example: ``exp_series(2, Fraction(-1, 2))`` is
    ``1 - 1/2*x + 1/8*x^2``.
    Unused by the package: perfbench's tracer patches it, and tests use it as
    an oracle independent of the left route's recurrence.
    """
    eps = _exact_rational(eps, "eps")
    if eps == 0:
        raise ValueError("exp_series takes a nonzero rational")
    return TruncatedSeries(cap, [eps**k / math.factorial(k) for k in range(cap + 1)])
