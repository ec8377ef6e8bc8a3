"""Seeded inputs of the three benchmark workloads, each point with its known answer.

The generators here never call the program. Every point is an admissible
instance of a catalog theorem, so its correct status is known before the
program runs: ``exact_match`` for the series entries and the terminating sum
1.3, ``float_only_pass`` for the fixed-argument sums 1.4 and 1.8.

Admissibility is established by construction. Every drawn parameter is
``p/q`` with ``q`` an odd prime that does not divide ``p``, and the
parameters of one point have pairwise distinct denominators. Every lower
parameter, Pochhammer base and Gamma argument in the catalog is such a
parameter, or twice one, or a sum of two or three of them, plus an integer or
a half-integer, or half of such a value. None of these is an integer, so no
lower parameter is a nonpositive integer, no denominator Pochhammer symbol
vanishes and no numerator Gamma factor sits at a pole. The only integers
drawn are the shifts ``i, j``, the terminating ``n`` of 1.3, and ``a = -n``
for the terminating 1.8 points. The positivity condition of the
non-terminating 1.8 points holds because their excess is drawn positive.

A workload is a sequence of blocks. Block ``k`` of a seed is drawn from its
own random stream, so a run that does more blocks repeats the same first
blocks and adds fresh ones; it never reuses a point.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

__all__ = ["WORKLOADS", "Point", "Workload", "blocks"]

PRIMES = (3, 5, 7, 11, 13)

EXACT = "exact_match"
FLOAT_PASS = "float_only_pass"


@dataclass(frozen=True)
class Point:
    """One verification request and the status a correct program returns."""

    tag: str
    alpha: Fraction
    beta: Fraction | None = None
    gamma: Fraction | None = None
    i: int = 0
    j: int = 0
    cap: int | None = None
    expected: str = EXACT
    category: str = ""

    def describe(self) -> str:
        bits = [f"{self.tag}", f"alpha={self.alpha}"]
        if self.beta is not None:
            bits.append(f"beta={self.beta}")
        if self.gamma is not None:
            bits.append(f"gamma={self.gamma}")
        bits.append(f"i={self.i} j={self.j}")
        if self.cap is not None:
            bits.append(f"cap={self.cap}")
        return " ".join(bits)


def _rational(rng: random.Random, q: int, lo: Fraction | float, hi: Fraction | float) -> Fraction:
    """``p/q`` drawn uniformly from the open interval ``(lo, hi)``, ``q`` not dividing ``p``."""
    choices = [p for p in range(math.floor(lo * q) + 1, math.ceil(hi * q)) if p % q]
    return Fraction(rng.choice(choices), q)


def _generic(rng: random.Random, count: int, lo: float, hi: float, dens=None) -> list[Fraction]:
    """``count`` parameters in ``(lo, hi)`` with pairwise distinct odd-prime denominators.

    ``dens`` fixes the denominators; by default they are drawn.
    """
    dens = list(dens) if dens is not None else rng.sample(PRIMES, count)
    out = [_rational(rng, q, lo, hi) for q in dens]
    dens = [x.denominator for x in out]
    if len(set(dens)) != count or any(d not in PRIMES for d in dens):
        raise AssertionError(f"generator drew a non-generic point: {out}")
    return out


# The cost of an exact point grows with the denominators of (alpha, beta).
# The two exact workloads take their denominator pairs in a fixed rotation
# (block k, draw t uses pair k * draws + t) and draw only the numerators and
# the order, so runs of different seeds cover the same mix of sizes.
DENOMINATOR_PAIRS = tuple(itertools.combinations(PRIMES, 2))


def _rotated_pair(rng: random.Random, index: int) -> list[Fraction]:
    dens = list(DENOMINATOR_PAIRS[index % len(DENOMINATOR_PAIRS)])
    rng.shuffle(dens)
    return _generic(rng, 2, 0, 1, dens)


# -- product_grid -----------------------------------------------------------

PRODUCT_TAGS = ("2.1", "2.2", "2.3")
GRID_MAX = 8


def _product_grid_block(rng: random.Random, k: int) -> list[Point]:
    """One pass: each product tag over i, j in 0..8 at default caps, one (alpha, beta) per tag."""
    points = []
    for t, tag in enumerate(PRODUCT_TAGS):
        alpha, beta = _rotated_pair(rng, k * len(PRODUCT_TAGS) + t)
        for i in range(GRID_MAX + 1):
            for j in range(GRID_MAX + 1):
                points.append(Point(tag, alpha, beta, i=i, j=j, category=tag))
    return points


# -- deep_series ------------------------------------------------------------

DEEP_CAP = 96
DEEP_PAIR_TAGS = ("1.1", "1.2", "1.5", "1.6", "1.7", "1.9", "1.10", "1.11", "1.12", "1.13")
DEEP_SHIFT_TAGS = ("1.17", "1.18")
DEEP_SHIFT_MAX = 2


def _deep_series_block(rng: random.Random, k: int) -> list[Point]:
    """Every single-series tag once at one (alpha, beta), the expansions for i = 0..2."""
    alpha, beta = _rotated_pair(rng, k)
    points = [Point(tag, alpha, beta, cap=DEEP_CAP, category=tag) for tag in DEEP_PAIR_TAGS]
    for tag in DEEP_SHIFT_TAGS:
        for i in range(DEEP_SHIFT_MAX + 1):
            points.append(Point(tag, alpha, i=i, cap=DEEP_CAP, category=tag))
    return points


# -- float_sums -------------------------------------------------------------

TERMINATING_MAX = 12
HIGH_EXCESS = (Fraction(3), Fraction(6))
LOW_EXCESS = (Fraction(1, 4), Fraction(3, 2))


def _watson_excess(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    return c - (a + b) / 2 + Fraction(1, 2)


def _watson_point(rng: random.Random, window: tuple[Fraction, Fraction], category: str) -> Point:
    """Non-terminating 1.8 point whose excess ``c - (a+b)/2 + 1/2`` lies in ``window``."""
    qa, qb, qc = rng.sample(PRIMES, 3)
    a = _rational(rng, qa, -2, 2)
    b = _rational(rng, qb, -2, 2)
    shift = (a + b) / 2 - Fraction(1, 2)
    c = _rational(rng, qc, window[0] + shift, window[1] + shift)
    if not window[0] < _watson_excess(a, b, c) < window[1]:
        raise AssertionError(f"generator missed the excess window: {a}, {b}, {c}")
    return Point("1.8", a, b, c, expected=FLOAT_PASS, category=category)


def _float_sums_block(rng: random.Random, k: int) -> list[Point]:
    """Twenty points, stratified so every block has the same mix.

    Four terminating Gauss sums (1.3), four half-argument sums (1.4) and
    twelve unit-argument sums (1.8): six terminating at ``a = -n`` (three odd
    ``n``, three even), four with excess in [3, 6] and two with excess in
    [1/4, 3/2]. The odd-``n`` and low-excess points are known false negatives
    of the float stopping rule; they stay in on purpose and are counted.
    """
    points = []
    for _ in range(4):
        b, c = _generic(rng, 2, -2, 2)
        n = rng.randint(1, TERMINATING_MAX)
        points.append(Point("1.3", b, c, i=n, category="1.3"))
    for _ in range(4):
        a, b = _generic(rng, 2, -2, 2)
        points.append(Point("1.4", a, b, expected=FLOAT_PASS, category="1.4"))
    for parity in (1, 1, 1, 0, 0, 0):
        n = rng.choice([m for m in range(1, TERMINATING_MAX + 1) if m % 2 == parity])
        b, c = _generic(rng, 2, -2, 2)
        label = "1.8 terminating, odd n" if parity else "1.8 terminating, even n"
        points.append(Point("1.8", Fraction(-n), b, c, expected=FLOAT_PASS, category=label))
    for _ in range(4):
        points.append(_watson_point(rng, HIGH_EXCESS, "1.8 high excess"))
    for _ in range(2):
        points.append(_watson_point(rng, LOW_EXCESS, "1.8 low excess"))
    rng.shuffle(points)
    return points


@dataclass(frozen=True)
class Workload:
    """A named block generator.

    ``block_seconds`` is the time one block took when the benchmark was
    defined (shared two-core x86 virtual machine, Python 3.11). The number of blocks in a
    run is fixed from it and ``--seconds``, so a run of one seed always does
    the same work. ``min_blocks`` keeps at least 200 timed points per run, so
    that p95 has ten samples beyond it.
    """

    name: str
    why: str
    make_block: Callable[[random.Random, int], list[Point]]
    block_seconds: float
    min_blocks: int

    def block_count(self, seconds: float) -> int:
        return max(self.min_blocks, round(seconds / self.block_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "product_grid",
            "right-hand-side block assembly of the product family dominates",
            _product_grid_block,
            block_seconds=10.0,
            min_blocks=1,
        ),
        Workload(
            "deep_series",
            "few long series: the Cauchy product and pfq_series dominate",
            _deep_series_block,
            block_seconds=0.9,
            min_blocks=13,
        ),
        Workload(
            "float_sums",
            "float summation through the command line; known 1.8 false negatives",
            _float_sums_block,
            block_seconds=0.6,
            min_blocks=10,
        ),
    )
}


def blocks(workload: str, seed: int, count: int) -> list[list[Point]]:
    """The first ``count`` blocks of ``workload`` for ``seed``."""
    make = WORKLOADS[workload].make_block
    return [make(random.Random(f"{workload}:{seed}:{k}"), k) for k in range(count)]
