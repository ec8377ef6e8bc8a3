"""Tests for the generic pFq machinery, exact and float."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypident.hyper import (
    DegenerateParameterError,
    HypSpec,
    _bailey_double_sum,
    _pfq_integers,
    bailey_product_series,
    bailey_product_spec,
    pfq_eval_float,
    pfq_series,
)
from hypident.rationals import is_nonpositive_integer, pochhammer
from hypident.series import TruncatedSeries

param_st = st.fractions(min_value=-6, max_value=6, max_denominator=8)
admissible_lower_st = param_st.filter(lambda q: not is_nonpositive_integer(q))


class TestHypSpec:
    def test_coerces_to_fractions(self):
        spec = HypSpec((1,), (Fraction(3, 2), 2))
        assert spec.upper == (Fraction(1),)
        assert spec.lower == (Fraction(3, 2), Fraction(2))

    def test_degenerate_lower_raises(self):
        with pytest.raises(DegenerateParameterError) as err:
            HypSpec((Fraction(1, 2),), (Fraction(-2),))
        assert err.value.value == Fraction(-2)
        assert err.value.index == 2
        assert "lower[0]" in err.value.expr

    def test_upper_unrestricted(self):
        HypSpec((Fraction(-3),), (Fraction(1, 2),))  # fine: terminating series


class TestPfqSeries:
    def test_frozen_f01_values(self):
        s = pfq_series(HypSpec((), (Fraction(1),)), 4)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 1
        assert s.coefficient(2) == Fraction(1, 4)

    def test_exp_is_0f0(self):
        s = pfq_series(HypSpec((), ()), 6)
        assert s.coefficient(5) == Fraction(1, math.factorial(5))

    def test_terminating_upper(self):
        s = pfq_series(HypSpec((Fraction(-3), Fraction(1, 2)), (Fraction(5, 3),)), 10)
        assert s.coefficient(3) != 0
        assert all(s.coefficient(k) == 0 for k in range(4, 11))

    @given(
        st.lists(param_st, max_size=2),
        st.lists(admissible_lower_st, min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_recurrence_matches_pochhammer_formula(self, upper, lower):
        spec = HypSpec(tuple(upper), tuple(lower))
        s = pfq_series(spec, 7)
        for k in range(8):
            num = Fraction(1)
            for a in spec.upper:
                num *= pochhammer(a, k)
            den = Fraction(math.factorial(k))
            for b in spec.lower:
                den *= pochhammer(b, k)
            assert s.coefficient(k) == num / den

    def test_negative_cap(self):
        with pytest.raises(ValueError):
            pfq_series(HypSpec((), ()), -1)


def term_ratio_reference(upper, lower, cap: int) -> list[Fraction]:
    """pFq coefficients by the term ratio, one Fraction at a time."""
    out = [Fraction(1)]
    for k in range(cap):
        ratio = Fraction(1, k + 1)
        for a in upper:
            ratio *= a + k
        for b in lower:
            ratio /= b + k
        out.append(out[-1] * ratio)
    return out


class TestPfqSeriesIntegerKernel:
    """The integer recurrence against a plain-Fraction term-ratio reference."""

    @given(
        st.lists(param_st, max_size=3),
        st.lists(admissible_lower_st, max_size=3),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60)
    def test_matches_reference(self, upper, lower, cap):
        spec = HypSpec(tuple(upper), tuple(lower))
        s = pfq_series(spec, cap)
        assert s.coeffs == tuple(term_ratio_reference(spec.upper, spec.lower, cap))
        assert s.den > 0
        assert math.gcd(s.den, *s.nums) == 1

    @pytest.mark.parametrize(
        "upper, lower",
        [
            # mixed denominators
            ((Fraction(1, 3), Fraction(-5, 7)), (Fraction(3, 4), Fraction(11, 6), Fraction(2, 5))),
            # negative, non-integer parameters
            ((Fraction(-7, 2),), (Fraction(-9, 4), Fraction(-1, 3))),
            # terminating upper parameter -n, with a mixed-denominator lower one
            ((Fraction(-4), Fraction(2, 3)), (Fraction(5, 6),)),
            # 0F0 (exp) and 2F0 (more upper than lower parameters)
            ((), ()),
            ((Fraction(1, 2), Fraction(-3, 5)), ()),
        ],
    )
    @pytest.mark.parametrize("cap", [0, 1, 5, 24])
    def test_parameter_shapes(self, upper, lower, cap):
        s = pfq_series(HypSpec(upper, lower), cap)
        assert s.coeffs == tuple(term_ratio_reference(upper, lower, cap))

    @given(
        st.lists(param_st, max_size=3),
        st.lists(admissible_lower_st, max_size=3),
        st.integers(min_value=0, max_value=30),
        st.one_of(st.none(), st.integers(min_value=1, max_value=29)),
    )
    @example([Fraction(1, 3)], [Fraction(5, 7)], 0, None)
    @example([Fraction(1, 3)], [Fraction(5, 7)], 12, 4)
    @settings(max_examples=60)
    def test_unreduced_integers(self, upper, lower, cap, n):
        if n is not None and n < cap:
            upper = [*upper, Fraction(-n)]  # terminating before the cap
        spec = HypSpec(tuple(upper), tuple(lower))
        den, nums = _pfq_integers(spec.upper, spec.lower, cap)
        assert den != 0
        assert [Fraction(n, den) for n in nums] == term_ratio_reference(spec.upper, spec.lower, cap)
        assert TruncatedSeries.from_integers(cap, den, nums) == pfq_series(spec, cap)

    @given(
        st.lists(param_st, max_size=3),
        st.lists(admissible_lower_st, max_size=3),
        st.integers(min_value=0, max_value=40),
        st.one_of(st.none(), st.integers(min_value=1, max_value=39)),
        st.sampled_from([("x", -1), ("x", 2), ("x", 4), ("x**2/c", 4), ("x**2/c", 16)]),
    )
    @example([Fraction(1, 3)], [Fraction(5, 7)], 0, None, ("x**2/c", 16))
    @example([Fraction(1, 3)], [Fraction(5, 7)], 12, 4, ("x", -1))
    @settings(max_examples=80, deadline=None)
    def test_argument_constant_in_the_term_ratio(self, upper, lower, cap, n, arg):
        # the kernel's num_scale / den_scale against reshaping the plain series
        if n is not None and n < cap:
            upper = [*upper, Fraction(-n)]
        spec = HypSpec(tuple(upper), tuple(lower))
        kind, c = arg
        if kind == "x":
            den, nums = _pfq_integers(spec.upper, spec.lower, cap, num_scale=c)
            expected = pfq_series(spec, cap).scale_argument(c).coeffs
        else:
            den, nums = _pfq_integers(spec.upper, spec.lower, cap, den_scale=c)
            expected = pfq_series(spec, cap).substitute_even(c, 2 * cap).coeffs[::2]
        assert den != 0
        assert tuple(Fraction(v, den) for v in nums) == expected

    def test_shared_prefixes_match_fresh_calls(self):
        # each pair below collides on all but one part of the prefix key,
        # so a key that drops that part hands one of them the other's prefix
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        specs = [
            HypSpec((half, Fraction(-1, 2)), (Fraction(3, 2), Fraction(5, 2), Fraction(7, 3))),
            # same upper parameters, other lower ones
            HypSpec((half, Fraction(-1, 2)), (Fraction(1, 6), Fraction(9, 2), Fraction(2, 3))),
            # upper integers 1 over L = 2 and over L = 4
            HypSpec((half,), (Fraction(3, 2),)),
            HypSpec((quarter,), (Fraction(3, 4),)),
            # same upper and L, excess 0 and 1
            HypSpec((half,), (Fraction(3, 2), Fraction(5, 2))),
            # terminating: the shared prefix stops early
            HypSpec((Fraction(-3), half), (Fraction(5, 2),)),
            HypSpec((Fraction(-3), half), (Fraction(7, 2),)),
        ]
        calls = [
            (spec, cap, scales)
            for spec in specs
            for cap in (0, 5, 8)
            for scales in ({}, {"num_scale": -1}, {"num_scale": 2}, {"den_scale": 4}, {"den_scale": 16})
        ]
        prefixes: dict = {}
        for order in (calls, calls[::-1]):
            for spec, cap, scales in order:
                fresh = _pfq_integers(spec.upper, spec.lower, cap, **scales)
                assert _pfq_integers(spec.upper, spec.lower, cap, **scales, prefixes=prefixes) == fresh, (spec, cap, scales)
        assert all(isinstance(v, int) for prefix in prefixes.values() for v in prefix)

    def test_nonpositive_lower_parameter_past_the_last_term(self):
        # 2F1(-3, -7; -5; t): (-5)_k vanishes only from k = 6, after the sum
        # stops, so the bare parameters reach a series a HypSpec refuses
        upper, lower = (Fraction(-3), Fraction(-7)), (Fraction(-5),)
        with pytest.raises(DegenerateParameterError):
            HypSpec(upper, lower)
        for cap in (0, 3):
            den, nums = _pfq_integers(upper, lower, cap)
            assert [Fraction(v, den) for v in nums] == term_ratio_reference(upper, lower, cap)

    def test_terminating_series_stops_at_n(self):
        s = pfq_series(HypSpec((Fraction(-4), Fraction(2, 3)), (Fraction(5, 6),)), 24)
        assert s.coefficient(4) != 0
        assert set(s.nums[5:]) == {0}


class TestPfqEvalFloat:
    def test_at_zero(self):
        result = pfq_eval_float(HypSpec((), (Fraction(3, 2),)), 0.0)
        assert result.value == 1.0
        assert result.converged

    def test_agrees_with_exact_truncation(self, horner):
        # entire-function specs only; |x| <= 8 sits well inside cap 60
        specs = [
            HypSpec((Fraction(1, 3),), (Fraction(2, 3),)),
            HypSpec((Fraction(3, 7),), (Fraction(6, 7),)),
            HypSpec((), (Fraction(5, 4),)),
            HypSpec((Fraction(1, 2), Fraction(1, 3)), (Fraction(7, 4), Fraction(9, 5), Fraction(1, 5))),
        ]
        for spec in specs:
            exact = pfq_series(spec, 60)
            for x in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0):
                summed = pfq_eval_float(spec, x, tol=1e-16, max_terms=400)
                assert summed.converged
                reference = horner(exact, x)
                assert math.isclose(summed.value, reference, rel_tol=1e-9)

    def test_kummer_sample_point(self, horner):
        spec = HypSpec((Fraction(1, 3),), (Fraction(2, 3),))
        summed = pfq_eval_float(spec, -2.0)
        reference = horner(pfq_series(spec, 60), -2.0)
        assert math.isclose(summed.value, reference, rel_tol=1e-10)

    def test_budget_exhaustion_is_reported(self):
        result = pfq_eval_float(HypSpec((), ()), 30.0, max_terms=3)
        assert not result.converged
        assert result.terms == 4

    def test_overflowing_term_ends_the_sum(self):
        # the terms of 1F1(3/7; 6/7; +-1e6) overflow long before the budget,
        # and summing on would end in inf - inf = nan
        spec = HypSpec((Fraction(3, 7),), (Fraction(6, 7),))
        up, down = (pfq_eval_float(spec, x, tol=1e-16, max_terms=800) for x in (1e6, -1e6))
        assert up.terms == down.terms < 800
        assert (up.value, up.converged, up.abs_sum, up.error_bound) == (math.inf, False, math.inf, math.inf)
        # the last term summed is t_(terms - 1), of sign (-1)**(terms - 1) at -1e6
        assert down.value == (-1) ** (down.terms - 1) * math.inf and not down.converged
        assert pfq_eval_float(spec, math.inf).value == math.inf
        # at the unit argument, where the telescoped tail is tried at every term
        unit = pfq_eval_float(HypSpec((Fraction(300), Fraction(300), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 5))), 1.0, max_terms=2000)
        assert (unit.value, unit.converged, unit.error_bound) == (math.inf, False, math.inf) and unit.terms < 2000

    def test_validation(self):
        spec = HypSpec((), ())
        with pytest.raises(ValueError):
            pfq_eval_float(spec, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            pfq_eval_float(spec, 1.0, max_terms=0)


def watson_spec(a, b, c) -> HypSpec:
    """3F2(a, b, c; (a+b+1)/2, 2c; x), the series of tag 1.8."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return HypSpec((a, b, c), ((a + b + 1) / 2, 2 * c))


def low_excess_points(count: int, seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded non-terminating 1.8 points with excess in (0, 3/2].

    a and b have distinct odd-prime denominators and the excess a third
    one, doubled, so no parameter, lower parameter or Gamma argument of
    Watson's closed form is an integer.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        qa, qb, qs = rng.sample((3, 5, 7, 11, 13), 3)
        a = Fraction(rng.choice([k for k in range(-2 * qa + 1, 2 * qa) if k % qa]), qa)
        b = Fraction(rng.choice([k for k in range(-2 * qb + 1, 2 * qb) if k % qb]), qb)
        excess = Fraction(rng.choice([k for k in range(1, 3 * qs + 1) if k % qs]), 2 * qs)
        out.append((a, b, excess + (a + b) / 2 - Fraction(1, 2)))
    return out


# the three unit-argument points the stopping rule |term| <= tol*|sum| got wrong
ROADMAP_WATSON_POINTS = [
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 4), Fraction(-1, 6)),  # excess 1/24
]


class TestFloatTailBound:
    """The stopping rule: a proven tail bound, returned with the value."""

    def test_roadmap_points_finish_in_tens_of_terms(self):
        for point in ROADMAP_WATSON_POINTS:
            result = pfq_eval_float(watson_spec(*point), 1.0, tol=1e-16, max_terms=400_000)
            assert result.converged
            assert result.terms < 100
            assert 0 < result.error_bound < 1e-12 * abs(result.value)

    def test_budget_exhaustion_gives_no_bound(self):
        result = pfq_eval_float(watson_spec(*ROADMAP_WATSON_POINTS[2]), 1.0, tol=1e-16, max_terms=10)
        assert not result.converged
        assert result.terms == 11
        assert result.error_bound == math.inf

    def test_nonpositive_excess_gives_no_bound(self):
        # 3F2(1/3, 1/4, 1/2; 1/2, 1/3; 1) diverges: excess 5/6 - 13/12 < 0
        spec = HypSpec((Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3)))
        assert not pfq_eval_float(spec, 1.0, max_terms=2000).converged

    def test_more_upper_than_lower_plus_one_gives_no_bound(self):
        # 2F0 diverges for every x != 0, however small its first terms are
        spec = HypSpec((Fraction(1, 2), Fraction(-3, 5)), ())
        assert not pfq_eval_float(spec, 0.01, max_terms=200).converged

    def test_terminating_sum_has_zero_tail(self):
        # tag 1.8 at a = -3: the exact value is 0, the float sum is rounding noise
        result = pfq_eval_float(watson_spec(-3, Fraction(2, 5), Fraction(7, 3)), 1.0, tol=1e-16)
        assert result.converged
        assert result.terms == 5
        assert abs(result.value) <= result.error_bound < 1e-13
        assert result.abs_sum > 1.0

    def test_abs_sum_is_the_sum_of_term_magnitudes(self):
        spec = HypSpec((Fraction(1, 3),), (Fraction(2, 3),))
        alternating = pfq_eval_float(spec, -2.0, tol=1e-16)
        positive = pfq_eval_float(spec, 2.0, tol=1e-16)
        assert math.isclose(alternating.abs_sum, positive.value, rel_tol=1e-14)
        assert math.isclose(positive.abs_sum, positive.value, rel_tol=1e-14)

    def test_slow_geometric_tail_is_bounded(self):
        # ratio -> 0.99: the tail is about 100 times the last term, so a
        # loose tolerance exposes a rule that stops on the term size alone
        spec = HypSpec((Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 4),))
        loose = pfq_eval_float(spec, 0.99, tol=1e-8, max_terms=100_000)
        tight = pfq_eval_float(spec, 0.99, tol=1e-16, max_terms=100_000)
        assert loose.converged and tight.converged
        assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound
        assert loose.error_bound <= 2e-8 * abs(loose.value)

    def test_geometric_rule_keeps_term_counts(self):
        # Once the ratio bound is under 1/2 the tail bound is under the last
        # term, so these sums stop where |term| <= tol*|sum| first held:
        # the counts below are the ones that rule gave.
        spec = HypSpec((Fraction(1, 3),), (Fraction(2, 3),))
        for x, terms in ((-8.0, 47), (-2.0, 25), (0.5, 16), (8.0, 42)):
            assert pfq_eval_float(spec, x, tol=1e-16, max_terms=800).terms == terms
        gauss = HypSpec((Fraction(1, 3), Fraction(2, 5)), (Fraction(13, 15),))
        assert pfq_eval_float(gauss, 0.5, tol=1e-16, max_terms=600).terms == 46


class TestFloatTailBoundOracle:
    """Returned bounds against high-precision values from mpmath (optional)."""

    def test_low_excess_unit_sums(self):
        mpmath = pytest.importorskip("mpmath")

        def gamma(q):
            return mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator)

        half = Fraction(1, 2)
        for a, b, c in low_excess_points(30, seed=8):
            # Watson's theorem at 30 digits stands in for hyp3f2(..., 1),
            # which mpmath needs seconds for here (and fails at excess 1/24)
            with mpmath.workdps(30):
                exact = (
                    gamma(half) * gamma(c + half) * gamma((a + b + 1) / 2) * gamma(c - (a + b) / 2 + half)
                    / (gamma((a + 1) / 2) * gamma((b + 1) / 2) * gamma(c - a / 2 + half) * gamma(c - b / 2 + half))
                )
            result = pfq_eval_float(watson_spec(a, b, c), 1.0, tol=1e-16, max_terms=400_000)
            assert result.converged, (a, b, c)
            assert result.terms < 1000, (a, b, c)
            assert abs(result.value - exact) <= result.error_bound, (a, b, c)

    def test_unit_sum_against_hyp3f2(self):
        mpmath = pytest.importorskip("mpmath")
        spec = watson_spec(*ROADMAP_WATSON_POINTS[0])
        with mpmath.workdps(20):
            exact = mpmath.hyp3f2(*(mpmath.mpf(v.numerator) / v.denominator for v in spec.upper + spec.lower), 1)
        result = pfq_eval_float(spec, 1.0, tol=1e-16)
        assert abs(result.value - exact) <= result.error_bound

    @pytest.mark.parametrize(
        "spec",
        [
            HypSpec((Fraction(1, 3),), (Fraction(2, 3),)),
            HypSpec((Fraction(3, 7),), (Fraction(6, 7),)),
            HypSpec((), (Fraction(5, 4),)),
            HypSpec((Fraction(1, 2), Fraction(1, 3)), (Fraction(7, 4), Fraction(9, 5), Fraction(1, 5))),
        ],
    )
    def test_entire_functions_never_understate(self, spec):
        mpmath = pytest.importorskip("mpmath")
        for x in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0):
            with mpmath.workdps(30):
                exact = mpmath.hyper(*([mpmath.mpf(v.numerator) / v.denominator for v in side] for side in (spec.upper, spec.lower)), x)
            for tol, max_terms in ((1e-16, 400), (1e-15, 500)):
                result = pfq_eval_float(spec, x, tol=tol, max_terms=max_terms)
                assert result.converged
                assert abs(result.value - exact) <= result.error_bound, x

    def test_half_argument_gauss_sums(self):
        mpmath = pytest.importorskip("mpmath")
        for a, b in [(Fraction(1, 3), Fraction(2, 5)), (Fraction(-3, 2), Fraction(7, 5)), (Fraction(1, 5), Fraction(-1, 3))]:
            spec = HypSpec((a, b), ((a + b + 1) / 2,))
            result = pfq_eval_float(spec, 0.5, tol=1e-16, max_terms=600)
            with mpmath.workdps(30):
                exact = mpmath.hyp2f1(*(mpmath.mpf(v.numerator) / v.denominator for v in spec.upper + spec.lower), 0.5)
            assert result.converged
            assert abs(result.value - exact) <= result.error_bound


class TestBaileyProduct:
    def test_matches_direct_product(self):
        rho, sigma = Fraction(3, 2), Fraction(5, 2)
        direct = (
            pfq_series(HypSpec((), (rho,)), 10)
            * pfq_series(HypSpec((), (sigma,)), 10)
        )
        assert bailey_product_series(rho, sigma, 10) == direct

    def test_first_coefficient(self):
        rho, sigma = Fraction(3, 2), Fraction(5, 2)
        got = bailey_product_series(rho, sigma, 4).coefficient(1)
        assert got == 1 / rho + 1 / sigma

    @given(admissible_lower_st, admissible_lower_st)
    @settings(max_examples=60)
    def test_product_identity_property(self, rho, sigma):
        assume(not is_nonpositive_integer(rho + sigma - 1))
        direct = (
            pfq_series(HypSpec((), (rho,)), 8)
            * pfq_series(HypSpec((), (sigma,)), 8)
        )
        assert bailey_product_series(rho, sigma, 8) == direct

    def test_degenerate_combination(self):
        with pytest.raises(DegenerateParameterError):
            bailey_product_series(Fraction(1, 2), Fraction(1, 2), 6)


weights_st = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=4)


class TestBaileyDoubleSum:
    @given(admissible_lower_st, admissible_lower_st, weights_st, weights_st, st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_block_by_block_sum(self, rho, sigma, first, second, cap):
        # the weights may vanish anywhere, leading and trailing ones included
        assume(not is_nonpositive_integer(rho + sigma - 1))
        expected = [Fraction(0)] * (cap + 1)
        for m, w1 in enumerate(first):
            for n, w2 in enumerate(second):
                if m + n > cap:
                    continue
                block = pfq_series(bailey_product_spec(rho + m, sigma + n), (cap - m - n) // 2)
                for k, c in enumerate(block.coeffs):
                    expected[m + n + 2 * k] += w1 * w2 * c / 4**k
        den, nums = _bailey_double_sum(rho, first, sigma, second, cap)
        assert [Fraction(v, den) for v in nums] == expected

    @pytest.mark.parametrize("rho, sigma", [("-2", "5/2"), ("5/2", "0"), ("-1/2", "1/2")])
    def test_degenerate_block_raises_as_the_first_block(self, rho, sigma):
        rho, sigma = Fraction(rho), Fraction(sigma)
        with pytest.raises(DegenerateParameterError) as first:
            bailey_product_spec(rho, sigma)
        with pytest.raises(DegenerateParameterError) as err:
            _bailey_double_sum(rho, [Fraction(1), Fraction(2)], sigma, [Fraction(1)], 6)
        assert (err.value.expr, err.value.value, err.value.index) == (first.value.expr, first.value.value, first.value.index)
