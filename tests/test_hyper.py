"""Tests for the generic pFq machinery, exact and float."""

import math
import random
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypident import hyper
from hypident.hyper import (
    DegenerateParameterError,
    FloatSum,
    HypSpec,
    KeptInfo,
    KeptStore,
    _bits,
    _pfq_integers,
    bailey_product_series,
    bailey_product_spec,
    pfq_eval_float,
    pfq_series,
)
from hypident.rationals import _over_common, is_nonpositive_integer, pochhammer
from hypident.right import _bailey_double_sum
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

    def test_a_float_parameter_is_refused(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(ValueError, match=r"^upper\[1\] must be an exact rational, not the float 0.1$"):
            HypSpec((1, 0.1), (Fraction(3, 2),))
        with pytest.raises(ValueError, match=r"^lower\[0\] must be an exact rational, not the float 1.5$"):
            HypSpec((1,), (1.5, 2))
        assert HypSpec((1, Fraction(1, 10)), (2,)).upper == (1, Fraction(1, 10))


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

    def test_nonpositive_lower_parameter_past_the_last_term(self):
        # 2F1(-3, -7; -5; t): (-5)_k vanishes only from k = 6, after the sum
        # stops, so the bare parameters reach a series a HypSpec refuses
        upper, lower = (Fraction(-3), Fraction(-7)), (Fraction(-5),)
        with pytest.raises(DegenerateParameterError):
            HypSpec(upper, lower)
        for cap in (0, 3):
            den, nums = _pfq_integers(upper, lower, cap)
            assert [Fraction(v, den) for v in nums] == term_ratio_reference(upper, lower, cap)

    def test_a_lower_parameter_that_vanishes_just_past_the_last_term(self):
        # 2F1(-3, 2/3; -3; t) ends at degree 3, and (-3)_k first vanishes
        # at k = 4: the kernel forms no step past the end, so every cap works
        upper, lower = (Fraction(-3), Fraction(2, 3)), (Fraction(-3),)
        for cap in (3, 4, 9):
            den, nums = _pfq_integers(upper, lower, cap)
            assert [Fraction(v, den) for v in nums] == term_ratio_reference(upper, lower, 3) + [0] * (cap - 3)

    def test_terminating_series_stops_at_n(self):
        s = pfq_series(HypSpec((Fraction(-4), Fraction(2, 3)), (Fraction(5, 6),)), 24)
        assert s.coefficient(4) != 0
        assert set(s.nums[5:]) == {0}

    def test_a_terminating_series_is_its_last_term_padded_with_zeros(self):
        # 2F1(-4, 2/3; 5/6; t) ends at degree 4: the kernel forms its steps
        # only that far, and cap 24 gives cap 4's integers and 20 zeros
        upper, lower = (Fraction(-4), Fraction(2, 3)), (Fraction(5, 6),)
        den, nums = _pfq_integers(upper, lower, 4)
        assert nums[4] != 0
        assert _pfq_integers(upper, lower, 24) == (den, nums + [0] * 20)


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

    def test_a_parameter_a_double_cannot_hold_ends_the_sum(self):
        unbounded = (math.inf, False, math.inf, math.inf)
        # -3 + 2**-59 rounds to -3.0, so the float term at k = 3 divides by zero
        near_pole = Fraction(-3) + Fraction(1, 2**59)
        for spec, x in [
            (HypSpec((Fraction(1, 3),), (near_pole,)), 0.5),
            (HypSpec((Fraction(10**400),), (Fraction(1, 3),)), 0.5),
            (HypSpec((Fraction(10**400),), ()), 0.5),
            # 2*gamma = 2**-1079 rounds to 0.0, at the telescoped unit argument
            (watson_spec(Fraction(1, 3), Fraction(2, 5), Fraction(1, 2**1080)), 1.0),
        ]:
            result = pfq_eval_float(spec, x)
            assert (result.value, result.converged, result.abs_sum, result.error_bound) == unbounded
        # a sum that ends before the pole is still bounded
        result = pfq_eval_float(HypSpec((Fraction(-2), Fraction(1, 3)), (near_pole,)), 0.5)
        assert result.converged and math.isclose(result.value, 1 + 1 / 9 + 1 / 54, rel_tol=1e-15)

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


def watson_points(count: int, seed: int, low=0, high=Fraction(3, 2)) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded non-terminating 1.8 points with a, b in (-2, 2) and the
    excess ``c - (a+b)/2 + 1/2`` in (low, high], such as the benchmark's
    float_sums windows [1/4, 3/2] and [3, 6].

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
        steps = range(math.floor(2 * qs * low) + 1, math.floor(2 * qs * high) + 1)
        excess = Fraction(rng.choice([k for k in steps if k % qs]), 2 * qs)
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


class TestTailSkip:
    """The cheap test that skips a telescoped rule check changes no sum."""

    @pytest.mark.parametrize("low, high", [(Fraction(1, 4), Fraction(3, 2)), (3, 6)])
    def test_every_sum_is_the_one_without_skips(self, monkeypatch, low, high):
        specs = [watson_spec(*point) for point in watson_points(60, seed=40, low=low, high=high)]
        runs = [(tol, max_terms) for tol in (1e-16, 1e-12, 1e-8) for max_terms in (10, 60, 400_000)]

        def sums():
            return [pfq_eval_float(spec, 1.0, tol=tol, max_terms=max_terms) for spec in specs for tol, max_terms in runs]

        real, verdicts = hyper._tail_cannot_stop, []
        monkeypatch.setattr(hyper, "_tail_cannot_stop", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
        skipping = sums()
        assert sum(verdicts) > len(verdicts) / 2  # most checks are skipped
        monkeypatch.setattr(hyper, "_tail_cannot_stop", lambda *args: False)
        full = sums()
        assert [repr(s) for s in skipping] == [repr(s) for s in full]
        assert sum(s.converged for s in full) > len(full) / 2

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_check_whose_factor_rounds_to_zero_is_not_skipped(self, monkeypatch, n):
        # b = -n + 2**-58 is -n as a double, so the check at N = n divides by
        # 1 + b/N = 0.0 and ends the sum, a step before the terms divide by b + n
        spec = HypSpec((-n + Fraction(1, 2**60), Fraction(1, 3), Fraction(1, 5)), (-n + Fraction(1, 2**58), 30))
        skipping = pfq_eval_float(spec, 1.0, tol=1e-16, max_terms=100)
        assert (skipping.value, skipping.terms) == (math.inf, n + 1)
        monkeypatch.setattr(hyper, "_tail_cannot_stop", lambda *args: False)
        assert pfq_eval_float(spec, 1.0, tol=1e-16, max_terms=100) == skipping


class TestFloatTailBoundOracle:
    """Returned bounds against high-precision values from mpmath (optional)."""

    def test_low_excess_unit_sums(self):
        mpmath = pytest.importorskip("mpmath")

        def gamma(q):
            return mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator)

        half = Fraction(1, 2)
        for a, b, c in watson_points(30, seed=8):
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


weights_st = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=9)
NINE_WEIGHTS = [Fraction(w, 3) for w in (3, -1, 2, 0, 5, -4, 1, 7, -2)]
TWENTY_ONE_WEIGHTS = [Fraction(w, 5) for w in (5, -2, 3, 0, 7, -4, 1, 0, 0, 6, -3, 2, 0, 8, -1, 4, -6, 0, 3, 9, -2)]


def block_by_block_sum(rho, first, sigma, second, cap):
    """The coefficients of a weighted double sum of 1.11 blocks, one block at a time."""
    expected = [Fraction(0)] * (cap + 1)
    for m, w1 in enumerate(first):
        for n, w2 in enumerate(second):
            if m + n > cap:
                continue
            block = pfq_series(bailey_product_spec(rho + m, sigma + n), (cap - m - n) // 2)
            for k, c in enumerate(block.coeffs):
                expected[m + n + 2 * k] += w1 * w2 * c / 4**k
    return expected


def lanes_double_sum(rho, first, sigma, second, cap):
    """``_bailey_double_sum`` of Fraction weights, each list passed as the
    canonical integer lanes ``_over_common`` gives, as ``(den, nums)``."""
    return _bailey_double_sum(rho, *_over_common(*first), sigma, *_over_common(*second), cap)


class TestBaileyDoubleSum:
    @given(admissible_lower_st, admissible_lower_st, weights_st, weights_st, st.integers(0, 48))
    # rho + sigma = P/Q a negative non-integer: F(u) = P + u*Q, whose spans
    # make the shared part, is negative for every u up to the cap in the
    # first example and changes sign inside a span in the second
    @example(Fraction(-77, 4), Fraction(-45, 4), NINE_WEIGHTS, NINE_WEIGHTS[::-1], 24)
    @example(Fraction(-7, 4), Fraction(-3, 4), NINE_WEIGHTS, NINE_WEIGHTS, 24)
    @settings(max_examples=80, deadline=None)
    def test_matches_block_by_block_sum(self, rho, sigma, first, second, cap):
        # the weights may vanish anywhere, leading and trailing ones included;
        # nine weights and cap 48 are what an i, j <= 8 grid reaches
        assume(not is_nonpositive_integer(rho + sigma - 1))
        den, nums = lanes_double_sum(rho, first, sigma, second, cap)
        assert [Fraction(v, den) for v in nums] == block_by_block_sum(rho, first, sigma, second, cap)

    @given(
        admissible_lower_st,
        admissible_lower_st,
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=21),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=21),
        st.integers(0, 96),
    )
    # 21 weights a side and cap 96 are what an i, j <= 20 grid reaches. With
    # rho + sigma = P/Q the spans are products of F(u) = P + u*Q, u <= 94: at
    # -193/2 every F(u) is negative, at -61/2 F(u) is negative up to u = 30,
    # and at -5/2 F changes sign inside a span. TWENTY_ONE_WEIGHTS and its
    # every other entry both hold zeros in the middle
    @example(Fraction(-381, 4), Fraction(-5, 4), TWENTY_ONE_WEIGHTS, TWENTY_ONE_WEIGHTS[::-1], 96)
    @example(Fraction(-121, 4), Fraction(-1, 4), TWENTY_ONE_WEIGHTS, TWENTY_ONE_WEIGHTS[::-1], 96)
    @example(Fraction(-7, 4), Fraction(-3, 4), TWENTY_ONE_WEIGHTS, TWENTY_ONE_WEIGHTS, 96)
    @example(Fraction(5, 3), Fraction(3, 7), TWENTY_ONE_WEIGHTS, TWENTY_ONE_WEIGHTS[::2], 96)
    @settings(max_examples=10, deadline=None)
    def test_long_columns_match_block_by_block_sum(self, rho, sigma, first, second, cap):
        assume(not is_nonpositive_integer(rho + sigma - 1))
        den, nums = lanes_double_sum(rho, first, sigma, second, cap)
        assert [Fraction(v, den) for v in nums] == block_by_block_sum(rho, first, sigma, second, cap)

    @pytest.mark.parametrize("rho, sigma", [("-2", "5/2"), ("5/2", "0"), ("-1/2", "1/2")])
    def test_degenerate_block_raises_as_the_first_block(self, rho, sigma):
        rho, sigma = Fraction(rho), Fraction(sigma)
        with pytest.raises(DegenerateParameterError) as first:
            bailey_product_spec(rho, sigma)
        with pytest.raises(DegenerateParameterError) as err:
            _bailey_double_sum(rho, 1, [1, 2], sigma, 1, [1], 6)
        assert (err.value.expr, err.value.value, err.value.index) == (first.value.expr, first.value.value, first.value.index)

    @pytest.mark.parametrize("order", ["halves_first", "wholes_first"])
    def test_lanes_that_differ_only_in_den_read_two_tables(self, order):
        """One rho with the lanes (2, (2, 1)) and (1, (2, 1)), the weights
        (1, 1/2) and (2, 1): the shift-table key holds den, so from cleared
        memos each factor builds its own table, in either order, and each
        sum is the block-by-block one."""
        hyper.KEPT.cache_clear()
        rho, sigma, cap = Fraction(3, 7), Fraction(2, 5), 12
        factors = [(2, [2, 1]), (1, [2, 1])]
        for den, nums in factors if order == "halves_first" else factors[::-1]:
            got, coeffs = _bailey_double_sum(rho, den, nums, sigma, 1, [1], cap)
            weights = [Fraction(num, den) for num in nums]
            assert [Fraction(v, got) for v in coeffs] == block_by_block_sum(rho, weights, sigma, [Fraction(1)], cap)
        assert hyper.KEPT.cache_info()["shift tables"].misses == 3


class TestKeptStore:
    SUM = FloatSum(0.5, True, 40, 1.5, 1e-16)

    def test_a_value_is_charged_the_bits_of_its_integers(self):
        assert _bits((Fraction(-3, 8), (5, (6,)), "x", None)) == 2 + 4 + 3 + 3
        assert _bits(self.SUM) == 2048
        assert _bits(((1 << 100) - 1, 0)) == 100

    def test_the_first_kept_is_the_first_dropped(self):
        """Room for two 8-bit values, read through a memo: a third drops the
        first, which is built again where it is next read and then drops
        the second; a value past the budget is returned and not kept, so
        each read builds it; ``cache_clear`` zeroes every namespace, and a
        value built after it is kept again."""
        store = KeptStore(16)
        built = []
        byte = store.memo("a")(lambda k: built.append(k) or (255,))
        total = store.memo("b")(lambda k: built.append(k) or self.SUM)
        assert [byte(k) for k in (0, 1, 2, 1, 2, 0)] == [(255,)] * 6 and built == [0, 1, 2, 0]
        assert list(store._kept) == [("a", 2), ("a", 0)]
        assert total(3) is total(3) is self.SUM and built[4:] == [3, 3]
        assert store.cache_info() == {"a": KeptInfo(2, 4, 16, 2), "b": KeptInfo(0, 2, 0, 0)}
        store.cache_clear()
        assert store.cache_info() == {"a": KeptInfo(0, 0, 0, 0), "b": KeptInfo(0, 0, 0, 0)}
        assert byte(1) == byte(1) == (255,) and built[6:] == [1]
        assert store.cache_info()["a"] == KeptInfo(1, 1, 8, 1)

    def test_a_memo_keeps_by_its_arguments_and_wraps_its_builder(self):
        store = KeptStore(64)
        built = []

        def square(n):
            built.append(n)
            return (n * n,)

        kept = store.memo("squares")(square)
        assert [kept(3), kept(3), kept(4)] == [(9,), (9,), (16,)] and built == [3, 4]
        assert kept.__wrapped__ is square and kept.__name__ == "square"
        assert store.cache_info()["squares"] == KeptInfo(1, 2, 4 + 5, 2)

    def test_a_value_is_charged_once_and_its_charge_kept(self, monkeypatch):
        """At a budget of a few values, rows of 1 to 40 integers of up to
        200 bits are read through a memo, each once, and kept and dropped in
        turn: each is charged once, when it is built, and a drop and
        ``cache_info`` read the kept charge, so the kept-bit count is the
        sum of ``_bits`` over the kept values."""
        rng = random.Random(5)
        charged = []
        monkeypatch.setattr(hyper, "_bits", lambda value: charged.append(value) or _bits(value))
        store = KeptStore(1 << 11)
        rows = [tuple(rng.getrandbits(rng.randint(1, 200)) for _ in range(rng.randint(1, 40))) for _ in range(200)]
        row = store.memo("rows")(rows.__getitem__)
        for k in range(len(rows)):
            assert row(k) is rows[k]
            info = store.cache_info()["rows"]
            assert info.bits == store._bits == sum(_bits(value) for value, _ in store._kept.values()) <= store.budget
        assert charged == rows
        assert 0 < info.entries < len(rows) - 100

    def test_a_namespace_has_one_builder(self):
        store = KeptStore(64)
        store.memo("squares")(lambda n: (n * n,))
        with pytest.raises(ValueError, match="'squares' already has a builder"):
            store.memo("squares")
        assert list(store.cache_info()) == ["squares"]

    def test_the_running_counts_equal_a_recount(self):
        """200 random reads over three namespaces at a budget of a few
        values keep and drop in turn, ``()`` charged 0 bits among them, as
        a float side at no points keeps it: after each, every namespace's
        counts equal a recount over the kept table, its hits and misses its
        reads, and a value of 0 bits is one entry when kept and when dropped."""
        rng = random.Random(7)
        store = KeptStore(1 << 12)
        builders = {"rows": lambda k: tuple(range(1 << k)), "sums": lambda k: self.SUM if k < 3 else (k,),
                    "empty": lambda k: ()}
        memos = {name: store.memo(name)(build) for name, build in builders.items()}
        reads = dict.fromkeys(builders, 0)
        for _ in range(200):
            name = rng.choice(list(builders))
            reads[name] += 1
            k = rng.randrange(8)
            assert memos[name](k) == builders[name](k)
            info = store.cache_info()
            for namespace, counts in info.items():
                kept = [bits for (kept_in, *_), (_, bits) in store._kept.items() if kept_in == namespace]
                assert counts.hits + counts.misses == reads[namespace]
                assert (counts.bits, counts.entries) == (sum(kept), len(kept))
            assert store._bits == sum(counts.bits for counts in info.values()) <= store.budget
        # every miss of () keeps it, so each miss past the entries left was a drop
        assert info["empty"].misses > info["empty"].entries > 0 and info["empty"].bits == 0

    def test_cache_info_reads_counts_and_never_the_kept_values(self):
        """With a kept table that raises when walked, values are kept and
        dropped and ``cache_info`` still gives every count."""

        class Unwalkable(OrderedDict):
            def __iter__(self):
                raise AssertionError("cache_info walked the kept values")

            keys = values = items = __iter__

        store = KeptStore(16)
        store._kept = Unwalkable()
        byte = store.memo("a")(lambda k: (255,))
        assert [byte(k) for k in (0, 1, 2, 1)] == [(255,)] * 4
        assert store.cache_info() == {"a": KeptInfo(1, 3, 16, 2)}
        with pytest.raises(AssertionError):
            list(store._kept)
