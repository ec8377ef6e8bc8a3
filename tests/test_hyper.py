"""Tests for the generic pFq machinery, exact and float."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypident.hyper import (
    DegenerateParameterError,
    HypSpec,
    bailey_product_series,
    pfq_eval_float,
    pfq_series,
)
from hypident.rationals import factorial, is_nonpositive_integer, pochhammer

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

    def test_json_round_trip(self):
        spec = HypSpec((Fraction(1, 2), Fraction(-3)), (Fraction(7, 4),))
        doc = spec.to_json_dict()
        assert doc == {"upper": ["1/2", "-3"], "lower": ["7/4"]}
        assert HypSpec.from_json_dict(doc) == spec


class TestPfqSeries:
    def test_frozen_f01_values(self):
        s = pfq_series(HypSpec((), (Fraction(1),)), 4)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 1
        assert s.coefficient(2) == Fraction(1, 4)

    def test_exp_is_0f0(self):
        s = pfq_series(HypSpec((), ()), 6)
        assert s.coefficient(5) == Fraction(1, factorial(5))

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
            den = Fraction(factorial(k))
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

    def test_terminating_series_stops_at_n(self):
        s = pfq_series(HypSpec((Fraction(-4), Fraction(2, 3)), (Fraction(5, 6),)), 24)
        assert s.coefficient(4) != 0
        assert set(s.nums[5:]) == {0}


class TestPfqEvalFloat:
    def test_at_zero(self):
        result = pfq_eval_float(HypSpec((), (Fraction(3, 2),)), 0.0)
        assert result.value == 1.0
        assert result.converged

    def test_agrees_with_exact_truncation(self):
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
                reference = exact.eval_float(x)
                assert math.isclose(summed.value, reference, rel_tol=1e-9)

    def test_kummer_sample_point(self):
        spec = HypSpec((Fraction(1, 3),), (Fraction(2, 3),))
        summed = pfq_eval_float(spec, -2.0)
        reference = pfq_series(spec, 60).eval_float(-2.0)
        assert math.isclose(summed.value, reference, rel_tol=1e-10)

    def test_budget_exhaustion_is_reported(self):
        result = pfq_eval_float(HypSpec((), ()), 30.0, max_terms=3)
        assert not result.converged
        assert result.terms == 4

    def test_validation(self):
        spec = HypSpec((), ())
        with pytest.raises(ValueError):
            pfq_eval_float(spec, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            pfq_eval_float(spec, 1.0, max_terms=0)


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
