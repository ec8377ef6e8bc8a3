"""Tests for truncated exact power series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypident.rationals import parse_rational
from hypident.series import TruncatedSeries, exp_series

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def series_st(cap: int):
    return st.lists(coeff_st, min_size=cap + 1, max_size=cap + 1).map(
        lambda cs: TruncatedSeries(cap, tuple(cs))
    )


@st.composite
def same_cap_triples(draw):
    cap = draw(st.integers(min_value=0, max_value=7))
    make = series_st(cap)
    return draw(make), draw(make), draw(make)


class TestConstruction:
    def test_length_must_match_cap(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, (Fraction(1),))

    def test_negative_cap(self):
        with pytest.raises(ValueError):
            TruncatedSeries(-1, ())

    def test_from_coeffs_pads_and_truncates(self):
        padded = TruncatedSeries.from_coeffs([1, 2], cap=4)
        assert padded.coeffs == (1, 2, 0, 0, 0)
        clipped = TruncatedSeries.from_coeffs([1, 2, 3, 4], cap=1)
        assert clipped.coeffs == (1, 2)

    def test_coefficient_outside_cap_is_an_error(self):
        s = TruncatedSeries.from_coeffs([1, 2, 3])
        assert s.coefficient(2) == 3
        with pytest.raises(IndexError):
            s.coefficient(3)
        with pytest.raises(IndexError):
            s.coefficient(-1)


class TestArithmetic:
    def test_mul_example(self):
        one_plus = TruncatedSeries.from_coeffs([1, 1], cap=2)
        one_minus = TruncatedSeries.from_coeffs([1, -1], cap=2)
        assert (one_plus * one_minus).coeffs == (1, 0, -1)

    def test_binary_ops_truncate_to_smaller_cap(self):
        a = TruncatedSeries.from_coeffs([1, 1, 1, 1], cap=3)
        b = TruncatedSeries.from_coeffs([1, 1], cap=1)
        assert (a + b).cap == 1
        assert (a * b).cap == 1
        assert (a - b).cap == 1

    @given(same_cap_triples())
    def test_ring_laws(self, triple):
        f, g, h = triple
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == TruncatedSeries.zero(f.cap)

    @given(same_cap_triples())
    def test_one_is_multiplicative_identity(self, triple):
        f, _, _ = triple
        assert f * TruncatedSeries.one(f.cap) == f


class TestTransforms:
    @given(series_st(8), st.integers(min_value=0, max_value=8))
    def test_shift_moves_coefficients(self, s, power):
        shifted = s.shift(power)
        assert shifted.cap == s.cap
        for k in range(s.cap + 1):
            expected = Fraction(0) if k < power else s.coefficient(k - power)
            assert shifted.coefficient(k) == expected

    def test_shift_example(self):
        s = TruncatedSeries.from_coeffs([1, 1], cap=2)
        assert s.shift(1).coeffs == (0, 1, 1)

    def test_shift_negative_raises(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(2).shift(-1)

    @given(series_st(8))
    def test_scale_argument_minus_one_is_involution(self, s):
        flipped = s.scale_argument(-1)
        assert flipped.scale_argument(-1) == s
        for k in range(s.cap + 1):
            sign = -1 if k % 2 else 1
            assert flipped.coefficient(k) == sign * s.coefficient(k)

    def test_scale_argument_two(self):
        s = TruncatedSeries.from_coeffs([1, 1, 1], cap=2)
        assert s.scale_argument(2).coeffs == (1, 2, 4)

    def test_scale(self):
        s = TruncatedSeries.from_coeffs([1, 2], cap=1)
        assert s.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)

    def test_substitute_even_example(self):
        # sum t^k / k! becomes sum x^(2k) / (16^k k!)
        s = exp_series(6)
        result = s.substitute_even(16)
        assert result.cap == 6
        assert result.coefficient(0) == 1
        assert result.coefficient(2) == Fraction(1, 16)
        assert result.coefficient(4) == Fraction(1, 512)
        assert all(result.coefficient(k) == 0 for k in (1, 3, 5))

    @given(series_st(9))
    def test_substitute_even_kills_odd_degrees(self, s):
        result = s.substitute_even(4)
        assert all(result.coefficient(k) == 0 for k in range(1, s.cap + 1, 2))

    def test_substitute_even_zero_divisor(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(2).substitute_even(0)

    def test_truncate(self):
        s = TruncatedSeries.from_coeffs([1, 2, 3], cap=2)
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncate(5)


class TestFloatAndText:
    def test_eval_float_exp(self):
        assert math.isclose(exp_series(30).eval_float(1.0), math.e, rel_tol=1e-12)
        assert math.isclose(
            exp_series(40, sign=-1).eval_float(2.0), math.exp(-2.0), rel_tol=1e-12
        )

    def test_eval_float_zero_series(self):
        assert TruncatedSeries.zero(5).eval_float(3.0) == 0.0

    def test_to_text_examples(self):
        assert TruncatedSeries.zero(3).to_text() == "0"
        assert exp_series(2, sign=-1, half=True).to_text() == "1 - 1/2*x + 1/8*x^2"

    @given(series_st(6))
    def test_coefficient_strings_round_trip(self, s):
        strings = s.coefficient_strings()
        assert [parse_rational(t) for t in strings] == list(s.coeffs)


class TestExpSeries:
    def test_plain(self):
        s = exp_series(4)
        assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_negative_half(self):
        s = exp_series(2, sign=-1, half=True)
        assert s.coeffs == (1, Fraction(-1, 2), Fraction(1, 8))

    def test_half_squares_to_plain(self):
        # e^(x/2) * e^(x/2) = e^x, checked on truncations
        half = exp_series(12, half=True)
        assert half * half == exp_series(12)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            exp_series(3, sign=2)


# -- the integer representation against plain-Fraction references ----------

# numerators include 0 and negatives; denominators run to 30
rational_st = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=30)
)
nonzero_st = rational_st.filter(lambda q: q != 0)


@st.composite
def coeff_lists(draw, min_cap=0, max_cap=40):
    cap = draw(st.integers(min_value=min_cap, max_value=max_cap))
    return draw(st.lists(rational_st, min_size=cap + 1, max_size=cap + 1))


few = settings(max_examples=40)


def assert_matches(result: TruncatedSeries, reference: list[Fraction]) -> None:
    """Same coefficients as the reference, in canonical integer form."""
    assert result.cap == len(reference) - 1
    assert result.coeffs == tuple(reference)
    assert result.den > 0
    assert math.gcd(result.den, *result.nums) == 1
    rebuilt = TruncatedSeries(result.cap, reference)
    assert result == rebuilt
    assert hash(result) == hash(rebuilt)


class TestIntegerRepresentation:
    @given(coeff_lists())
    @few
    def test_constructor_keeps_coefficients(self, coeffs):
        s = TruncatedSeries(len(coeffs) - 1, tuple(coeffs))
        assert s.coeffs == tuple(coeffs)
        assert [s.coefficient(k) for k in range(s.cap + 1)] == coeffs
        assert_matches(s, coeffs)

    @given(coeff_lists(), st.integers(min_value=-9, max_value=9).filter(bool))
    @few
    def test_equal_coefficients_give_equal_series_and_hash(self, coeffs, k):
        s = TruncatedSeries(len(coeffs) - 1, tuple(coeffs))
        # the same coefficients over a denominator scaled by k, sign included
        other = TruncatedSeries.from_integers(s.cap, s.den * k, [n * k for n in s.nums])
        assert other == s
        assert hash(other) == hash(s)
        assert (other.den, other.nums) == (s.den, s.nums)

    def test_unequal_series_differ(self):
        assert TruncatedSeries.from_coeffs([1, 2]) != TruncatedSeries.from_coeffs([1, 3])
        assert TruncatedSeries.from_coeffs([1, 2]) != TruncatedSeries.from_coeffs([1, 2], cap=2)

    @given(coeff_lists(), coeff_lists())
    @few
    def test_add_sub_neg(self, a, b):
        f, g = TruncatedSeries(len(a) - 1, a), TruncatedSeries(len(b) - 1, b)
        n = min(len(a), len(b))
        assert_matches(f + g, [x + y for x, y in zip(a[:n], b[:n])])
        assert_matches(f - g, [x - y for x, y in zip(a[:n], b[:n])])
        assert_matches(-f, [-x for x in a])

    @given(coeff_lists(), coeff_lists())
    @few
    def test_mul(self, a, b):
        f, g = TruncatedSeries(len(a) - 1, a), TruncatedSeries(len(b) - 1, b)
        n = min(len(a), len(b))
        reference = [sum((a[t] * b[k - t] for t in range(k + 1)), Fraction(0)) for k in range(n)]
        assert_matches(f * g, reference)

    @given(coeff_lists(), rational_st)
    @few
    def test_scale(self, a, factor):
        assert_matches(TruncatedSeries(len(a) - 1, a).scale(factor), [factor * x for x in a])

    @given(coeff_lists(), rational_st)
    @few
    def test_scale_argument(self, a, factor):
        reference = [x * factor**k for k, x in enumerate(a)]
        assert_matches(TruncatedSeries(len(a) - 1, a).scale_argument(factor), reference)

    @given(coeff_lists(), st.integers(min_value=0, max_value=45), st.data())
    @few
    def test_shift(self, a, power, data):
        s = TruncatedSeries(len(a) - 1, a)
        cap = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=s.cap + power)))
        out_cap = s.cap if cap is None else cap
        reference = [a[k - power] if k >= power else Fraction(0) for k in range(out_cap + 1)]
        assert_matches(s.shift(power, cap), reference)

    @given(coeff_lists(), nonzero_st, st.data())
    @few
    def test_substitute_even(self, a, divisor, data):
        s = TruncatedSeries(len(a) - 1, a)
        cap = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2 * s.cap + 1)))
        out_cap = s.cap if cap is None else cap
        reference = [
            a[k // 2] / divisor ** (k // 2) if k % 2 == 0 else Fraction(0)
            for k in range(out_cap + 1)
        ]
        assert_matches(s.substitute_even(divisor, cap), reference)

    @given(coeff_lists(), st.data())
    @few
    def test_truncate(self, a, data):
        s = TruncatedSeries(len(a) - 1, a)
        cap = data.draw(st.integers(min_value=0, max_value=s.cap))
        assert_matches(s.truncate(cap), a[: cap + 1])

    @given(st.integers(min_value=0, max_value=40), st.sampled_from([1, -1]), st.booleans())
    @few
    def test_exp_series(self, cap, sign, half):
        reference = [
            Fraction(sign**k, math.factorial(k) * (2**k if half else 1)) for k in range(cap + 1)
        ]
        assert_matches(exp_series(cap, sign, half), reference)

    @given(coeff_lists(max_cap=10), st.integers(min_value=0, max_value=12))
    @few
    def test_output_cap_limits(self, a, power):
        s = TruncatedSeries(len(a) - 1, a)
        s.shift(power, s.cap + power)
        s.substitute_even(3, 2 * s.cap + 1)
        # one degree further would claim an unknown coefficient is zero
        with pytest.raises(ValueError):
            s.shift(power, s.cap + power + 1)
        with pytest.raises(ValueError):
            s.substitute_even(3, 2 * s.cap + 2)
