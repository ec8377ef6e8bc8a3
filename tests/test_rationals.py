"""Tests for the exact scalar layer: parsing, formatting, rising factorials."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypident.rationals import (
    RationalParseError,
    format_rational,
    is_nonpositive_integer,
    parse_rational,
    pochhammer,
)

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=40)


class TestParseRational:
    def test_integer(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("+2") == Fraction(2)

    def test_fraction(self):
        assert parse_rational("3/7") == Fraction(3, 7)
        assert parse_rational("-9/4") == Fraction(-9, 4)

    def test_canonicalizes(self):
        value = parse_rational("4/6")
        assert value == Fraction(2, 3)
        assert value.numerator == 2 and value.denominator == 3

    def test_surrounding_whitespace(self):
        assert parse_rational("  5/2 ") == Fraction(5, 2)

    @pytest.mark.parametrize(
        "bad", ["", "1.5", "a/b", "1/2/3", "1e3", "/3", "2/", "2/-3", "- 1"]
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(RationalParseError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("3/0")


class TestFormatRational:
    def test_examples(self):
        assert format_rational(Fraction(2, 3)) == "2/3"
        assert format_rational(Fraction(-4, 2)) == "-2"
        assert format_rational(0) == "0"
        assert format_rational(Fraction(-1, 7)) == "-1/7"

    @given(small_rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestPochhammer:
    def test_frozen_values(self):
        assert pochhammer(3, 4) == 360
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(-3, 3) == -6
        assert pochhammer(-3, 5) == 0

    @given(small_rationals)
    def test_empty_product_is_one(self, base):
        assert pochhammer(base, 0) == 1

    @given(small_rationals, st.integers(min_value=0, max_value=12))
    def test_recurrence(self, base, count):
        assert pochhammer(base, count + 1) == pochhammer(base, count) * (base + count)

    @given(small_rationals, st.integers(min_value=0, max_value=12))
    def test_vanishes_exactly_when_terminating(self, base, count):
        should_vanish = is_nonpositive_integer(base) and -base < count
        assert (pochhammer(base, count) == 0) == should_vanish

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1, 2), -1)

    def test_a_float_base_is_refused(self):
        # Fraction(0.1) is the nearest double, not 1/10: refused as every exact entry point refuses it
        with pytest.raises(ValueError, match=r"^base must be an exact rational, not the float 0.5$"):
            pochhammer(0.5, 2)

    def test_a_bool_base_is_refused(self):
        # True is the int 1 to Python: unrefused, (True)_3 was 6
        with pytest.raises(ValueError, match=r"^base must be an exact rational, not the bool True$"):
            pochhammer(True, 3)

    @pytest.mark.parametrize("count", [True, False, 2.0, Fraction(2), "2"], ids=repr)
    def test_a_count_that_is_no_int_is_refused(self, count):
        # unrefused, (1/2)_True was 1/2 and (1/2)_2.0 raised TypeError from range
        with pytest.raises(ValueError, match=f"^pochhammer index must be an int, got {re.escape(repr(count))}$"):
            pochhammer(Fraction(1, 2), count)

    @pytest.mark.parametrize(
        "base",
        [0, 1, -1, 7, -7, -60, -61, 59, Fraction(0), Fraction(-12), Fraction(5), Fraction(1, 2), Fraction(-1, 2),
         Fraction(-121, 2), Fraction(2, 5), Fraction(-37, 3), Fraction(355, 113), Fraction(-1001, 1000)],
        ids=repr,
    )
    def test_matches_the_step_by_step_product(self, base):
        # the product one Fraction factor at a time, as (base)_count is defined
        expected = Fraction(1)
        for count in range(61):
            got = pochhammer(base, count)
            assert type(got) is Fraction and got == expected, count
            expected *= base + count


class TestIsNonpositiveInteger:
    def test_examples(self):
        assert is_nonpositive_integer(0)
        assert is_nonpositive_integer(-5)
        assert is_nonpositive_integer(Fraction(-4, 2))
        assert not is_nonpositive_integer(1)
        assert not is_nonpositive_integer(Fraction(-1, 2))


@given(small_rationals, small_rationals)
def test_fraction_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a
