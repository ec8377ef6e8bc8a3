"""Tests for the identity catalog: builders, registry, and catalog checks."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypident import identities
from hypident.hyper import DegenerateParameterError, HypSpec, bailey_product_spec, pfq_series
from hypident.identities import (
    Arg,
    IdentityId,
    IdentityParams,
    Side,
    Term,
    catalog,
    default_cap,
    get,
    _expansion_terms,
    _gamma_ratio,
    _product_rhs,
    _side_floats,
    _side_series,
)
from hypident.rationals import pochhammer
from hypident.series import TruncatedSeries, exp_series
from hypident.verify import DEFAULT_FLOAT_POINTS, check_admissible, verify_identity

A = Fraction(3, 7)
B = Fraction(2, 5)

# catalog tags of each shifted-product variant and of its equal-parameter form
PRODUCT_TAG = {"PP": "2.1", "MM": "2.2", "PM": "2.3"}
EQUAL_PARAM_TAG = {"PP": "3.1", "MM": "3.2", "PM": "3.3"}


def expanded(tag, alpha, i, cap):
    """Right side of expansion 1.17 (raised) or 1.18 (lowered)."""
    return get(tag).build_rhs(IdentityParams(alpha=alpha, i=i, cap=cap))


class TestCatalog:
    def test_has_all_tags_in_order(self):
        tags = [d.tag for d in catalog()]
        assert tags == [
            "1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9",
            "1.10", "1.11", "1.12", "1.13", "1.17", "1.18",
            "2.1", "2.2", "2.3", "3.1", "3.2", "3.3",
        ]

    def test_get_by_tag_and_enum(self):
        assert get("2.1") is get(IdentityId.PRODUCT_PP)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown identity tag"):
            get("9.9")

    def test_every_entry_is_runnable_shape(self):
        for d in catalog():
            if d.kind == "series":
                assert d.build_lhs and d.build_rhs and d.lhs_float and d.rhs_float
            elif d.kind == "exact_sum":
                assert d.scalar_exact
            elif d.kind == "float_sum":
                assert d.scalar_float and d.fixed_argument is not None
            else:
                pytest.fail(f"unexpected kind {d.kind}")


class TestParams:
    def test_defaults(self):
        p = IdentityParams(alpha=A)
        assert p.effective_cap == 16
        assert default_cap(2, 1) == 22

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            IdentityParams(alpha=A, i=-1)

    def test_missing_beta_detected(self):
        with pytest.raises(ValueError, match="needs beta"):
            get("1.7").validate_params(IdentityParams(alpha=A))

    def test_missing_gamma_detected(self):
        with pytest.raises(ValueError, match="needs gamma"):
            get("1.8").validate_params(IdentityParams(alpha=A, beta=B))

    def test_json_dict(self):
        p = IdentityParams(alpha=A, beta=B, i=2, j=1)
        assert p.to_json_dict() == {
            "alpha": "3/7", "beta": "2/5", "i": 2, "j": 1, "cap": 22,
        }


class TestClassicalChainChecks:
    def test_kummer_first(self):
        report = verify_identity("1.1", IdentityParams(alpha=A, beta=B, cap=24))
        assert report.status == "exact_match"
        assert report.cap == 24

    def test_kummer_second_and_scaled(self):
        assert verify_identity("1.2", IdentityParams(alpha=A, cap=24)).status == "exact_match"
        assert verify_identity("1.5", IdentityParams(alpha=A, cap=24)).status == "exact_match"

    def test_preece_bailey_batch(self):
        reports = [
            verify_identity("1.6", IdentityParams(alpha=A, cap=24)),
            verify_identity("1.7", IdentityParams(alpha=A, beta=B, cap=24)),
            verify_identity("1.9", IdentityParams(alpha=A, cap=24)),
            verify_identity("1.10", IdentityParams(alpha=A, beta=B, cap=24)),
        ]
        assert [r.identity for r in reports] == ["1.6", "1.7", "1.9", "1.10"]
        assert all(r.status == "exact_match" for r in reports)

    def test_contiguous_batch(self):
        reports = [
            verify_identity("1.12", IdentityParams(alpha=A, cap=24)),
            verify_identity("1.13", IdentityParams(alpha=A, cap=24)),
        ]
        assert [r.identity for r in reports] == ["1.12", "1.13"]
        assert all(r.status == "exact_match" for r in reports)

    def test_degenerate_raises_rather_than_reporting(self):
        # alpha = 0 makes the 2*alpha lower parameter of the left side vanish
        with pytest.raises(DegenerateParameterError):
            get("1.2").build_lhs(IdentityParams(alpha=0, cap=8))

class TestExpansions:
    @pytest.mark.parametrize("i", range(5))
    def test_raised_matches_oracle(self, i):
        cap = 20
        lhs = exp_series(cap, -1, half=True) * pfq_series(
            HypSpec((A,), (2 * A + i,)), cap
        )
        assert expanded("1.17", A, i, cap) == lhs

    @pytest.mark.parametrize("i", range(5))
    def test_lowered_matches_oracle(self, i):
        cap = 20
        lhs = exp_series(cap, -1, half=True) * pfq_series(
            HypSpec((A,), (2 * A - i,)), cap
        )
        assert expanded("1.18", A, i, cap) == lhs

    def test_reduces_to_plain_transformation_at_zero_shift(self):
        plain = get("1.2")
        p = IdentityParams(alpha=A, cap=18)
        assert expanded("1.17", A, 0, 18) == plain.build_rhs(p)
        assert expanded("1.18", A, 0, 18) == plain.build_rhs(p)

    def test_degenerate_weight_raises(self):
        # alpha - i - 1/2 = 0 at alpha = 5/2, i = 2
        with pytest.raises(DegenerateParameterError) as err:
            expanded("1.18", Fraction(5, 2), 2, 12)
        assert err.value.expr == "(alpha - i - 1/2)_m"

    def test_negative_shift(self):
        with pytest.raises(ValueError):
            expanded("1.17", A, -1, 10)

    @pytest.mark.parametrize("raised", [True, False], ids=["raised", "lowered"])
    def test_weights_match_pochhammer_form(self, raised):
        # alpha = -1 (raised) gives zero weights from (2*alpha - 1)_m; 7/2
        # (lowered) and 1/2 hit a vanishing denominator Pochhammer symbol
        for alpha in (A, Fraction(-5, 11), Fraction(7, 2), Fraction(1, 2), Fraction(-1), Fraction(3)):
            for i in range(7):
                base = alpha if raised else alpha - i
                sign = 1 if raised else -1
                expected = []
                for m in range(i + 1):
                    den = pochhammer(2 * base + i, m) * pochhammer(base - Fraction(1, 2), m)
                    if den == 0:
                        with pytest.raises(DegenerateParameterError):
                            _expansion_terms(alpha, i, raised)
                        break
                    weight = (
                        sign**m * pochhammer(Fraction(-i), m) * pochhammer(2 * base - 1, m)
                        / (den * math.factorial(m) * 4**m)
                    )
                    if weight:
                        expected.append((weight, m, base + m + Fraction(1, 2)))
                else:
                    assert _expansion_terms(alpha, i, raised) == expected

    @pytest.mark.parametrize(
        "alpha, i, raised, expr, value, index",
        [
            # (2*alpha + i)_m vanishes at m = 2, (alpha - 1/2)_m at m = 4
            (Fraction(-5, 2), 4, True, "(2*alpha + i)_m", Fraction(-1), 2),
            # (alpha - 1/2)_m vanishes at m = 2, (2*alpha + i)_m never
            (Fraction(-1, 2), 3, True, "(alpha - 1/2)_m", Fraction(-1), 2),
            # (2*alpha + i)_m vanishes at m = 1, (alpha - 1/2)_m at m = 3
            (Fraction(-3, 2), 3, True, "(2*alpha + i)_m", Fraction(0), 1),
            # lowered: (2*alpha - i)_m vanishes at m = 3
            (Fraction(1), 4, False, "(2*alpha - i)_m", Fraction(-2), 3),
        ],
    )
    def test_weight_guards(self, alpha, i, raised, expr, value, index):
        with pytest.raises(DegenerateParameterError) as err:
            _expansion_terms(alpha, i, raised)
        assert (err.value.expr, err.value.value, err.value.index) == (expr, value, index)


class TestProductExpansion:
    @pytest.mark.parametrize("variant", ("PP", "MM", "PM"))
    @pytest.mark.parametrize("point", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2)])
    def test_structured_side_matches_raw_product(self, variant, point):
        i, j = point
        params = IdentityParams(alpha=A, beta=B, i=i, j=j)
        product = get(PRODUCT_TAG[variant])
        assert product.build_lhs(params) == product.build_rhs(params)

    @pytest.mark.parametrize("point", [(0, 1), (1, 0), (1, 1), (2, 1)])
    def test_printed_form_disagrees_at_nonzero_shifts(self, point):
        # the m-indexed transcription breaks in both directions: for j >= 1
        # it weights the n-sum wrongly, and for j = 0 the (0)_m factor kills
        # every m >= 1 term
        i, j = point
        params = IdentityParams(alpha=A, beta=B, i=i, j=j, printed_form=True)
        mixed = get("2.3")
        assert mixed.build_lhs(params) != mixed.build_rhs(params)

    def test_printed_form_agrees_at_zero_shifts(self):
        params = IdentityParams(alpha=A, beta=B, i=0, j=0, printed_form=True)
        mixed = get("2.3")
        assert mixed.build_lhs(params) == mixed.build_rhs(params)

    @pytest.mark.parametrize("variant", ("PP", "MM", "PM"))
    def test_equal_parameter_form_matches_two_parameter_form(self, variant):
        for i, j in [(0, 0), (1, 2), (3, 1)]:
            cap = default_cap(i, j)
            two_param = get(PRODUCT_TAG[variant]).build_rhs(
                IdentityParams(alpha=A, beta=A, i=i, j=j, cap=cap)
            )
            one_param = get(EQUAL_PARAM_TAG[variant]).build_rhs(
                IdentityParams(alpha=A, i=i, j=j, cap=cap)
            )
            assert one_param == two_param

    def test_zero_shift_reduces_to_matched_product_form(self):
        # at i = j = 0 every variant collapses to the e^x 2F3 closed form
        base = get("1.10").build_rhs(IdentityParams(alpha=A, beta=B, cap=16))
        for variant in ("PP", "MM", "PM"):
            got = get(PRODUCT_TAG[variant]).build_rhs(IdentityParams(alpha=A, beta=B, cap=16))
            assert got == base


class TestProductDegenerateBlocks:
    @pytest.mark.parametrize(
        "tag, alpha, beta, i, j, printed_form, expr, value, index",
        [
            ("2.1", "-9/2", "-9/2", 0, 0, False, "lower[0]", "-4", 4),
            ("2.1", "-4", "-9/2", 0, 0, False, "lower[1]", "-4", 4),
            ("2.1", "-4", "-4", 0, 0, False, "lower[2]", "-8", 8),
            ("2.1", "-1/2", "-1/2", 0, 0, False, "lower[0]", "0", 0),
            # blocks on later diagonals exist, the one at (m, n) = (0, 0) fails
            ("2.1", "-9/2", "2/5", 2, 3, False, "lower[0]", "-4", 4),
            ("2.1", "3/7", "-7/2", 3, 2, False, "lower[1]", "-3", 3),
            # these fail only at a nonzero shift
            ("2.2", "-2", "3", 0, 1, False, "lower[2]", "0", 0),
            ("2.2", "-2", "3", 2, 1, False, "lower[2]", "-2", 2),
            ("2.2", "1", "-5/2", 0, 0, False, "lower[1]", "-2", 2),
            ("2.3", "-2", "3", 0, 1, False, "lower[2]", "0", 0),
            ("2.3", "-2", "3", 0, 1, True, "lower[2]", "0", 0),
            ("2.3", "1", "-1", 2, 3, False, "lower[2]", "-3", 3),
            ("2.3", "1", "-1", 2, 3, True, "lower[2]", "-3", 3),
        ],
    )
    def test_degenerate_block_raises(self, tag, alpha, beta, i, j, printed_form, expr, value, index):
        params = IdentityParams(alpha=Fraction(alpha), beta=Fraction(beta), i=i, j=j, printed_form=printed_form)
        with pytest.raises(DegenerateParameterError) as err:
            get(tag).build_rhs(params)
        assert (err.value.expr, err.value.value, err.value.index) == (expr, Fraction(value), index)

    @given(
        st.integers(-12, 6).map(lambda k: Fraction(k, 2)),
        st.integers(-12, 6).map(lambda k: Fraction(k, 2)),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["PP", "MM", "PM"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_degenerate_block_is_the_first_block(self, alpha, beta, i, j, variant):
        # Block (m, n) has rho_0 + m, sigma_0 + n and rho_0 + sigma_0 - 1 + m + n,
        # and block (0, 0) always has weight 1; so if any block is degenerate,
        # the first one is, and no failing block comes after another block of
        # its own diagonal.
        params = IdentityParams(alpha=alpha, beta=beta, i=i, j=j)
        try:
            get(PRODUCT_TAG[variant]).build_rhs(params)
        except DegenerateParameterError as err:
            assume(err.expr.startswith("lower"))
            rho = _expansion_terms(alpha, i, variant[0] == "P")[0][2]
            sigma = _expansion_terms(beta, j, variant[1] == "P")[0][2]
            with pytest.raises(DegenerateParameterError) as first:
                bailey_product_spec(rho, sigma)
            assert (err.expr, err.value, err.index) == (first.value.expr, first.value.value, first.value.index)


class TestEqualParameterForm:
    @pytest.mark.parametrize(
        "tag, alpha, i, j, printed_form, expr, value, index",
        [
            ("3.1", "-1/2", 0, 0, False, "lower[0]", "0", 0),
            ("3.1", "-3/2", 2, 3, False, "lower[0]", "-1", 1),
            ("3.1", "1/2", 1, 0, False, "(alpha - 1/2)_m", "0", 1),
            # the second factor's weight fails at (m, n) = (0, 1), before the first's at m = 1
            ("3.1", "1/2", 3, 2, False, "(alpha - 1/2)_n", "0", 1),
            ("3.2", "5/2", 0, 2, False, "(alpha - j - 1/2)_n", "0", 1),
            ("3.2", "5/2", 0, 3, False, "lower[1]", "0", 0),
            ("3.2", "5/2", 2, 1, False, "(alpha - i - 1/2)_m", "0", 1),
            ("3.2", "5/2", 3, 3, False, "lower[0]", "0", 0),
            ("3.2", "-3/2", 3, 2, False, "lower[0]", "-4", 4),
            ("3.2", "1", 1, 1, False, "lower[2]", "0", 0),
            ("3.2", "1", 3, 3, False, "lower[2]", "-4", 4),
            ("3.3", "5/2", 3, 2, False, "(alpha - j - 1/2)_n", "0", 1),
            ("3.3", "5/2", 3, 2, True, "(alpha - j - 1/2)_n", "0", 1),
            ("3.3", "5/2", 1, 3, True, "lower[1]", "0", 0),
            ("3.3", "-1/2", 3, 3, True, "lower[0]", "0", 0),
            ("3.3", "1", 2, 3, False, "lower[2]", "-1", 1),
            ("3.3", "1", 2, 3, True, "lower[2]", "-1", 1),
            ("3.3", "1/2", 2, 1, False, "lower[1]", "0", 0),
            ("3.3", "1/2", 0, 2, True, "lower[1]", "-1", 1),
        ],
    )
    def test_degenerate_alpha_raises(self, tag, alpha, i, j, printed_form, expr, value, index):
        params = IdentityParams(alpha=Fraction(alpha), i=i, j=j, printed_form=printed_form)
        with pytest.raises(DegenerateParameterError) as err:
            get(tag).build_rhs(params)
        assert (err.value.expr, err.value.value, err.value.index) == (expr, Fraction(value), index)

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["PP", "MM", "PM"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_two_parameter_form_at_beta_alpha(self, alpha, i, j, variant, printed_form):
        params = IdentityParams(alpha=alpha, i=i, j=j, printed_form=printed_form)
        assume(not check_admissible(EQUAL_PARAM_TAG[variant], params))
        two_param = get(PRODUCT_TAG[variant]).build_rhs(dataclasses.replace(params, beta=alpha))
        assert get(EQUAL_PARAM_TAG[variant]).build_rhs(params) == two_param


def reference_side_series(side, cap):
    """The side built term by term from TruncatedSeries operations: each
    factor expanded by pfq_series in its own variable and then substituted,
    each block multiplied, shifted, scaled and added on its own."""
    total = TruncatedSeries.from_integers(cap, 1, [0] * (cap + 1))
    for term in side.terms:
        need = cap - term.power
        if need < 0:
            continue
        block = None
        for spec, arg in term.factors:
            series = pfq_series(spec, arg.t_cap(need))
            factor = series.substitute_even(arg.c, need) if arg.squared else series.scale_argument(arg.c)
            block = factor if block is None else block * factor
        total = total + block.shift(term.power, cap).scale(term.weight)
    if side.exp:
        sign = 1 if side.exp > 0 else -1
        total = exp_series(cap, sign, half=abs(side.exp) == Fraction(1, 2)) * total
    return total


SQ4 = Arg(4, squared=True)
SQ16 = Arg(16, squared=True)


def per_block_product_side(variant, params):
    """The 2.x right side as a plain Side, one 1.11 block per nonzero
    weight: ``w1 * w2`` (times ``(-j)_m / (-j)_n`` in the printed form) at
    power ``m + n``, each block built by ``bailey_product_spec`` on its own."""
    first = _expansion_terms(params.alpha, params.i, variant[0] == "P")
    second = _expansion_terms(params.beta, params.j, variant[1] == "P", ("beta", "j", "n"))
    printed = params.printed_form and variant == "PM"
    terms = []
    for w1, m, rho in first:
        for w2, n, sigma in second:
            weight = w1 * w2
            if printed:
                weight = weight * pochhammer(Fraction(-params.j), m) / pochhammer(Fraction(-params.j), n)
            if weight != 0:
                terms.append(Term(((bailey_product_spec(rho, sigma), SQ4),), weight, m + n))
    return Side(tuple(terms), Fraction(1))

TERMINATING = HypSpec((Fraction(-3), A), (B, Fraction(1, 5)))
ORACLE_TERMS = {
    "sq4": Term(((HypSpec((A,), (B, Fraction(1, 3))), SQ4),)),
    "sq16": Term(((HypSpec((), (Fraction(5, 2),)), SQ16),), Fraction(-3, 7), 1),
    "x": Term(((HypSpec((A,), (B,)), Arg(1)),), Fraction(2, 9), 2),
    "neg_x": Term(((HypSpec((B,), (A,)), Arg(-1)),), Fraction(-1), 3),
    "2x": Term(((HypSpec((A, B), (Fraction(7, 3),)), Arg(2)),), Fraction(5, 4)),
    "4x_terminating": Term(((TERMINATING, Arg(4)),), Fraction(-11, 6), 1),
    "sq4_terminating": Term(((TERMINATING, SQ4),), Fraction(1, 2), 2),
    "power_9": Term(((HypSpec((), (A,)), Arg(2)),), Fraction(3), 9),
    "power_12": Term(((HypSpec((), (B,)), SQ4),), Fraction(7), 12),
    "two_factors": Term((
        (HypSpec((A,), (2 * A,)), Arg(1)),
        (HypSpec((B,), (2 * B,)), Arg(-1)),
    ), Fraction(-2, 3), 1),
    "two_factors_mixed_args": Term((
        (HypSpec((), (A,)), SQ16),
        (HypSpec((A,), (B,)), Arg(4)),
    ), Fraction(1, 5)),
}
ORACLE_SIDES = {name: (term,) for name, term in ORACLE_TERMS.items()}
ORACLE_SIDES["all"] = tuple(ORACLE_TERMS.values())
ORACLE_SIDES["empty"] = ()
# left-side products, taken as binomial convolutions of exponential
# generating functions: arguments c*x at c = 1, -1, 2, -3 and x**2/4,
# terminating factors, weights other than 1 and powers above 0
PRODUCT_TERMS = {
    "two_factors": Term((
        (HypSpec((A,), (2 * A,)), Arg(2)),
        (HypSpec((B,), (A + 1,)), Arg(-3)),
    ), Fraction(-5, 3), 2),
    "three_factors": Term((
        (HypSpec((A,), (B,)), Arg(1)),
        (HypSpec((), (2 * B,)), Arg(-1)),
        (HypSpec((A, B), (Fraction(7, 3),)), Arg(-3)),
    ), Fraction(4, 9), 1),
    "squared_factor": Term((
        (HypSpec((A,), (B, Fraction(1, 3))), SQ4),
        (HypSpec((B,), (2 * B,)), Arg(2)),
    ), Fraction(3)),
    "terminating_factors": Term((
        (TERMINATING, Arg(-3)),
        (HypSpec((), (A,)), Arg(1)),
        (HypSpec((Fraction(-2),), (B,)), SQ4),
    ), Fraction(-7, 2), 5),
}


class TestSideSeries:
    @pytest.mark.parametrize("exp", [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)], ids=str)
    @pytest.mark.parametrize("name", ORACLE_SIDES)
    def test_matches_term_by_term_reference(self, name, exp):
        # caps 0..9 put the powers 0, 1, 2, 3 and 9 below, at and past the
        # cap; power 12 is past every cap
        side = Side(ORACLE_SIDES[name], Fraction(exp))
        for cap in range(10):
            assert _side_series(side, cap) == reference_side_series(side, cap), cap

    @pytest.mark.parametrize("name", [*PRODUCT_TERMS, "all"])
    def test_products_match_cauchy_product_reference(self, name):
        # the reference multiplies the factors with TruncatedSeries.__mul__
        side = Side(tuple(PRODUCT_TERMS.values()) if name == "all" else (PRODUCT_TERMS[name],))
        for cap in [*range(41), 96]:
            assert _side_series(side, cap) == reference_side_series(side, cap), cap

    @pytest.mark.parametrize("exp", [1, -1, Fraction(1, 2), Fraction(-1, 2)], ids=str)
    @pytest.mark.parametrize("cap", [24, 48, 96])
    def test_exponential_at_benchmark_caps(self, cap, exp):
        side = Side(ORACLE_SIDES["all"], Fraction(exp))
        assert _side_series(side, cap) == reference_side_series(side, cap)

    @pytest.mark.parametrize("variant, printed_form", [("PP", False), ("MM", False), ("PM", False), ("PM", True)])
    def test_product_right_sides(self, variant, printed_form):
        # the reference expands every block on its own, so it shares nothing
        # along a diagonal; caps below i + j cut whole diagonals off. At
        # alpha = 0 a raised first expansion drops its weights from m = 2 on,
        # as (2*alpha - 1)_m = (-1)_m vanishes there
        for alpha in (A, Fraction(0)):
            for i in range(7):
                for j in range(7):
                    params = IdentityParams(alpha=alpha, beta=B, i=i, j=j, printed_form=printed_form)
                    side, reference = _product_rhs(variant, params), per_block_product_side(variant, params)
                    for cap in [*range(i + j + 1), params.effective_cap]:
                        assert _side_series(side, cap) == reference_side_series(reference, cap), (alpha, i, j, cap)

    @pytest.mark.parametrize("variant, printed_form", [("PP", False), ("MM", False), ("PM", False), ("PM", True)])
    def test_product_right_side_floats(self, variant, printed_form):
        rhs_float = get(PRODUCT_TAG[variant]).rhs_float
        for i, j in [(0, 0), (2, 1), (3, 4), (6, 6)]:
            params = IdentityParams(alpha=A, beta=B, i=i, j=j, printed_form=printed_form)
            reference = per_block_product_side(variant, params)
            assert rhs_float(params, DEFAULT_FLOAT_POINTS) == _side_floats(reference, DEFAULT_FLOAT_POINTS), (i, j)
            # e**x overflows a double at 1e6 only; the points beside it are
            # what a one-point call gives
            batch = rhs_float(params, (0.5, 1e6, -0.5))
            assert batch == [*rhs_float(params, (0.5,)), (math.inf, False), *rhs_float(params, (-0.5,))], (i, j)
            assert batch == _side_floats(reference, (0.5, 1e6, -0.5)), (i, j)
        near, far = verify_identity(PRODUCT_TAG[variant], params, float_points=(0.5, 1e6)).float_residuals
        assert near.converged and math.isfinite(near.relative_error)
        assert (far.converged, far.relative_error) == (False, math.inf)
        # a plain side: at 1e6 the 1.9 product's sums overflow and its right
        # side's e**x overflows, both to inf
        params = IdentityParams(alpha=A)
        for side_float in (get("1.9").lhs_float, get("1.9").rhs_float):
            assert side_float(params, (1e6,)) == [(math.inf, False)]
            assert side_float(params, (0.5, 1e6, -0.5))[::2] == [*side_float(params, (0.5,)), *side_float(params, (-0.5,))]


class TestScalarSides:
    def test_gauss_terminating_known_value(self):
        b, c = Fraction(1, 2), Fraction(5, 3)
        for n in (0, 1, 4):
            lhs, rhs = get("1.3").scalar_exact(IdentityParams(alpha=b, beta=c, i=n))
            assert lhs == rhs == pochhammer(c - b, n) / pochhammer(c, n)

    def test_gauss_terminating_degenerate_c(self):
        for n in (3, 4, 8, 12):
            with pytest.raises(DegenerateParameterError) as exc:
                get("1.3").scalar_exact(IdentityParams(alpha=Fraction(1, 2), beta=Fraction(-2), i=n))
            assert (exc.value.expr, exc.value.value, exc.value.index) == ("(c)_n", -2, 3)

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(-5), Fraction(7, 2), Fraction(-9, 4), Fraction(2, 5)], ids=str)
    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(5), Fraction(-7), Fraction(3, 7)], ids=str)
    def test_gauss_terminating_matches_pochhammer_form(self, b, c):
        # (-5)_n != 0 up to n = 5, so c = -5 is admissible there; from n = 6 it
        # vanishes, its zero factor at index 6. Two points also run at the
        # command line's largest shifts.
        large = (47, 64) if (b, c) in {(Fraction(3, 7), Fraction(2, 5)), (Fraction(-3, 2), Fraction(-9, 4))} else ()
        for n in [*range(13), *large]:
            c_n = pochhammer(c, n)
            if c_n == 0:
                with pytest.raises(DegenerateParameterError) as exc:
                    get("1.3").scalar_exact(IdentityParams(alpha=b, beta=c, i=n))
                assert (exc.value.expr, exc.value.value, exc.value.index) == ("(c)_n", c, 6)
                continue
            lhs = sum(
                pochhammer(-n, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k))
                for k in range(n + 1)
            )
            got = get("1.3").scalar_exact(IdentityParams(alpha=b, beta=c, i=n))
            assert got == (lhs, pochhammer(c - b, n) / c_n), n

    def test_gauss_second_close(self):
        lhs, rhs, lhs_sum = get("1.4").scalar_float(IdentityParams(alpha=Fraction(1, 3), beta=Fraction(2, 5)))
        assert lhs_sum.converged
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_watson_terminating_close(self):
        lhs, rhs, lhs_sum = get("1.8").scalar_float(
            IdentityParams(alpha=Fraction(-4), beta=Fraction(2, 5), gamma=Fraction(7, 3))
        )
        assert lhs_sum.converged
        assert math.isclose(lhs, rhs, rel_tol=1e-10)

    def test_gamma_ratio_denominator_pole_gives_zero(self):
        assert _gamma_ratio([Fraction(1, 2)], [Fraction(-1)]) == 0.0

    def test_gamma_ratio_numerator_pole_raises(self):
        with pytest.raises(DegenerateParameterError):
            _gamma_ratio([Fraction(-2)], [Fraction(1, 2)])

    @pytest.mark.parametrize(
        "numerators, denominators, message",
        [
            ([Fraction(401)], [Fraction(1, 2)], "Gamma(401) overflows a double"),
            ([Fraction(1, 2)], [Fraction(801, 2)], "Gamma(801/2) overflows a double"),
            # each factor is finite, the ratio is not
            ([Fraction(150), Fraction(101)], [Fraction(50)], "the Gamma ratio overflows a double"),
        ],
    )
    def test_gamma_ratio_overflow_raises(self, numerators, denominators, message):
        with pytest.raises(ValueError) as err:
            _gamma_ratio(numerators, denominators)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "numerators, denominators",
        [
            # math.gamma(-199.5) is 0.0: as a numerator it would zero the ratio
            ([Fraction(-399, 2)], [Fraction(1, 2)]),
            # and as a denominator divide by zero
            ([Fraction(1, 2)], [Fraction(-399, 2)]),
        ],
    )
    def test_gamma_ratio_underflow_raises(self, numerators, denominators):
        with pytest.raises(ValueError) as err:
            _gamma_ratio(numerators, denominators)
        assert str(err.value) == "Gamma(-399/2) underflows a double"

    @pytest.mark.parametrize(
        "numerators, denominators, message",
        [
            # the numerators of 1.8 at alpha = -301/3, beta = -14, gamma = -1311/11
            # alone: about 1.9e-271 times 7.4e-85, with no denominator to lift them
            ([Fraction(1, 2), Fraction(-2611, 22), Fraction(-170, 3), Fraction(-2030, 33)], [Fraction(1)],
             "the Gamma ratio underflows a double"),
            # 1/Gamma(171) is a normal double, 1/Gamma(171)**2 is not
            ([Fraction(1)], [Fraction(171), Fraction(171)], "the Gamma ratio underflows a double"),
        ],
    )
    def test_gamma_ratio_partial_underflow_raises(self, numerators, denominators, message):
        with pytest.raises(ValueError) as err:
            _gamma_ratio(numerators, denominators)
        assert str(err.value) == message

    def test_gamma_ratio_subnormal_factor_raises(self):
        # math.gamma(-355/2) is 5e-324, one significant bit: the ratio would
        # come back 7.65e103, against 1.04e104 from lgamma
        with pytest.raises(ValueError) as err:
            _gamma_ratio([Fraction(329, 2), Fraction(-355, 2), Fraction(143, 7)], [Fraction(-223, 2), Fraction(101, 2)])
        assert str(err.value) == "Gamma(-355/2) underflows a double"

    def test_gamma_ratio_in_the_normal_range_is_kept(self):
        assert _gamma_ratio([Fraction(1)], [Fraction(171)]) == 1 / math.gamma(171.0)

    @pytest.mark.parametrize(
        "numerators, denominators, expected",
        [
            # 1.8 at alpha = 100, beta = 101, gamma = 150: the numerators alone
            # overflow a double; the ratio from mpmath at 40 digits
            ([Fraction(1, 2), Fraction(301, 2), Fraction(101), Fraction(50)],
             [Fraction(101, 2), Fraction(51), Fraction(201, 2), Fraction(100)], 4.131672227880898948e41),
            # 1.8 at alpha = -301/3, beta = -14, gamma = -1311/11: the numerators
            # alone underflow, as in the partial-underflow case above
            ([Fraction(1, 2), Fraction(-2611, 22), Fraction(-170, 3), Fraction(-2030, 33)],
             [Fraction(-149, 3), Fraction(-13, 2), Fraction(-2261, 33), Fraction(-2457, 22)], 1.5428099832550290083e-11),
        ],
        ids=["overflow", "underflow"],
    )
    def test_gamma_ratio_kept_despite_partial_products(self, numerators, denominators, expected):
        assert math.isclose(_gamma_ratio(numerators, denominators), expected, rel_tol=1e-14)

    def test_gauss_second_underflow_is_a_request_error(self):
        # Gamma((alpha + beta + 1)/2) = Gamma(-598/3) underflows first
        with pytest.raises(ValueError, match=r"Gamma\(-598/3\) underflows a double"):
            verify_identity("1.4", IdentityParams(alpha=-400, beta=Fraction(1, 3)))


class TestClassicalSumBatch:
    def test_full_batch(self):
        a, b, c = Fraction(-3), Fraction(1, 2), Fraction(5, 3)
        reports = [
            verify_identity("1.3", IdentityParams(alpha=b, beta=c, i=3)),
            verify_identity("1.4", IdentityParams(alpha=a, beta=b)),
            verify_identity("1.8", IdentityParams(alpha=a, beta=b, gamma=c)),
        ]
        assert [r.identity for r in reports] == ["1.3", "1.4", "1.8"]
        assert reports[0].status == "exact_match"
        assert reports[1].status == "float_only_pass"
        assert reports[2].status == "float_only_pass"

    def test_without_third_parameter(self):
        report = verify_identity("1.4", IdentityParams(alpha=Fraction(1, 3), beta=Fraction(2, 5)))
        assert report.identity == "1.4"
        assert report.status == "float_only_pass"

    def test_non_terminating_first_parameter_skips_terminating_sum(self):
        a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(9, 5)
        reports = [
            verify_identity("1.4", IdentityParams(alpha=a, beta=b)),
            verify_identity("1.8", IdentityParams(alpha=a, beta=b, gamma=c)),
        ]
        assert [r.identity for r in reports] == ["1.4", "1.8"]
        assert all(r.status == "float_only_pass" for r in reports)


@given(
    st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=12),
    st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=12),
)
@settings(max_examples=25)
def test_matched_product_identity_property(alpha, beta):
    """The two-parameter matched product holds for random positive rationals."""
    report = verify_identity("1.10", IdentityParams(alpha=alpha, beta=beta, cap=14))
    assert report.identity == "1.10"
    assert report.status == "exact_match"


SERIES_TAGS = [d.tag for d in catalog() if d.kind == "series"]
TRUNCATION_POINTS = [
    dict(alpha=A, beta=B, i=3, j=2),
    # printed_form only changes the mixed-variant right sides
    dict(alpha=Fraction(-5, 11), beta=Fraction(7, 13), i=2, j=3, printed_form=True),
]


@pytest.mark.parametrize("point", TRUNCATION_POINTS, ids=["first", "second"])
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_low_caps_are_truncations_of_deeper_builds(tag, point):
    """A side built at cap c equals the same side built at c + 5 and cut to c.

    Blocks ``x**p * F(x**2/c)`` expand F only to degree ``(cap - p)//2``,
    so odd caps and caps below the block powers are where an off-by-one
    would show.
    """
    define = get(tag)
    assert verify_identity(tag, IdentityParams(**point), float_points=()).findings == ()
    for cap in range(8):
        shallow = IdentityParams(cap=cap, **point)
        deep = IdentityParams(cap=cap + 5, **point)
        for build in (define.build_lhs, define.build_rhs):
            built = build(deep)
            assert build(shallow) == TruncatedSeries.from_integers(cap, built.den, built.nums[: cap + 1])


LEFT_SIDE_POINTS = [
    (A, B, 0, 0),
    (Fraction(7, 3), Fraction(9, 4), 2, 1),
    (Fraction(-5, 11), Fraction(7, 13), 1, 3),
]


@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_left_sides_match_term_by_term_reference(tag, monkeypatch):
    """Every catalog left side, products of two factors included, equals the
    reference built from its own side declaration, at the default cap and
    at the benchmark's cap 96."""
    built_sides = []
    real = identities._side_series

    def recording(side, cap):
        built_sides.append((side, cap))
        return real(side, cap)

    monkeypatch.setattr(identities, "_side_series", recording)
    for alpha, beta, i, j in LEFT_SIDE_POINTS:
        for cap in (None, 96):
            built = get(tag).build_lhs(IdentityParams(alpha=alpha, beta=beta, i=i, j=j, cap=cap))
            assert built == reference_side_series(*built_sides.pop()), (alpha, beta, i, j, cap)
