"""Tests for the identity catalog: builders, registry, and catalog checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypident.hyper import DegenerateParameterError, HypSpec, pfq_series
from hypident.identities import (
    IdentityId,
    IdentityParams,
    VARIANTS,
    catalog,
    default_cap,
    equal_parameter_rhs,
    expand_lowered,
    expand_raised,
    gauss_second_sides_float,
    gauss_terminating_sides,
    get,
    product_expansion_lhs,
    product_expansion_rhs,
    watson_unit_sides_float,
    _gamma_ratio,
)
from hypident.rationals import pochhammer
from hypident.series import exp_series
from hypident.verify import verify_identity

A = Fraction(3, 7)
B = Fraction(2, 5)


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
        assert expand_raised(A, i, cap) == lhs

    @pytest.mark.parametrize("i", range(5))
    def test_lowered_matches_oracle(self, i):
        cap = 20
        lhs = exp_series(cap, -1, half=True) * pfq_series(
            HypSpec((A,), (2 * A - i,)), cap
        )
        assert expand_lowered(A, i, cap) == lhs

    def test_reduces_to_plain_transformation_at_zero_shift(self):
        plain = get("1.2")
        p = IdentityParams(alpha=A, cap=18)
        assert expand_raised(A, 0, 18) == plain.build_rhs(p)
        assert expand_lowered(A, 0, 18) == plain.build_rhs(p)

    def test_degenerate_weight_raises(self):
        # alpha - i - 1/2 = 0 at alpha = 5/2, i = 2
        with pytest.raises(DegenerateParameterError) as err:
            expand_lowered(Fraction(5, 2), 2, 12)
        assert err.value.expr == "(alpha - i - 1/2)_m"

    def test_negative_shift(self):
        with pytest.raises(ValueError):
            expand_raised(A, -1, 10)


class TestProductExpansion:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("point", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2)])
    def test_structured_side_matches_raw_product(self, variant, point):
        i, j = point
        params = IdentityParams(alpha=A, beta=B, i=i, j=j)
        lhs = product_expansion_lhs(variant, params)
        rhs = product_expansion_rhs(variant, params)
        assert lhs == rhs

    @pytest.mark.parametrize("point", [(0, 1), (1, 0), (1, 1), (2, 1)])
    def test_printed_form_disagrees_at_nonzero_shifts(self, point):
        # the m-indexed transcription breaks in both directions: for j >= 1
        # it weights the n-sum wrongly, and for j = 0 the (0)_m factor kills
        # every m >= 1 term
        i, j = point
        params = IdentityParams(alpha=A, beta=B, i=i, j=j, printed_form=True)
        lhs = product_expansion_lhs("PM", params)
        rhs = product_expansion_rhs("PM", params)
        assert lhs != rhs

    def test_printed_form_agrees_at_zero_shifts(self):
        params = IdentityParams(alpha=A, beta=B, i=0, j=0, printed_form=True)
        assert product_expansion_lhs("PM", params) == product_expansion_rhs("PM", params)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            product_expansion_rhs("XX", IdentityParams(alpha=A, beta=B))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equal_parameter_form_matches_two_parameter_form(self, variant):
        for i, j in [(0, 0), (1, 2), (3, 1)]:
            cap = default_cap(i, j)
            two_param = product_expansion_rhs(
                variant, IdentityParams(alpha=A, beta=A, i=i, j=j, cap=cap)
            )
            one_param = equal_parameter_rhs(variant, A, i, j, cap)
            assert one_param == two_param

    def test_zero_shift_reduces_to_matched_product_form(self):
        # at i = j = 0 every variant collapses to the e^x 2F3 closed form
        base = get("1.10").build_rhs(IdentityParams(alpha=A, beta=B, cap=16))
        for variant in VARIANTS:
            got = product_expansion_rhs(variant, IdentityParams(alpha=A, beta=B, cap=16))
            assert got == base


class TestScalarSides:
    def test_gauss_terminating_known_value(self):
        b, c = Fraction(1, 2), Fraction(5, 3)
        for n in (0, 1, 4):
            lhs, rhs = gauss_terminating_sides(n, b, c)
            assert lhs == rhs == pochhammer(c - b, n) / pochhammer(c, n)

    def test_gauss_terminating_degenerate_c(self):
        with pytest.raises(DegenerateParameterError):
            gauss_terminating_sides(3, Fraction(1, 2), Fraction(-2))

    def test_gauss_second_close(self):
        lhs, rhs, converged = gauss_second_sides_float(Fraction(1, 3), Fraction(2, 5))
        assert converged
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_watson_terminating_close(self):
        lhs, rhs, converged = watson_unit_sides_float(
            Fraction(-4), Fraction(2, 5), Fraction(7, 3)
        )
        assert converged
        assert math.isclose(lhs, rhs, rel_tol=1e-10)

    def test_gamma_ratio_denominator_pole_gives_zero(self):
        assert _gamma_ratio([Fraction(1, 2)], [Fraction(-1)]) == 0.0

    def test_gamma_ratio_numerator_pole_raises(self):
        with pytest.raises(DegenerateParameterError):
            _gamma_ratio([Fraction(-2)], [Fraction(1, 2)])


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
