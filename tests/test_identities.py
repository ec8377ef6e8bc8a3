"""Tests for the identity catalog: builders, registry, and catalog checks."""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hypident
from hypident import identities, left, right
from hypident.hyper import KEPT, KEPT_BITS, DegenerateParameterError, _bits, FloatSum, HypSpec, bailey_product_spec, pfq_eval_float, pfq_series
from hypident.identities import (
    Arg,
    IdentityId,
    IdentityParams,
    RawProduct,
    Side,
    Term,
    catalog,
    default_cap,
    get,
    _equal_param_rhs,
    _expansion_terms,
    _float_terms,
    _gamma_ratio,
    _printed,
    _product_rhs,
    _side_floats,
    _side_series,
)
from hypident.rationals import pochhammer
from hypident.reports import check_lower
from hypident.series import TruncatedSeries, _over_last, exp_series
from hypident.verify import DEFAULT_FLOAT_POINTS, check_admissible, verify_identity

A = Fraction(3, 7)
B = Fraction(2, 5)

# catalog tags of each shifted-product variant and of its equal-parameter
# form, and whether each factor's lower parameter is raised by its shift
PRODUCT_TAG = {"PP": "2.1", "MM": "2.2", "PM": "2.3"}
EQUAL_PARAM_TAG = {"PP": "3.1", "MM": "3.2", "PM": "3.3"}
RAISED = {"PP": (True, True), "MM": (False, False), "PM": (True, False)}


def by_point(name, rows):
    """Each row as a ``pytest.param`` with the id ``name(*row)``, formed from
    the row's point alone, so that a changed expectation keeps the id."""
    return [pytest.param(*row, id=name(*row)) for row in rows]


def printed(printed_form):
    return "-printed" if printed_form else ""


def expanded(tag, alpha, i, cap):
    """Right side of expansion 1.17 (raised) or 1.18 (lowered)."""
    return get(tag).build_rhs(IdentityParams(alpha=alpha, i=i, cap=cap))


def pochhammer_weight(alpha, i, m, raised):
    """Weight m of expansion 1.17 (raised) or 1.18 (lowered) from
    ``pochhammer`` at m, ``(+-1)**m (-i)_m (2*base - 1)_m / ((2*base +- i)_m
    (base - 1/2)_m m! 4**m)`` with ``base = alpha`` raised and ``alpha - i``
    lowered, or None where its denominator vanishes."""
    base = alpha if raised else alpha - i
    den = pochhammer(2 * base + i, m) * pochhammer(base - Fraction(1, 2), m)
    if den == 0:
        return None
    sign = 1 if raised else -1
    return sign**m * pochhammer(Fraction(-i), m) * pochhammer(2 * base - 1, m) / (den * math.factorial(m) * 4**m)


def fraction_weights(factor):
    """An expansion or a product side's factor, ``(rho, den, nums)``, as
    ``(rho, weights)`` with ``weights[m] = Fraction(nums[m], den)``."""
    rho, den, nums = factor
    return rho, [Fraction(num, den) for num in nums]


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
            # a point's JSON states the fields in this order (IdentityParams.to_json_dict)
            assert list(d.uses) == sorted(d.uses, key=("alpha", "beta", "gamma", "i", "j").index), d.tag
            if d.kind == "series":
                assert d.build_lhs and d.build_rhs and d.lhs_float and d.rhs_float
            elif d.kind == "exact_sum":
                assert d.scalar_exact
            elif d.kind == "float_sum":
                assert d.scalar_float and d.fixed_argument is not None
            else:
                pytest.fail(f"unexpected kind {d.kind}")

    def test_only_the_mixed_variants_have_a_printed_form_reading(self):
        # read from the catalog: the entries flagged as having a reading are
        # the ones whose validate_params accepts the flag
        readers = [d.tag for d in catalog() if d.reading]
        assert readers == ["2.3", "3.3"]
        accepted = []
        for d in catalog():
            # a gamma only where the entry reads one: an unused gamma is refused
            params = IdentityParams(alpha=A, beta=B, gamma=Fraction(1, 7) if "gamma" in d.uses else None, printed_form=True)
            try:
                d.validate_params(params)
            except ValueError as error:
                assert str(error).endswith("only 2.3 and 3.3 have a printed-form reading"), d.tag
            else:
                accepted.append(d.tag)
        assert accepted == readers


class TestParams:
    def test_defaults(self):
        p = IdentityParams(alpha=A)
        assert p.effective_cap == 16
        assert default_cap(2, 1) == 22

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            IdentityParams(alpha=A, i=-1)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_a_float_parameter_is_refused(self, name):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        point = {"alpha": A, "beta": B, "gamma": Fraction(1, 7)}
        with pytest.raises(ValueError, match=f"^{name} must be an exact rational.*not the float 0.1$"):
            IdentityParams(**{**point, name: 0.1}, i=4, j=4)
        exact = IdentityParams(**{**point, name: "1/10"})
        assert getattr(exact, name) == Fraction(1, 10)
        assert getattr(IdentityParams(**{**point, name: Fraction(1, 10)}), name) == Fraction(1, 10)
        assert getattr(IdentityParams(**{**point, name: -3}), name) == Fraction(-3)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_a_bool_parameter_is_refused(self, name):
        # True is the int 1 to Python: unrefused, 1.10 verified at alpha = 1
        point = {"alpha": A, "beta": B, "gamma": Fraction(1, 7)}
        with pytest.raises(ValueError, match=f"^{name} must be an exact rational, not the bool True$"):
            IdentityParams(**{**point, name: True})

    def test_missing_beta_detected(self):
        with pytest.raises(ValueError, match="needs beta"):
            get("1.7").validate_params(IdentityParams(alpha=A))

    def test_missing_gamma_detected(self):
        with pytest.raises(ValueError, match="needs gamma"):
            get("1.8").validate_params(IdentityParams(alpha=A, beta=B))

    def test_json_dict(self):
        p = IdentityParams(alpha=A, beta=B, i=2, j=1)
        assert p.to_json_dict("2.1") == {
            "alpha": "3/7", "beta": "2/5", "i": 2, "j": 1, "cap": 22,
        }

    # only the fields the entry uses, plus the cap of a series entry
    @pytest.mark.parametrize(
        "tag, want",
        [
            ("1.2", {"alpha": "3/7", "cap": 22}),
            ("1.17", {"alpha": "3/7", "i": 2, "cap": 22}),
            ("1.3", {"alpha": "3/7", "beta": "2/5", "i": 2}),
            ("1.4", {"alpha": "3/7", "beta": "2/5"}),
            ("1.8", {"alpha": "3/7", "beta": "2/5", "gamma": "1/3"}),
            ("2.3", {"alpha": "3/7", "beta": "2/5", "i": 2, "j": 1, "cap": 22, "printed_form": True}),
        ],
    )
    def test_json_dict_states_the_fields_the_entry_uses(self, tag, want):
        p = IdentityParams(alpha=A, beta=B, i=2, j=1, gamma=Fraction(1, 3), printed_form=tag == "2.3")
        assert p.to_json_dict(tag) == want
        assert p.describe(tag) == " ".join(k if v is True else f"{k}={v}" for k, v in want.items())


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

    @pytest.mark.parametrize(
        "tag, params, value",
        [
            # a square and a mirror of 1F1(alpha; 2*alpha; x), 2*alpha = -1
            ("1.9", IdentityParams(alpha=Fraction(-1, 2)), -1),
            ("1.6", IdentityParams(alpha=Fraction(-1, 2)), -1),
            # a square at i = j: 2*alpha + i = -2
            ("3.1", IdentityParams(alpha=Fraction(-3, 2), i=1, j=1), -2),
            ("2.1", IdentityParams(alpha=Fraction(-3, 2), beta=Fraction(-3, 2), i=1, j=1), -2),
        ],
    )
    def test_degenerate_square_raises(self, tag, params, value):
        # the factor is refused as it was before squares were paired: by
        # its HypSpec, naming its first lower parameter
        with pytest.raises(DegenerateParameterError) as raised:
            get(tag).build_lhs(params)
        assert (raised.value.expr, raised.value.value, raised.value.index) == ("lower[0]", value, -value)

class TestF01ProductReducesToChuVandermonde:
    """Coefficient k of ``0F1(; rho; t) 0F1(; sigma; t)``, the left side of
    1.11, in four forms that must be equal:

    * the Cauchy sum ``sum_l 1/((rho)_l (sigma)_{k-l} l! (k-l)!)``;
    * with ``(sigma)_{k-l} = (-1)**l (sigma)_k / (1-sigma-k)_l`` that is
      ``2F1(-k, 1-sigma-k; rho; 1) / ((sigma)_k k!)``, the sum of 1.3 at
      n = k, b = 1 - sigma - k, c = rho;
    * Chu-Vandermonde (1.3's closed form) turns it into
      ``(rho+sigma+k-1)_k / ((rho)_k (sigma)_k k!)``, the Legendre form of
      the 2F3 coefficient that the 2.x right side sums;
    * the coefficient of 1.11's ``build_lhs``.
    """

    CAP = 40

    @pytest.mark.parametrize("rho, sigma", [(A, B), (Fraction(5, 2), Fraction(-7, 3)), (Fraction(-11, 4), Fraction(1, 3))],
                             ids=str)
    def test_four_forms_agree(self, rho, sigma):
        built = get("1.11").build_lhs(IdentityParams(alpha=rho, beta=sigma, cap=self.CAP)).coeffs
        for k in range(self.CAP + 1):
            k_fact = math.factorial(k)
            cauchy = sum(
                1 / (pochhammer(rho, l) * pochhammer(sigma, k - l) * math.factorial(l) * math.factorial(k - l))
                for l in range(k + 1)
            )
            chu_sum, chu_closed = get("1.3").scalar_exact(IdentityParams(alpha=1 - sigma - k, beta=rho, i=k))
            legendre = pochhammer(rho + sigma + k - 1, k) / (pochhammer(rho, k) * pochhammer(sigma, k) * k_fact)
            assert chu_sum == chu_closed, k
            assert cauchy == chu_sum / (pochhammer(sigma, k) * k_fact) == legendre == built[k], k


class TestExpansions:
    @pytest.mark.parametrize("i", range(5))
    def test_raised_matches_oracle(self, i):
        cap = 20
        lhs = exp_series(cap, Fraction(-1, 2)) * pfq_series(
            HypSpec((A,), (2 * A + i,)), cap
        )
        assert expanded("1.17", A, i, cap) == lhs

    @pytest.mark.parametrize("i", range(5))
    def test_lowered_matches_oracle(self, i):
        cap = 20
        lhs = exp_series(cap, Fraction(-1, 2)) * pfq_series(
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
                expected = []
                for m in range(i + 1):
                    weight = pochhammer_weight(alpha, i, m, raised)
                    if weight is None:
                        with pytest.raises(DegenerateParameterError):
                            _expansion_terms(alpha, i, raised)
                        break
                    if weight:
                        expected.append((weight, m, base + m + Fraction(1, 2)))
                else:
                    rho, weights = fraction_weights(_expansion_terms(alpha, i, raised))
                    assert [(w, m, rho + m) for m, w in enumerate(weights)] == expected

    @pytest.mark.parametrize(
        "alpha, i, raised, expr, value, index",
        by_point(lambda alpha, i, raised, *_: f"alpha={alpha}-i={i}-{'raised' if raised else 'lowered'}", [
            # (2*alpha + i)_m vanishes at m = 2, (alpha - 1/2)_m at m = 4
            (Fraction(-5, 2), 4, True, "(2*alpha + i)_m", Fraction(-1), 2),
            # (alpha - 1/2)_m vanishes at m = 2, (2*alpha + i)_m never
            (Fraction(-1, 2), 3, True, "(alpha - 1/2)_m", Fraction(-1), 2),
            # (2*alpha + i)_m vanishes at m = 1, (alpha - 1/2)_m at m = 3
            (Fraction(-3, 2), 3, True, "(2*alpha + i)_m", Fraction(0), 1),
            # lowered: (2*alpha - i)_m vanishes at m = 3
            (Fraction(1), 4, False, "(2*alpha - i)_m", Fraction(-2), 3),
        ]),
    )
    def test_weight_guards(self, alpha, i, raised, expr, value, index):
        with pytest.raises(DegenerateParameterError) as err:
            _expansion_terms(alpha, i, raised)
        assert (err.value.expr, err.value.value, err.value.index) == (expr, value, index)

    @pytest.mark.parametrize(
        "tag, params, vanishing, raised",
        [
            # (2*alpha + i)_m vanishes from m = 2 and (alpha - 1/2)_m from m = 4
            ("1.17", IdentityParams(alpha=Fraction(-5, 2), i=4), [("(2*alpha + i)_m", 2), ("(alpha - 1/2)_m", 4)],
             ("(2*alpha + i)_m", -1, 2)),
            # a lowered second factor: (2*beta - j)_n vanishes from n = 3
            ("2.3", IdentityParams(alpha=A, beta=Fraction(1, 2), i=1, j=3), [("(2*beta - j)_n", 3)],
             ("(2*beta - j)_n", -2, 3)),
        ],
    )
    def test_gate_and_builder_read_one_derivation(self, tag, params, vanishing, raised):
        """The gate lists every vanishing weight denominator, and the
        builder raises at the first of them."""
        found = [(f.parameter_expr, f.index) for f in check_admissible(tag, params) if f.parameter_expr.startswith("(")]
        assert found == vanishing
        with pytest.raises(DegenerateParameterError) as err:
            get(tag).build_rhs(params)
        assert (err.value.expr, err.value.value, err.value.index) == raised


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
        # tag-alpha-beta-i-j, unlabelled: the ids stay short enough to tell apart
        by_point(lambda tag, alpha, beta, i, j, printed_form, *_:
                 f"{tag}-{alpha}-{beta}-{i}-{j}{printed(printed_form)}", [
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
        ]),
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
            rho, _, _ = _expansion_terms(alpha, i, RAISED[variant][0])
            sigma, _, _ = _expansion_terms(beta, j, RAISED[variant][1])
            with pytest.raises(DegenerateParameterError) as first:
                bailey_product_spec(rho, sigma)
            assert (err.expr, err.value, err.index) == (first.value.expr, first.value.value, first.value.index)


class TestEqualParameterForm:
    @pytest.mark.parametrize(
        "tag, alpha, i, j, printed_form, expr, value, index",
        by_point(lambda tag, alpha, i, j, printed_form, *_: f"{tag}-alpha={alpha}-i={i}-j={j}{printed(printed_form)}", [
            ("3.1", "-1/2", 0, 0, False, "lower[0]", "0", 0),
            # the first factor's weight fails before block (0, 0) is reached
            ("3.1", "-3/2", 2, 3, False, "(2*alpha + i)_m", "-1", 2),
            ("3.1", "1/2", 1, 0, False, "(alpha - 1/2)_m", "0", 1),
            # the first factor's weight fails at m = 1, before the second's at n = 1
            ("3.1", "1/2", 3, 2, False, "(alpha - 1/2)_m", "0", 1),
            ("3.2", "5/2", 0, 2, False, "(alpha - j - 1/2)_n", "0", 1),
            ("3.2", "5/2", 0, 3, False, "(alpha - j - 1/2)_n", "-1", 2),
            ("3.2", "5/2", 2, 1, False, "(alpha - i - 1/2)_m", "0", 1),
            ("3.2", "5/2", 3, 3, False, "(alpha - i - 1/2)_m", "-1", 2),
            ("3.2", "-3/2", 3, 2, False, "lower[0]", "-4", 4),
            ("3.2", "1", 1, 1, False, "lower[2]", "0", 0),
            ("3.2", "1", 3, 3, False, "(2*alpha - i)_m", "-1", 2),
            ("3.3", "5/2", 3, 2, False, "(alpha - j - 1/2)_n", "0", 1),
            ("3.3", "5/2", 3, 2, True, "(alpha - j - 1/2)_n", "0", 1),
            ("3.3", "5/2", 1, 3, True, "(alpha - j - 1/2)_n", "-1", 2),
            ("3.3", "-1/2", 3, 3, True, "(alpha - 1/2)_m", "-1", 2),
            ("3.3", "1", 2, 3, False, "(2*alpha - j)_n", "-1", 2),
            ("3.3", "1", 2, 3, True, "(2*alpha - j)_n", "-1", 2),
            ("3.3", "1/2", 2, 1, False, "(alpha - 1/2)_m", "0", 1),
            ("3.3", "1/2", 0, 2, True, "(2*alpha - j)_n", "-1", 2),
            # (2*alpha - j)_n = (-2)_n vanishes at n = 3, before block (0, 0) is reached
            ("3.3", "1", 1, 4, False, "(2*alpha - j)_n", "-2", 3),
            ("3.3", "1", 1, 4, True, "(2*alpha - j)_n", "-2", 3),
        ]),
    )
    def test_degenerate_alpha_raises(self, tag, alpha, i, j, printed_form, expr, value, index):
        params = IdentityParams(alpha=Fraction(alpha), i=i, j=j, printed_form=printed_form)
        with pytest.raises(DegenerateParameterError) as err:
            get(tag).build_rhs(params)
        assert (err.value.expr, err.value.value, err.value.index) == (expr, Fraction(value), index)

    @pytest.mark.parametrize("tag, printed_form", [("3.1", False), ("3.2", False), ("3.3", False), ("3.3", True)])
    def test_each_summand_is_formed_once(self, monkeypatch, tag, printed_form):
        # one call per factor, not one per pair or per summand: the first
        # factor, then the second, as a 2.x build forms its expansions, each
        # call giving all its shift + 1 summands
        formed = []
        real = identities._equal_param_factor

        def counted(alpha, shift, raised, names):
            den, summands = real(alpha, shift, raised, names)
            formed.append((names[1], len(summands)))
            return den, summands

        monkeypatch.setattr(identities, "_equal_param_factor", counted)
        get(tag).build_rhs(IdentityParams(alpha=A, i=4, j=6, printed_form=printed_form))
        assert formed == [("m", 5), ("n", 7)]

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["PP", "MM", "PM"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_two_parameter_form_at_beta_alpha(self, alpha, i, j, variant, printed_form):
        # only the mixed variant reads the printed form; the others refuse it
        params = IdentityParams(alpha=alpha, i=i, j=j, printed_form=printed_form and variant == "PM")
        assume(not check_admissible(EQUAL_PARAM_TAG[variant], params))
        two_param = get(PRODUCT_TAG[variant]).build_rhs(params._replace(beta=alpha))
        assert get(EQUAL_PARAM_TAG[variant]).build_rhs(params) == two_param


def term_ratio_factor(spec, arg, cap):
    """``pFq(spec; arg)`` up to ``x**cap``, one ``Fraction`` at a time by
    the term ratio: coefficient k of the series in t, times ``c**k`` on
    degree k for ``arg = c*x`` and times ``c**-k`` on degree 2k for
    ``arg = x**2/c``. It shares nothing with the pFq kernel."""
    stride = 2 if arg.squared else 1
    r = Fraction(1, arg.c) if arg.squared else Fraction(arg.c)
    terms = [Fraction(1)]
    for k in range(cap // stride):
        ratio = r / (k + 1)
        for a in spec.upper:
            ratio *= a + k
        for b in spec.lower:
            ratio /= b + k
        terms.append(terms[-1] * ratio)
    coeffs = [Fraction(0)] * (cap + 1)
    coeffs[::stride] = terms
    return TruncatedSeries(cap, coeffs)


def declared_terms(side):
    """A side's terms as its declaration states them: a raw product is one
    unweighted term, a :class:`Side` its own terms, and a product side
    block (m, n) by block, in m-major order without zero weights, each the
    1.11 block of ``bailey_product_spec(rho + m, sigma + n)``."""
    if isinstance(side, RawProduct):
        return [Term(side.factors)]
    if isinstance(side, Side):
        return list(side.terms)
    (rho, first), (sigma, second) = fraction_weights(side.first), fraction_weights(side.second)
    return [
        Term(((bailey_product_spec(rho + m, sigma + n), SQ4),), w1 * w2, m + n)
        for m, w1 in enumerate(first)
        for n, w2 in enumerate(second)
        if w1 * w2 != 0
    ]


def reference_side_series(side, cap):
    """The side built term by term from TruncatedSeries operations: each
    factor from its term ratio (:func:`term_ratio_factor`), each block
    multiplied, shifted, scaled and added on its own, and a raw product's
    sum times ``e**(eps*x)``, whose coefficients ``eps**k / k!`` are exact
    for any rational eps. No right side has an exponential."""
    total = TruncatedSeries.from_integers(cap, 1, [0] * (cap + 1))
    for term in declared_terms(side):
        need = cap - term.power
        if need < 0:
            continue
        block = None
        for spec, arg in term.factors:
            factor = term_ratio_factor(spec, arg, need)
            block = factor if block is None else block * factor
        total = total + block.shift(term.power, cap).scale(term.weight)
    if isinstance(side, RawProduct) and side.exp:
        eps = Fraction(side.exp)
        total = TruncatedSeries(cap, [eps**k / math.factorial(k) for k in range(cap + 1)]) * total
    return total


SQ4 = Arg(4, squared=True)
SQ16 = Arg(16, squared=True)


def per_block_product_side(variant, params):
    """The 2.x right side as a plain Side, one 1.11 block per nonzero
    weight: ``w1 * w2`` (times ``(-j)_m / (-j)_n`` in the printed form) at
    power ``m + n``, each block built by ``bailey_product_spec`` on its own."""
    rho, first = fraction_weights(_expansion_terms(params.alpha, params.i, RAISED[variant][0]))
    sigma, second = fraction_weights(_expansion_terms(params.beta, params.j, RAISED[variant][1], ("beta", "j", "n")))
    terms = []
    for m, w1 in enumerate(first):
        for n, w2 in enumerate(second):
            weight = w1 * w2
            if params.printed_form:
                weight = weight * pochhammer(Fraction(-params.j), m) / pochhammer(Fraction(-params.j), n)
            if weight != 0:
                terms.append(Term(((bailey_product_spec(rho + m, sigma + n), SQ4),), weight, m + n))
    return Side(tuple(terms))


def equal_param_part(alpha, shift, k, raised, names):
    """Summand k of one 3.x factor without its ``(-shift)_k``, from
    ``pochhammer`` at each k: with ``d = 0`` raised and ``d = shift``
    lowered, ``(+-1)**k (2*alpha - 2d - 1)_k / ((2*alpha +- shift)_k
    (alpha - d - 1/2)_k k! 4**k)``, and its block offset ``k - d``. A
    denominator factor that vanishes raises, ``(2*alpha +- shift)_k`` first."""
    s, index = names
    d = 0 if raised else shift
    denominators = [
        (f"(2*alpha {'+' if raised else '-'} {s})_{index}", 2 * alpha + (shift if raised else -shift)),
        (f"(alpha{'' if raised else f' - {s}'} - 1/2)_{index}", alpha - d - Fraction(1, 2)),
    ]
    den = math.factorial(k) * 4**k
    for expr, base in denominators:
        value = pochhammer(base, k)
        if value == 0:
            raise DegenerateParameterError(expr, base, int(-base) + 1)
        den *= value
    sign = 1 if raised or k % 2 == 0 else -1
    return sign * pochhammer(2 * alpha - 2 * d - 1, k) / den, k - d


def per_pair_equal_param_side(variant, params):
    """The 3.x right side with one block per pair (m, n), in m-major order:
    the first factor's parts, then the second's, each formed on its own by
    :func:`equal_param_part`, then for each pair the weight ``(-i)_m (-j)_n``
    (``(-j)_m`` in the printed form) times both parts, and the block built
    before its weight is tested, so a degenerate block raises even where it
    vanishes."""
    first_raised, second_raised = RAISED[variant]
    alpha, i, j = params.alpha, params.i, params.j
    firsts = [equal_param_part(alpha, i, m, first_raised, ("i", "m")) for m in range(i + 1)]
    seconds = [equal_param_part(alpha, j, n, second_raised, ("j", "n")) for n in range(j + 1)]
    terms = []
    for m, (first, a) in enumerate(firsts):
        for n, (second, b) in enumerate(seconds):
            weight = pochhammer(Fraction(-i), m) * pochhammer(Fraction(-j), m if params.printed_form else n) * first * second
            s = 2 * alpha + a + b
            spec = HypSpec(upper=((s + 1) / 2, s / 2), lower=(alpha + a + Fraction(1, 2), alpha + b + Fraction(1, 2), s))
            if weight != 0:
                terms.append(Term(((spec, SQ4),), weight, m + n))
    return Side(tuple(terms))


def canonical(den, nums):
    """Integer lanes in canonical form: ``den > 0`` and ``gcd(den, *nums) == 1``."""
    return den > 0 and math.gcd(den, *nums) == 1


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(0, 12),
    st.integers(0, 12),
    st.booleans(),
)
# (2*alpha + i)_m vanishes at m = 2; a raised (2*alpha - 1)_m = (-3)_m drops
# the weights from m = 4 on; a lowered pair at the largest shifts
@example(Fraction(-5, 2), B, 4, 3, True)
@example(Fraction(-1), B, 6, 5, True)
@example(A, B, 12, 12, False)
@settings(max_examples=150, deadline=None)
def test_every_factor_is_canonical_lanes_of_its_pochhammer_form(alpha, beta, i, j, raised):
    """The three producers of a product side's lanes, ``_expansion_terms``,
    ``_equal_param_factor`` and ``_printed``, give canonical lanes whose
    ``nums[m] / den`` are the weights ``pochhammer`` gives at each m, or
    raise where that form has a vanishing denominator, as it does."""
    weights = [pochhammer_weight(alpha, i, m, raised) for m in range(i + 1)]
    if None in weights:
        with pytest.raises(DegenerateParameterError):
            _expansion_terms(alpha, i, raised)
    else:
        _, den, nums = _expansion_terms(alpha, i, raised)
        assert canonical(den, nums)
        assert [Fraction(num, den) for num in nums] == [w for w in weights if w]  # its zeros are trailing
    names = ("i", "m")
    try:
        parts = [equal_param_part(alpha, i, k, raised, names)[0] for k in range(i + 1)]
    except DegenerateParameterError as err:
        with pytest.raises(DegenerateParameterError) as got:
            identities._equal_param_factor(alpha, i, raised, names)
        assert (got.value.expr, got.value.value, got.value.index) == (err.expr, err.value, err.index)
    else:
        den, nums = identities._equal_param_factor(alpha, i, raised, names)
        assert canonical(den, nums)
        assert [Fraction(num, den) for num in nums] == [pochhammer(Fraction(-i), k) * part for k, part in enumerate(parts)]
    # the printed reading of both mixed right sides: (-j)_m on the first
    # weights, which drop past m = j, and 1 / (-j)_n on the second
    params = IdentityParams(alpha=alpha, beta=beta, i=i, j=j)
    for build in (_product_rhs, _equal_param_rhs):
        try:
            side = build(RAISED["PM"], params)
        except DegenerateParameterError:
            continue
        (rho, v), (sigma, w) = fraction_weights(side.first), fraction_weights(side.second)
        edited = _printed(side, j)
        assert all(canonical(den, nums) for _, den, nums in edited)
        shift = Fraction(-j)
        assert fraction_weights(edited.first) == (rho, [c * pochhammer(shift, m) for m, c in enumerate(v[: j + 1])])
        assert fraction_weights(edited.second) == (sigma, [c / pochhammer(shift, n) for n, c in enumerate(w)])


@pytest.mark.parametrize("alpha, i, j", [(A, 3, 5), (Fraction(-5, 11), 4, 2), (Fraction(7, 3), 0, 6)])
def test_one_factor_by_two_routes_reads_one_shift_table(alpha, i, j):
    """From cleared memos, 2.1 at beta = alpha builds one shift table per
    factor, and 3.1 at the same point, whose factors have the same values
    by their own term ratio, builds none: a table's key is its factor's
    value, canonical lanes, however the lanes were formed."""
    identities._clear_memos()
    get("2.1").build_rhs(IdentityParams(alpha=alpha, beta=alpha, i=i, j=j))
    built = KEPT.cache_info()["shift tables"]
    assert built.misses == 2
    get("3.1").build_rhs(IdentityParams(alpha=alpha, i=i, j=j))
    read = KEPT.cache_info()["shift tables"]
    assert (read.misses, read.hits) == (built.misses, built.hits + 2)


def build_outcome(build):
    """A build's ``(cap, den, nums)``, or the exception it raises as its type
    name, message, ``expr``, ``value`` and ``index``."""
    try:
        series = build()
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return (type(error).__name__, str(error), *(getattr(error, key, None) for key in ("expr", "value", "index")))
    return series.cap, series.den, series.nums


TERMINATING = HypSpec((Fraction(-3), A), (B, Fraction(1, 5)))
EXPS = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]
# right-side terms: one factor each, weighted, at a power
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
}
# a terminating factor inside the raw-product domain, for the left sides
TERMINATING_1F1 = HypSpec((Fraction(-3),), (Fraction(1, 5),))
# left sides: raw products of c*x factors, the lone ones among them
RAW_FACTORS = {
    "two_factors": (
        (HypSpec((A,), (2 * A,)), Arg(1)),
        (HypSpec((B,), (2 * B,)), Arg(-1)),
    ),
    "two_factors_mixed_args": (
        (HypSpec((), (A,)), Arg(-2)),
        (HypSpec((A,), (B,)), Arg(4)),
    ),
    "lone_x": ((HypSpec((A,), (2 * A,)), Arg(1)),),
    "lone_neg_3x": ((HypSpec((A,), (Fraction(7, 3),)), Arg(-3)),),
    "lone_0f1_2x": ((HypSpec((), (B,)), Arg(2)),),
    "lone_terminating": ((TERMINATING_1F1, Arg(-1)),),
}
# right sides, which carry no exponential: one term each, all of them and none
ORACLE_SIDES = {name: Side((term,)) for name, term in ORACLE_TERMS.items()}
ORACLE_SIDES["all"] = Side(tuple(ORACLE_TERMS.values()))
ORACLE_SIDES["empty"] = Side(())
# every oracle side, a right side as declared and a left side at each exponential
ORACLE_CASES = [pytest.param(side, id=f"{name}-0") for name, side in ORACLE_SIDES.items()] + [
    pytest.param(RawProduct(factors, exp), id=f"{name}-{exp}") for name, factors in RAW_FACTORS.items() for exp in EXPS
]
# pairs taken from their differential system: arguments c*x at c = 1, -1,
# 2, -3 and 4, and terminating factors
PRODUCT_FACTORS = {
    "two_factors": (
        (HypSpec((A,), (2 * A,)), Arg(2)),
        (HypSpec((B,), (A + 1,)), Arg(-3)),
    ),
    "mixed_types": (
        (HypSpec((A,), (B,)), Arg(1)),
        (HypSpec((), (2 * B,)), Arg(-1)),
    ),
    "terminating_factors": (
        (TERMINATING_1F1, Arg(-3)),
        (HypSpec((Fraction(-2),), (B,)), Arg(2)),
    ),
    "square": ((HypSpec((A,), (Fraction(7, 3),)), Arg(-3)),) * 2,
    "mirror": (
        (HypSpec((A,), (2 * A,)), Arg(2)),
        (HypSpec((A,), (2 * A,)), Arg(-2)),
    ),
    "terminating_square": ((TERMINATING_1F1, Arg(4)),) * 2,
    # lower parameters that sum to a nonpositive integer -n: the pivot
    # d + b + b' of the pair's fourth equation vanishes at d = n
    "resonant_sum_0": ((HypSpec((A,), (Fraction(1, 3),)), Arg(1)), (HypSpec((B,), (Fraction(-1, 3),)), Arg(-2))),
    "resonant_sum_-1": ((HypSpec((A,), (Fraction(-1, 2),)), Arg(2)), (HypSpec((), (Fraction(-1, 2),)), Arg(-1))),
    "resonant_sum_-2": (
        (HypSpec((Fraction(-3, 4),), (Fraction(-3, 2),)), Arg(1)),
        (HypSpec((Fraction(-3, 4),), (Fraction(-1, 2),)), Arg(1)),
    ),
    "resonant_sum_-7": ((HypSpec((A,), (Fraction(-7, 2),)), Arg(-3)), (HypSpec((), (Fraction(-7, 2),)), Arg(3))),
}


class TestSideSeries:
    @pytest.mark.parametrize("side", ORACLE_CASES)
    def test_matches_term_by_term_reference(self, side):
        # caps 0..9 put the powers 0, 1, 2, 3 and 9 below, at and past the
        # cap; power 12 is past every cap
        for cap in range(10):
            assert _side_series(side, cap) == reference_side_series(side, cap), cap

    @pytest.mark.parametrize("name", PRODUCT_FACTORS)
    def test_products_match_cauchy_product_reference(self, name):
        # the reference multiplies the factors, and then the exponential,
        # with TruncatedSeries.__mul__
        for exp in EXPS:
            side = RawProduct(PRODUCT_FACTORS[name], exp)
            for cap in [*range(41), 96]:
                assert _side_series(side, cap) == reference_side_series(side, cap), (exp, cap)

    def test_the_pair_recurrence_ends_near_the_reduced_denominator(self):
        """1.10's left side at (3/7, 2/5) to cap 96, from integer ratios: the
        running denominator that ``left._pair_rows`` leaves has 837 bits,
        against 835 for the canonical series, as its docstring states."""
        side = RawProduct(((HypSpec((A,), (2 * A,)), Arg(1)), (HypSpec((B,), (2 * B,)), Arg(1))), -1)
        odes = [left._factor_ode(spec, arg.c) for spec, arg in side.factors]
        assert odes == [(1, (3, 7), (6, 7)), (1, (2, 5), (4, 5))]
        den, _ = _over_last(*left._pair_rows(*odes, (-1, 1), 96))
        assert den.bit_length() == 837
        assert _side_series(side, 96).den.bit_length() == 835
        assert _side_series(side, 96) == get("1.10").build_lhs(IdentityParams(alpha=A, beta=B, cap=96))

    def test_raw_product_refuses_a_squared_argument(self):
        factor = HypSpec((A,), (B,))
        with pytest.raises(ValueError, match="c\\*x arguments only"):
            RawProduct(((factor, Arg(1)), (factor, SQ4)))
        assert _float_terms(RawProduct(((factor, Arg(1)),), Fraction(-1, 2))) == (Term(((factor, Arg(1)),)),)

    @pytest.mark.parametrize(
        "factors, message",
        [
            ((), "one or two factors, got 0"),
            (((HypSpec((A,), (B,)), Arg(1)),) * 3, "one or two factors, got 3"),
            (((HypSpec((A, B), (Fraction(7, 3),)), Arg(-3)),), "0F1 and 1F1 factors only"),
            (((HypSpec((A,), (B,)), Arg(1)), (TERMINATING, Arg(4))), "0F1 and 1F1 factors only"),
        ],
        ids=["none", "three", "2F1", "2F2"],
    )
    def test_raw_product_refuses_what_has_no_second_order_equation(self, factors, message):
        with pytest.raises(ValueError, match=message):
            RawProduct(factors, -1)

    @pytest.mark.parametrize("exp", [Fraction(2, 3), Fraction(-5, 4)], ids=str)
    @pytest.mark.parametrize("factors", [*RAW_FACTORS.values(), *PRODUCT_FACTORS.values()], ids=[*RAW_FACTORS, *PRODUCT_FACTORS])
    def test_raw_product_at_any_rational_exponential(self, factors, exp):
        side = RawProduct(factors, exp)
        for cap in range(21):
            assert _side_series(side, cap) == reference_side_series(side, cap), cap

    @pytest.mark.parametrize("exp", [1, -1, Fraction(1, 2), Fraction(-1, 2)], ids=str)
    @pytest.mark.parametrize("cap", [24, 48, 96])
    def test_exponential_at_benchmark_caps(self, cap, exp):
        # every exponential is a left side's: 1.10's raw product, the shape
        # of every 2.x and 3.x left side, at the benchmarks' caps
        side = RawProduct(((HypSpec((A,), (2 * A,)), Arg(1)), (HypSpec((B,), (2 * B + 3,)), Arg(1))), exp)
        assert _side_series(side, cap) == reference_side_series(side, cap)

    @pytest.mark.parametrize("variant, printed_form", [("PP", False), ("MM", False), ("PM", False), ("PM", True)])
    def test_product_right_sides(self, variant, printed_form):
        # the reference expands every block on its own, so it shares nothing
        # along a diagonal; caps below i + j cut whole diagonals off. At
        # alpha = 0 a raised first expansion drops its weights from m = 2 on,
        # as (2*alpha - 1)_m = (-1)_m vanishes there
        for alpha in (A, Fraction(0)):
            for i, j in [*itertools.product(range(7), repeat=2), (12, 12)]:
                params = IdentityParams(alpha=alpha, beta=B, i=i, j=j, printed_form=printed_form)
                side, reference = _product_rhs(RAISED[variant], params), per_block_product_side(variant, params)
                if printed_form:
                    side = _printed(side, j)
                for cap in [*range(i + j + 1), params.effective_cap]:
                    assert _side_series(side, cap) == reference_side_series(reference, cap), (alpha, i, j, cap)

    @pytest.mark.parametrize("variant, printed_form", [("PP", False), ("MM", False), ("PM", False), ("PM", True)])
    def test_equal_param_right_sides(self, variant, printed_form):
        # each factor's summands are listed once per build, by the term
        # ratio; the per-pair reference forms each from pochhammer on its
        # own and builds each block on its own, and must give the same
        # series, or raise the same exception at the same point. In the
        # printed form, so must the default side edited by _printed
        define = get(EQUAL_PARAM_TAG[variant])

        def edited(params):
            return _side_series(_printed(_equal_param_rhs(RAISED[variant], params), params.j), params.effective_cap)

        for alpha in map(Fraction, ("3/7", "1", "0", "-1/2", "-1", "1/2", "3/2", "-7/4")):
            for i, j in [*itertools.product(range(5), repeat=2), (6, 6)]:
                for cap in (0, None):
                    params = IdentityParams(alpha=alpha, i=i, j=j, cap=cap, printed_form=printed_form)
                    want = build_outcome(lambda: _side_series(per_pair_equal_param_side(variant, params), params.effective_cap))
                    assert build_outcome(lambda: define.build_rhs(params)) == want, (alpha, i, j, cap)
                    if printed_form:
                        assert build_outcome(lambda: edited(params)) == want, (alpha, i, j, cap)

    @pytest.mark.parametrize("variant, printed_form", [("PP", False), ("MM", False), ("PM", False), ("PM", True)])
    def test_product_right_side_floats(self, variant, printed_form):
        rhs_float = get(PRODUCT_TAG[variant]).rhs_float
        for i, j in [(0, 0), (2, 1), (3, 4), (6, 6)]:
            params = IdentityParams(alpha=A, beta=B, i=i, j=j, printed_form=printed_form)
            reference = per_block_product_side(variant, params)
            assert rhs_float(params, DEFAULT_FLOAT_POINTS) == _side_floats(reference, DEFAULT_FLOAT_POINTS), (i, j)
            # the blocks' sums overflow a double at 1e6 and at -800, some
            # negative first; every overflow reads inf. The points beside
            # them are what a one-point call gives
            batch = rhs_float(params, (0.5, 1e6, -0.5, -800.0))
            assert batch[::2] == [*rhs_float(params, (0.5,)), *rhs_float(params, (-0.5,))], (i, j)
            assert batch[1::2] == [(math.inf, False)] * 2, (i, j)
            assert batch == _side_floats(reference, (0.5, 1e6, -0.5, -800.0)), (i, j)
            # the left side's e**(-x) underflows to 0.0 at 1e6 while its
            # factors' sums overflow, and inf * 0.0 must not read nan
            assert get(PRODUCT_TAG[variant]).lhs_float(params, (1e6,)) == [(math.inf, False)], (i, j)
        near, far = verify_identity(PRODUCT_TAG[variant], params, float_points=(0.5, 1e6)).float_residuals
        assert near.converged and math.isfinite(near.relative_error)
        assert (far.converged, far.relative_error) == (False, math.inf)
        # a plain side: at 1e6 the 1.9 product's sums overflow, and so does
        # its right side's sum, both to inf
        params = IdentityParams(alpha=A)
        for side_float in (get("1.9").lhs_float, get("1.9").rhs_float):
            assert side_float(params, (1e6,)) == [(math.inf, False)]
            assert side_float(params, (0.5, 1e6, -0.5))[::2] == [*side_float(params, (0.5,)), *side_float(params, (-0.5,))]
        # an overflowed sum times an e**(exp*x) that underflowed to 0.0, or
        # overflows of both signs, read as an overflow too
        params = IdentityParams(alpha=A, beta=B, i=2)
        overflowing = [("1.1", "lhs", 800.0), ("1.1", "lhs", 1e6), ("1.2", "lhs", 1e6), ("1.5", "lhs", 1e6),
                       ("1.5", "rhs", -800.0), ("1.9", "lhs", 1e6), ("1.9", "rhs", -800.0), ("1.17", "rhs", 1e6)]
        for tag, side, x in overflowing:
            assert getattr(get(tag), f"{side}_float")(params, (x,)) == [(math.inf, False)], (tag, side, x)
        # a nan point is no overflow: it stays nan
        [(value, ok)] = get("1.1").lhs_float(params, (math.nan,))
        assert math.isnan(value) and not ok


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


def float_sum_points(seed: int, count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded (alpha, beta, gamma): integers, half-integers and other
    denominators, so that terminating, pole and generic points all occur."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 7, 12, 35))) for _ in range(3))
            for _ in range(count)]


class TestFloatSumDerivation:
    """Each float-sum entry's spec, Gamma lists and requirement values
    against the textbook formulas, written out here in Fraction arithmetic.

    The entry's own collaborators are replaced by recorders: the sum and the
    Gamma ratio record their arguments, the admissibility conditions their
    expression and value."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = {"spec": [], "gammas": [], "checks": []}

        def pfq_eval_float(spec, x, tol, max_terms):
            seen["spec"].append((spec.upper, spec.lower))
            return FloatSum(1.0, True, 1, 1.0, 0.0)

        def gamma_ratio(numerators, denominators):
            seen["gammas"].append((list(numerators), list(denominators)))
            return 1.0

        def recorder(kind):
            return lambda expr, value: seen["checks"].append((kind, expr, value))

        monkeypatch.setattr(identities, "pfq_eval_float", pfq_eval_float)
        monkeypatch.setattr(identities, "_gamma_ratio", gamma_ratio)
        for kind in ("lower", "pole", "positive"):
            monkeypatch.setattr(identities, f"check_{kind}", recorder(kind))
        return seen

    @staticmethod
    def derived(tag, params, seen):
        """The entry's spec (or the refusal of a lower parameter), its Gamma
        lists (None after a refusal) and its conditions, each value exact."""
        define = get(tag)
        define.requirements(params)
        try:
            define.scalar_float(params)
        except DegenerateParameterError as error:
            return ("raises", error.expr, error.value, error.index), None, seen["checks"]
        [spec], [gammas], checks = seen["spec"], seen["gammas"], seen["checks"]
        for value in [*spec[0], *spec[1], *gammas[0], *gammas[1], *(value for _, _, value in checks)]:
            assert type(value) is Fraction, value
        return spec, gammas, checks

    @staticmethod
    def textbook_spec(upper, lower):
        try:
            spec = HypSpec(upper, lower)
        except DegenerateParameterError as error:
            return ("raises", error.expr, error.value, error.index)
        return spec.upper, spec.lower

    @pytest.mark.parametrize("a, b, c", float_sum_points(seed=14, count=60), ids=str)
    def test_gauss_second(self, a, b, c, seen):
        spec, gammas, checks = self.derived("1.4", IdentityParams(alpha=a, beta=b), seen)
        s = (a + b + 1) / 2
        assert spec == self.textbook_spec((a, b), (s,))
        assert gammas == (None if spec[0] == "raises" else ([Fraction(1, 2), s], [(a + 1) / 2, (b + 1) / 2]))
        assert checks == [("lower", "(alpha + beta + 1)/2", s), ("pole", "1/2", Fraction(1, 2))]

    @pytest.mark.parametrize("a, b, c", float_sum_points(seed=18, count=120), ids=str)
    def test_watson(self, a, b, c, seen):
        spec, gammas, checks = self.derived("1.8", IdentityParams(alpha=a, beta=b, gamma=c), seen)
        s = (a + b + 1) / 2
        half = Fraction(1, 2)
        assert spec == self.textbook_spec((a, b, c), (s, 2 * c))
        assert gammas == (None if spec[0] == "raises" else (
            [half, c + half, s, c - (a + b) / 2 + half],
            [(a + 1) / 2, (b + 1) / 2, c - a / 2 + half, c - b / 2 + half],
        ))
        expected = [
            ("lower", "(alpha + beta + 1)/2", s),
            ("lower", "2*gamma", 2 * c),
            ("pole", "1/2", half),
            ("pole", "gamma + 1/2", c + half),
            ("pole", "gamma - (alpha + beta)/2 + 1/2", c - (a + b) / 2 + half),
        ]
        if not any(u.denominator == 1 and u <= 0 for u in (a, b, c)):
            expected.append(("positive", "2*gamma - alpha - beta + 1", 2 * c - a - b + 1))
        assert checks == expected

    def test_points_cover_every_kind(self):
        points = float_sum_points(seed=18, count=120)
        refused = [self.textbook_spec((a, b, c), ((a + b + 1) / 2, 2 * c))[0] == "raises" for a, b, c in points]
        assert any(refused) and not all(refused)  # a lower parameter at 0 or below
        assert any(a.denominator == 1 and a <= 0 for a, _, _ in points)  # terminating
        assert any((2 * c).denominator == 1 and c <= 0 for _, _, c in points)  # 2*gamma at 0 or below
        assert any((c + Fraction(1, 2)).denominator == 1 and c < 0 for _, _, c in points)  # Gamma(gamma + 1/2) pole
        assert any(2 * c - a - b + 1 <= 0 for a, b, c in points)  # no convergence


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


@pytest.mark.parametrize(
    "tag, alpha, beta",
    [("1.6", "-1/4", None), ("1.9", "-1/4", None), ("1.12", "-3/4", None), ("1.10", "-3/4", "-3/4")],
)
def test_resonant_left_sides_at_cap_96(tag, alpha, beta):
    """Admissible points whose two lower parameters sum to -1, -1, -2 and -3:
    each left side takes one degree of ``E phi' psi'`` from its definition."""
    params = IdentityParams(alpha=Fraction(alpha), beta=beta and Fraction(beta), cap=96)
    assert verify_identity(tag, params).status == "exact_match"


SERIES_TAGS = [d.tag for d in catalog() if d.kind == "series"]
TRUNCATION_POINTS = [
    dict(alpha=A, beta=B, i=3, j=2),
    # printed_form only changes the mixed-variant right sides, and only
    # 2.3 and 3.3 read it
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
    # a shift or a printed form the entry does not read is refused
    point = {**point, **{shift: 0 for shift in ("i", "j") if shift not in define.uses}}
    point["printed_form"] = point.get("printed_form", False) and tag in ("2.3", "3.3")
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
    # beta = alpha and i = j: the left sides of 1.10, 1.11, 2.1, 2.2, 3.1
    # and 3.2 are squares, and 1.7's a mirror
    (A, A, 2, 2),
    (Fraction(-5, 11), Fraction(-5, 11), 3, 3),
]


@pytest.mark.parametrize(
    "tag, side",
    [pytest.param(tag, "lhs", id=tag) for tag in SERIES_TAGS]
    + [pytest.param(tag, "rhs", id=f"{tag}-rhs") for tag in SERIES_TAGS],
)
def test_left_sides_match_term_by_term_reference(tag, side, monkeypatch):
    """Every catalog left side, products of two factors included, and every
    right side equal the reference built from their own side declaration,
    at the default cap and at the benchmark's cap 96. A 2.x or 3.x right
    side's reference takes its blocks from ``bailey_product_spec``."""
    built_sides = []
    real = identities._side_series

    def recording(side, cap):
        built_sides.append((side, cap))
        return real(side, cap)

    monkeypatch.setattr(identities, "_side_series", recording)
    for alpha, beta, i, j in LEFT_SIDE_POINTS:
        for cap in (None, 96):
            built = getattr(get(tag), f"build_{side}")(IdentityParams(alpha=alpha, beta=beta, i=i, j=j, cap=cap))
            assert built == reference_side_series(*built_sides.pop()), (alpha, beta, i, j, cap)


# the entries the paper states as e**x times their right side, which the
# catalog checks as e**(-x) times the raw product against that right side
PAPER_EXP_TAGS = ["1.5", "1.9", "1.10", "1.12", "1.13", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3"]


def seeded_points(tag, rng, count=3):
    """``count`` admissible points of entry ``tag`` drawn from ``rng``:
    alpha and beta rationals p/q with |p| <= 40 and q <= 9, shifts up to 4."""
    define = get(tag)
    found = []
    while len(found) < count:
        point = {"alpha": Fraction(rng.randint(-40, 40), rng.randint(1, 9))}
        point.update({name: Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for name in ("beta",) if name in define.uses})
        point.update({name: rng.randint(0, 4) for name in ("i", "j") if name in define.uses})
        params = IdentityParams(**point)
        if not check_admissible(tag, params):
            found.append(params)
    return found


def declared_left_side(define, params, monkeypatch):
    """The :class:`RawProduct` that ``define.build_lhs(params)`` builds."""
    declared = []
    real = identities._side_series
    monkeypatch.setattr(identities, "_side_series", lambda side, cap: declared.append(side) or real(side, cap))
    define.build_lhs(params)
    monkeypatch.undo()
    [side] = declared
    return side


@pytest.mark.parametrize("tag", PAPER_EXP_TAGS)
def test_the_papers_orientation_holds_exactly(tag, monkeypatch):
    """``e**x`` times the right side is the raw product with no exponential,
    exactly, at three seeded points and caps 0, the default and 96: the
    paper's form of the identity, by ``exp_series`` and the Cauchy product,
    beside the catalog's ``e**(-x)`` form, which the left route builds."""
    define = get(tag)
    for params in seeded_points(tag, random.Random(tag)):
        lhs = declared_left_side(define, params, monkeypatch)
        assert lhs.exp == -1
        for given in (0, None, 96):
            point = params._replace(cap=given)
            cap = point.effective_cap
            paper = exp_series(cap) * define.build_rhs(point)
            assert paper == _side_series(RawProduct(lhs.factors), cap), (params, cap)


def mpmath_left_side(mpmath, side, x):
    """A raw product times its exponential at x, by mpmath at its working precision."""
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    x = mpmath.mpf(x)
    value = mpmath.exp(mp(Fraction(side.exp)) * x)
    for spec, arg in side.factors:
        at = arg.c * x
        value *= mpmath.hyp1f1(mp(spec.upper[0]), mp(spec.lower[0]), at) if spec.upper else mpmath.hyp0f1(mp(spec.lower[0]), at)
    return value


# The bounds are the worst errors measured at these draws, times about
# seven and five, and cancellation sets them. On the left, 1F1(a; b; c*x)
# alternates at negative c*x while e**(-x) grows: 1.5 at alpha 32 and
# x = -8 reads 1.4e-10, 3.2 and 3.3 1.1e-10 and 9.2e-11. On the right the
# 2F3 blocks of 3.2 at alpha 23/9, i, j = 4, 1 and x = -8 read 1.8e-11,
# after which the worst is 9.7e-14. Elsewhere the right sides reach more:
# 2.1 at alpha -16/3, beta -10/9, i, j = 2, 3 and x = 6.974 reads 1.6e-9,
# where its weights alternate.
FLOAT_ERROR_BOUNDS = {"lhs": 1e-9, "rhs": 1e-10}


@pytest.mark.parametrize("tag", PAPER_EXP_TAGS)
def test_floats_of_the_restated_sides_match_mpmath(tag, monkeypatch):
    """Both float sides of each entry that the paper states with ``e**x``,
    at three seeded points, at the default float points and three seeded
    x, against the left side at 30 digits (the identity holds exactly, so
    it is the value of both)."""
    mpmath = pytest.importorskip("mpmath")
    define = get(tag)
    rng = random.Random(f"{tag} floats")
    xs = (*DEFAULT_FLOAT_POINTS, *[round(rng.uniform(-8, 8), 3) for _ in range(3)])
    for params in seeded_points(tag, rng):
        lhs = declared_left_side(define, params, monkeypatch)
        with mpmath.workdps(30):
            exact = [mpmath_left_side(mpmath, lhs, x) for x in xs]
            for side in ("lhs", "rhs"):
                for x, want, (value, converged) in zip(xs, exact, getattr(define, f"{side}_float")(params, xs)):
                    assert converged, (side, params, x)
                    error = float(abs((mpmath.mpf(value) - want) / want))
                    assert error <= FLOAT_ERROR_BOUNDS[side], (side, params, x, error)


KERNEL_POINTS = [(A, B), (Fraction(-11, 7), Fraction(-13, 5)), (Fraction(4, 11), Fraction(6, 13))]


def recorded_right_side_terms(name, alpha, beta, caps, monkeypatch, i):
    """``(call, den, canonical den)`` of every call of ``right.<name>``
    that the catalog's right sides make at shift i, j = 3 and the given caps."""
    built = []
    real = getattr(right, name)

    def recording(*args):
        den, nums = real(*args)
        built.append((args, den, TruncatedSeries.from_integers(len(nums) - 1, den, nums).den))
        return den, nums

    monkeypatch.setattr(right, name, recording)
    for tag in SERIES_TAGS:
        define = get(tag)
        point = {shift: value for shift, value in (("i", i), ("j", 3)) if shift in define.uses}
        for cap in caps:
            params = IdentityParams(alpha=alpha, beta=beta, cap=cap, **point)
            if not check_admissible(tag, params):
                define.build_rhs(params)
    return built


@pytest.mark.parametrize("alpha, beta", KERNEL_POINTS, ids=str)
def test_the_kernel_reduces_as_it_goes(alpha, beta, monkeypatch):
    """Every right-side term the pFq kernel builds, at i = 20, j = 3 and caps
    16, 48 and 96, comes over exactly the canonical denominator: the kernel
    keeps its integers in lowest terms step by step, not only after its
    last step. Most of the terms are the 0F1 blocks of 1.17 and of 1.18,
    more than 100 of them; the terms of 1.5, 1.9, 1.10, 1.12 and 1.13 come
    from the kernel too, and the 2.x and 3.x sides take the double sum
    instead."""
    built = recorded_right_side_terms("_pfq_integers", alpha, beta, (16, 48, 96), monkeypatch, i=20)
    assert len(built) > 100
    for call, den, canonical in built:
        assert abs(den) == canonical, (call, abs(den).bit_length(), canonical.bit_length())


# --------------------------------------------------------------------------
# route audit: what each side's build reaches in the package


def package_functions():
    """Every function and method written in the package's modules, every
    module that ``pkgutil`` finds in it, keyed by its code object, as
    ``module.qualname``. Lambdas, nested functions, comprehensions and the
    methods that ``typing.NamedTuple`` or ``dataclasses`` write for a class
    (their code is not in the module's file) are left out; a record's own
    validating ``__new__`` is in, and so is a memoized function, by the
    function it wraps."""
    names = {}
    for info in pkgutil.iter_modules(hypident.__path__):
        module = importlib.import_module(f"hypident.{info.name}")
        prefix = info.name
        found = list(vars(module).values())
        found += [attr for value in found if isinstance(value, type) for attr in vars(value).values()]
        for value in found:
            value = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            value = getattr(value, "__wrapped__", value)
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                names[code] = f"{prefix}.{value.__qualname__}"
    return names


PACKAGE_FUNCTIONS = package_functions()


def reached(build, params, callers_of=None):
    """The package functions that ``build(params)`` calls, recorded with
    ``sys.setprofile``, every memo cleared first so that a memoized
    function is called, not only looked up. Given ``callers_of``, a
    function's name, the functions that call that one instead."""
    seen = set()
    identities._clear_memos()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in PACKAGE_FUNCTIONS:
            name = PACKAGE_FUNCTIONS[frame.f_code]
            if callers_of is None:
                seen.add(name)
            elif name == callers_of:
                seen.add(PACKAGE_FUNCTIONS.get(frame.f_back.f_code))

    sys.setprofile(profile)
    try:
        build(params)
    finally:
        sys.setprofile(None)
    return seen


# the right sides' machinery, every function of the right route's module
# and the few it reaches elsewhere: no left side may reach any of it
RIGHT_SIDE_ONLY = {name for name in PACKAGE_FUNCTIONS.values() if name.startswith("right.")} | {
    "hyper._pfq_integers",
    "hyper.bailey_product_spec",
    "identities._expansion",
    "identities._expansion_terms",
    "identities._equal_param_factor",
    "identities._printed",
    "identities._lanes",
}
# all that a left side and a right side may share: the canonicaliser and
# the suffix products that bring a reduced recurrence to its last
# denominator, the side dispatch, the cap helpers and the factor declarations
SHARED = {
    "series.TruncatedSeries.from_integers",
    "series._set",
    "series._over_last",
    "identities._side_series",
    "identities.IdentityParams.effective_cap",
    "identities.default_cap",
    "hyper.HypSpec.__new__",
    "identities._f11",
    "identities._f01",
}
AUDIT_POINTS = [
    # at the default cap and at cap 96
    dict(alpha=A, beta=B, i=2, j=3),
    dict(alpha=A, beta=B, i=2, j=3, cap=96),
    # 1.10's lower parameters sum to -3: a resonant left side, at both caps
    dict(alpha=Fraction(-3, 4), beta=Fraction(-3, 4), i=0, j=0),
    dict(alpha=Fraction(-3, 4), beta=Fraction(-3, 4), i=0, j=0, cap=96),
]


@pytest.mark.parametrize("point", AUDIT_POINTS, ids=["generic", "cap_96", "resonant", "resonant_cap_96"])
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_the_two_routes_stay_two(tag, point):
    """A left side reaches none of the right sides' machinery, the two
    sides share only the functions in ``SHARED``, and a 3.x right side is
    written with alpha only, not composed from the 2.x expansions. A 2.x
    right side reaches the pFq kernel only through ``_expansion``, for the
    factors' weights, and a 3.x one reaches neither: only its summation,
    the double sum of 2F3 blocks, is shared with 2.x."""
    define = get(tag)
    point = {**point, **{shift: 0 for shift in ("i", "j") if shift not in define.uses}}
    params = IdentityParams(**point)
    if check_admissible(tag, params):
        pytest.skip(f"{tag} is inadmissible at {point}")
    lhs, rhs = reached(define.build_lhs, params), reached(define.build_rhs, params)
    assert "left._raw_product_series" in lhs and "identities._side_series" in rhs
    assert lhs & RIGHT_SIDE_ONLY == set() and rhs & RIGHT_SIDE_ONLY
    if tag == "1.10" and params.alpha < 0:
        assert "left._resonant_u4" in lhs
    if tag in ("1.5", "1.9", "1.10", "1.12", "1.13"):
        # the paper's e**x is the left side's e**(-x): the right side is its bare terms
        assert {"right._terms_integers", "hyper._pfq_integers"} <= rhs
    assert lhs & rhs <= SHARED, (lhs & rhs) - SHARED
    expansion = {"identities._expansion", "identities._expansion_terms"}
    if tag.startswith("2."):
        assert expansion <= rhs
        assert reached(define.build_rhs, params, callers_of="hyper._pfq_integers") == {"identities._expansion"}
    if tag.startswith("3."):
        assert (expansion | {"hyper._pfq_integers"}) & rhs == set()
        assert {"identities._equal_param_factor", "right._bailey_double_sum"} <= rhs
    assert "identities._printed" not in rhs


@pytest.mark.parametrize("point", AUDIT_POINTS[:2], ids=["generic", "cap_96"])
@pytest.mark.parametrize("tag", ["2.3", "3.3"])
def test_the_printed_reading_is_a_right_side_edit(tag, point):
    """Only 2.3 and 3.3 read the printed form, the other entries refuse it:
    their right side reaches ``_printed`` and their left side does not."""
    define = get(tag)
    params = IdentityParams(**{key: value for key, value in point.items() if key in (*define.uses, "cap")}, printed_form=True)
    assert not check_admissible(tag, params)
    lhs, rhs = reached(define.build_lhs, params), reached(define.build_rhs, params)
    assert "identities._printed" in rhs and lhs & RIGHT_SIDE_ONLY == set()
    assert lhs & rhs <= SHARED, (lhs & rhs) - SHARED


def package_imports(name):
    """The package modules that module ``name`` imports, read from its
    source, wherever in the file the import stands."""
    tree = ast.parse(Path(importlib.import_module(f"hypident.{name}").__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "hypident":
                    continue
                base = base.partition(".")[2]
            found |= {base.split(".")[0]} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("hypident.")}
    return found


def test_the_two_routes_are_two_modules():
    """The two-route rule as an import rule: the left route imports from the
    package only ``series`` and ``rationals``, so neither the pFq kernel nor
    any right-side code; the right route imports neither the left one nor
    the catalog; and only the catalog imports both."""
    imports = {info.name: package_imports(info.name) for info in pkgutil.iter_modules(hypident.__path__)}
    assert imports["left"] <= {"series", "rationals"}, imports["left"]
    assert imports["right"] & {"left", "identities"} == set(), imports["right"]
    assert [name for name, found in imports.items() if {"left", "right"} <= found] == ["identities"]


def per_term_side_floats(side, xs):
    """The float interpreter with no kept sums: every factor of every term
    summed afresh at every x, weight, power, product and exponential in the
    order ``_side_floats`` takes them, from the side's declared terms."""
    terms = declared_terms(side)
    values = []
    for x in xs:
        total = 0.0
        converged = True
        try:
            for term in terms:
                value = float(term.weight) * x**term.power
                for spec, (c, squared) in term.factors:
                    factor = pfq_eval_float(spec, x * x / c if squared else c * x, tol=identities._FLOAT_TOL,
                                            max_terms=identities._FLOAT_TERMS)
                    value *= factor.value
                    converged = converged and factor.converged
                total += value
            if isinstance(side, RawProduct) and side.exp:
                total *= math.exp(side.exp * x)
        except OverflowError:
            total, converged = math.inf, False
        if not math.isfinite(total) and not math.isnan(x):
            total = math.inf
        values.append((total, converged and math.isfinite(total)))
    return values


# zeros of both signs, a nan and a point where a factor overflows
EDGE_FLOAT_POINTS = (0.0, -0.0, math.nan, -800.0, 0.5, -0.0)


@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_side_floats_match_the_per_term_loop_bit_for_bit(tag, monkeypatch):
    """Keeping each distinct factor's sum changes no float: both sides of
    every series entry, by ``repr``, which round-trips a double."""
    define = get(tag)
    point = {name: value for name, value in (("beta", B), ("i", 2), ("j", 3)) if name in define.uses}
    params = IdentityParams(alpha=A, **point)
    for xs in (DEFAULT_FLOAT_POINTS, EDGE_FLOAT_POINTS):
        got = [define.lhs_float(params, xs), define.rhs_float(params, xs)]
        monkeypatch.setattr(identities, "_side_floats", per_term_side_floats)
        want = [define.lhs_float(params, xs), define.rhs_float(params, xs)]
        monkeypatch.undo()
        assert repr(got) == repr(want), xs


def test_a_weight_past_the_double_range_reads_inf_at_every_x():
    """A weight that no double holds is an overflow at every x, a NaN and
    the zeros included, as in the per-term loop, which meets it at each x."""
    big = Fraction(10**400, 3)
    side = Side((Term((identities._f11(A, 2 * A),)), Term((identities._f01(A + 1, Arg(4, True)),), big, 1)))
    assert _side_floats(side, EDGE_FLOAT_POINTS) == per_term_side_floats(side, EDGE_FLOAT_POINTS)
    assert _side_floats(side, EDGE_FLOAT_POINTS) == [(math.inf, False)] * len(EDGE_FLOAT_POINTS)


def random_float_side(rng):
    """A side drawn from ``rng``: a raw product of one or two factors at
    ``c*x`` times an exponential or not, or a ``Side`` of one to four
    weighted one-factor terms, a squared argument among them. One weight in
    five is past the double range."""
    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 9))

    def lower():
        value = rational()
        return value if not (value.denominator == 1 and value <= 0) else value + Fraction(1, 2)

    exp = rng.choice([0, 1, -1, Fraction(-1, 2), Fraction(1, 3)])
    if rng.random() < 0.3:
        factors = [(HypSpec([rational()] * rng.randint(0, 1), [lower()]), Arg(rng.choice([1, -1, 2])))
                   for _ in range(rng.randint(1, 2))]
        return RawProduct(tuple(factors), exp)
    terms = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(0, 2)
        spec = HypSpec([rational() for _ in range(size)], [lower() for _ in range(size + rng.randint(0, 1))])
        arg = rng.choice([Arg(), Arg(-1), Arg(2), Arg(4, True), Arg(16, True)])
        weight = Fraction(10**400, 7) if rng.random() < 0.2 else rational()
        terms.append(Term(((spec, arg),), weight, rng.randint(0, 3)))
    return Side(tuple(terms))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_factor_major_floats_match_the_per_x_loop(seed):
    """Summing each factor at the distinct arguments of every x, then the
    terms at each x, gives the per-x loop's floats and flags, by ``repr``:
    at points that hold each x with its negation (one argument of an
    ``x**2/c`` factor), a repeated x, zeros of both signs, an x whose power
    or exponential overflows and a NaN, after which nothing is kept; and
    again from kept sums."""
    rng = random.Random(seed)
    for _ in range(40):
        side = random_float_side(rng)
        half = [rng.choice([0.25, 0.5, 1.5, 3.0, 7.0, 1e120]) for _ in range(rng.randint(1, 3))]
        xs = [*half, *[-x for x in half], half[0], 0.0, -0.0]
        rng.shuffle(xs)
        identities._clear_memos()
        want = repr(per_term_side_floats(side, xs))
        assert repr(_side_floats(side, xs)) == want, side
        assert repr(_side_floats(side, xs)) == want, side
        identities._clear_memos()
        with_nan = [math.nan, *xs]
        assert repr(_side_floats(side, with_nan)) == repr(per_term_side_floats(side, with_nan)), side
        assert KEPT.cache_info()["float sums"].entries == 0


def test_a_product_side_sums_each_block_once_per_distinct_argument(monkeypatch):
    """Every block of 2.1 is a factor at ``x**2/4``, so the six symmetric
    default points give it three distinct arguments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return pfq_eval_float(*args, **kwargs)

    monkeypatch.setattr(identities, "pfq_eval_float", counting)
    i, j = 3, 3
    get("2.1").rhs_float(IdentityParams(alpha=A, beta=B, i=i, j=j), DEFAULT_FLOAT_POINTS)
    assert len(calls) == (i + 1) * (j + 1) * 3
    assert {x for _, x in calls} == {x * x / 4 for x in DEFAULT_FLOAT_POINTS}


def float_sides(tag, xs):
    """Both float sides of a series entry at one point of the catalog, by ``repr``."""
    define = get(tag)
    point = {name: value for name, value in (("beta", B), ("i", 2), ("j", 3)) if name in define.uses}
    params = IdentityParams(alpha=A, **point)
    return repr([define.lhs_float(params, xs), define.rhs_float(params, xs)])


def test_kept_float_sums_change_no_float():
    """Every series entry's float sides, at the default and the edge
    points, read the same from kept sums as from cleared memos, after the
    whole catalog warmed the memo in forward and in reverse order."""
    cold = {}
    for tag in SERIES_TAGS:
        identities._clear_memos()
        cold[tag] = [float_sides(tag, xs) for xs in (DEFAULT_FLOAT_POINTS, EDGE_FLOAT_POINTS)]
    for order in (SERIES_TAGS, SERIES_TAGS[::-1]):
        identities._clear_memos()
        warming = {tag: [float_sides(tag, xs) for xs in (DEFAULT_FLOAT_POINTS, EDGE_FLOAT_POINTS)] for tag in order}
        assert warming == cold
        for tag in order:
            assert [float_sides(tag, xs) for xs in (DEFAULT_FLOAT_POINTS, EDGE_FLOAT_POINTS)] == cold[tag], tag


@pytest.fixture
def summed(monkeypatch):
    """Every ``(spec, argument)`` the float route sums, in order."""
    calls = []

    def counting(spec, x, **kwargs):
        calls.append((spec, x))
        return pfq_eval_float(spec, x, **kwargs)

    monkeypatch.setattr(identities, "pfq_eval_float", counting)
    return calls


@pytest.mark.parametrize("tag", ["1.5", "1.6", "1.9"])
def test_a_left_side_of_one_repeated_factor_takes_six_sums(tag, summed):
    """1.5's ``1F1(alpha; 2*alpha; 2x)``, 1.6's mirrored pair and 1.9's
    squared pair are each one factor at six arguments: kept by value, the
    pair's two equal specs share their sums."""
    get(tag).lhs_float(IdentityParams(alpha=A), DEFAULT_FLOAT_POINTS)
    assert len(summed) == len(set(summed)) == 6
    assert {spec for spec, _ in summed} == {HypSpec((A,), (2 * A,))}


def test_the_entries_at_one_point_share_each_factor_sum(summed):
    """Both sides of 1.5, 1.6, 1.7, 1.9, 1.12 and 1.13 at one point sum
    every factor once per argument; ``1F1(alpha; 2*alpha; c*x)``, at
    c = 1, -1 and 2, takes twelve."""
    params = IdentityParams(alpha=A, beta=B)
    for tag in ("1.5", "1.6", "1.7", "1.9", "1.12", "1.13"):
        get(tag).lhs_float(params, DEFAULT_FLOAT_POINTS)
        get(tag).rhs_float(params, DEFAULT_FLOAT_POINTS)
    assert len(summed) == len(set(summed))
    kummer = sorted(x for spec, x in summed if spec == HypSpec((A,), (2 * A,)))
    assert kummer == sorted(c * x for c in (1, 2) for x in DEFAULT_FLOAT_POINTS)


def kept_sums(spec):
    """The store's sums of one spec, by argument: each entry holds the sums
    at its key's sorted distinct arguments, beside the bits they were charged."""
    key = identities._spec_key(spec)
    kept = [(rest[1], sums, bits) for (namespace, *rest), (sums, bits) in KEPT._kept.items()
            if namespace == "float sums" and rest[0] == key]
    assert all(bits == _bits(sums) for _, sums, bits in kept)
    return {x: value for args, sums, _ in kept for x, value in zip(args, sums, strict=True)}


def test_the_float_memo_is_bounded_and_cleared(summed):
    """``_clear_memos`` empties the store; a 2.1 side of 1,024 blocks at
    the six default points, three arguments a block, is one read of the
    store a block, and leaves its sums within the budget, the first
    dropped; a spec keeps every argument, so a second call sums nothing
    again; and a side at no points keeps ``()``, one entry of 0 bits."""
    n = 31
    assert (n + 1) ** 2 * 3 * _bits(FloatSum(0.0, True, 0, 0.0, 0.0)) > KEPT_BITS
    get("2.1").rhs_float(IdentityParams(alpha=A, beta=B, i=n, j=n), DEFAULT_FLOAT_POINTS)
    info = KEPT.cache_info()["float sums"]
    assert info.misses == (n + 1) ** 2 and len(summed) == 3 * info.misses
    assert info.misses > info.entries > 0 and info.bits <= KEPT_BITS
    identities._clear_memos()
    assert KEPT.cache_info()["float sums"] == (0, 0, 0, 0)

    xs = [k / 8 for k in range(1, 21)]
    lhs_float, params, spec = get("1.2").lhs_float, IdentityParams(alpha=A), HypSpec((A,), (2 * A,))
    del summed[:]
    first = lhs_float(params, xs)
    assert sorted(kept_sums(spec)) == xs and len(summed) == len(xs)
    assert lhs_float(params, xs) == first and len(summed) == len(xs)
    hits, misses, bits, entries = KEPT.cache_info()["float sums"]
    assert lhs_float(params, ()) == [] and KEPT.cache_info()["float sums"] == (hits, misses + 1, bits, entries + 1)


def test_clear_memos_empties_every_per_process_cache():
    """The package keeps one per-process cache besides the command line's
    one parser, ``cli._shared_parser``, and its one JSON writer,
    ``cli._json_writer``, each built once and holding no request's data:
    the store ``hyper.KEPT``, found by
    its ``cache_clear``. Once three verifies have filled each of its
    namespaces and set the ``_LAST_READ`` pairs of their entries, each
    reader's last params object and declaration, ``_clear_memos`` leaves
    every count at 0 and every pair ``(None, None)``, so that no cache
    outlives the ``cold_memos`` fixture or warms a "memos cleared" bench row."""
    caches = {}
    for info in pkgutil.iter_modules(hypident.__path__):
        module = importlib.import_module(f"hypident.{info.name}")
        caches.update({f"{info.name}.{name}": value for name, value in vars(module).items()
                       if hasattr(value, "cache_clear") and not isinstance(value, type)
                       and value.__module__ == module.__name__})
    assert caches.pop("cli._shared_parser") and caches.pop("cli._json_writer")
    assert caches == {"hyper.KEPT": KEPT}
    verify_identity("1.10", IdentityParams(alpha=A, beta=B))
    verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=2, j=2))
    verify_identity("1.17", IdentityParams(alpha=A, i=2))
    assert all(counts.entries for counts in KEPT.cache_info().values())
    assert sum(last != [(None, None)] for last in identities._LAST_READ) >= 6
    identities._clear_memos()
    assert KEPT.cache_info() == dict.fromkeys(KEPT.cache_info(), (0, 0, 0, 0))
    assert all(last == [(None, None)] for last in identities._LAST_READ)


def test_each_namespace_of_the_store_has_one_builder():
    """Every namespace that ``KEPT`` declares is the namespace of exactly
    one ``KEPT.memo`` builder in the package, found by its ``__wrapped__``
    and read off its closure: every kept value comes from a named builder."""
    builders = {}
    for info in pkgutil.iter_modules(hypident.__path__):
        module = importlib.import_module(f"hypident.{info.name}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and hasattr(value, "__wrapped__") and value.__module__ == module.__name__:
                closure = inspect.getclosurevars(value).nonlocals
                if closure.get("self") is KEPT:
                    builders.setdefault(closure["namespace"], []).append(f"{info.name}.{name}")
    assert builders == {"expansions": ["identities._expansion"], "shift tables": ["right._shift_table"],
                        "span rows": ["right._span_row"], "float sums": ["identities._factor_sums"]}
    assert sorted(builders) == sorted(KEPT.cache_info())


def test_a_nan_argument_leaves_no_sum(summed):
    """A NaN argument is summed each time and kept never, and neither are
    the arguments summed beside it."""
    lhs_float, params, spec = get("1.2").lhs_float, IdentityParams(alpha=A), HypSpec((A,), (2 * A,))
    for _ in range(2):
        ((value, converged),) = lhs_float(params, (math.nan,))
        assert math.isnan(value) and not converged
    assert len(summed) == 2 and kept_sums(spec) == {}
    (_, ok), (value, converged) = lhs_float(params, (0.5, math.nan))
    assert ok and math.isnan(value) and not converged
    assert len(summed) == 4 and kept_sums(spec) == {}


def test_threads_summing_float_sides_at_once_get_the_single_thread_values():
    """Four threads evaluate the float sides of six entries at once, each
    in its own order, switching every microsecond, so that the memo is
    filled, read and cleared under them: every value equals the one a
    single thread gets."""
    tags = ["1.5", "1.6", "1.9", "1.10", "2.1", "3.1"]
    alone = {}
    for tag in tags:
        identities._clear_memos()
        alone[tag] = float_sides(tag, DEFAULT_FLOAT_POINTS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    differ = 0
    try:
        for _ in range(20):
            identities._clear_memos()
            got = [None] * 4
            threads = [threading.Thread(target=lambda k=k: got.__setitem__(
                k, {tag: float_sides(tag, DEFAULT_FLOAT_POINTS) for tag in tags[k:] + tags[:k]})) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            differ += sum(values != alone for values in got)
    finally:
        sys.setswitchinterval(interval)
    assert differ == 0, f"{differ} of 80 threads differ"


@pytest.mark.parametrize("name", ["PP", "MM", "PM"])
def test_float_terms_list_each_product_block_from_bailey_product_spec(name):
    """The float route's blocks of every 2.x and 3.x right side, both
    readings of 2.3 and 3.3, are block for block the 1.11 block of
    ``bailey_product_spec(rho + m, sigma + n)`` at power ``m + n``."""
    raised = RAISED[name]
    for alpha, beta, i, j in [(A, B, 8, 8), (Fraction(-5, 11), Fraction(7, 13), 3, 5), (Fraction(-7, 3), Fraction(1, 4), 4, 2)]:
        for printed in (False, True) if name == "PM" else (False,):
            params = IdentityParams(alpha=alpha, beta=beta, i=i, j=j, printed_form=printed)
            for side in (_product_rhs(raised, params), _equal_param_rhs(raised, params)):
                side = _printed(side, j) if printed else side
                terms = _float_terms(side)
                assert terms == declared_terms(side), (alpha, beta, i, j, printed)
                assert all(type(p) is Fraction for term in terms for spec, _ in term.factors for p in spec.upper + spec.lower)


def degenerate_points(seed: int, count: int) -> list[tuple[Fraction, Fraction, Fraction, int, int, bool]]:
    """Seeded (alpha, beta, gamma, i, j, printed_form): each rational n/d with
    d in 1, 2, 4 and n/d in [-4, 1], so that the parameters, their halves,
    doubles, sums and shifts often land on a nonpositive integer; shifts up
    to 3."""
    rng = random.Random(seed)

    def value() -> Fraction:
        d = rng.choice((1, 2, 4))
        return Fraction(rng.randint(-4 * d, d), d)

    return [(value(), value(), value(), rng.randint(0, 3), rng.randint(0, 3), rng.random() < 0.5) for _ in range(count)]


def raises_degenerate(call, params) -> bool:
    try:
        call(params)
    except DegenerateParameterError:
        return True
    return False


@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_gate_refuses_exactly_where_a_builder_raises(tag):
    """The admissibility gate of every series entry, written beside its
    builders or, for the expansion family, read from the same derivation,
    refuses a point exactly where ``build_lhs`` or ``build_rhs`` raises
    ``DegenerateParameterError``, at cap 8."""
    define = get(tag)
    outcomes = set()
    for alpha, beta, gamma, i, j, printed in degenerate_points(seed=41, count=120):
        params = IdentityParams(alpha, beta if "beta" in define.uses else None, i if "i" in define.uses else 0,
                                j if "j" in define.uses else 0, cap=8, printed_form=printed and define.reading)
        refused = bool(check_admissible(tag, params))
        assert refused == (raises_degenerate(define.build_lhs, params) or raises_degenerate(define.build_rhs, params)), params
        outcomes.add(refused)
    assert outcomes == {True, False}


EXPANSION_BUILT = [("1.17", False), ("1.18", False), ("2.1", False), ("2.2", False), ("2.3", False), ("2.3", True),
                   ("3.1", False), ("3.2", False), ("3.3", False), ("3.3", True)]


@pytest.mark.parametrize("tag, printed", EXPANSION_BUILT)
def test_an_expansion_built_right_side_refuses_by_one_rule(tag, printed):
    """Every right side built from expansion factors refuses a degenerate
    point by one rule: first the vanishing weight denominator of the first
    factor (index m) that has one, the gate's ``check_poch`` finding with
    the smallest index (the first listed on a tie), then the second's
    (index n), and only where no weight vanishes a ``lower[k]`` block
    error. At cap 8, over seeded degenerate points, both kinds are met."""
    define = get(tag)
    met = set()
    for alpha, beta, _, i, j, _ in degenerate_points(seed=52, count=300):
        params = IdentityParams(alpha, beta if "beta" in define.uses else None, i, j if "j" in define.uses else 0,
                                cap=8, printed_form=printed)
        try:
            define.build_rhs(params)
        except DegenerateParameterError as error:
            raised = (error.expr, error.value, error.index)
        else:
            continue
        findings = check_admissible(tag, params)
        weights = [[f for f in findings if f.parameter_expr.endswith(f")_{k}")] for k in "mn"]
        first = next((found for found in weights if found), None)
        if first:
            want = min(first, key=lambda f: f.index)
            assert raised == (want.parameter_expr, want.value, want.index), params
            met.add("weight")
        else:
            assert re.fullmatch(r"lower\[\d\]", raised[0]), (params, raised)
            met.add("block")
    assert met == {"weight", "block"}


@pytest.mark.parametrize("tag", ["1.3", "1.4", "1.8"])
def test_scalar_gate_refuses_exactly_where_a_side_raises(tag, monkeypatch):
    """The findings of 1.3, 1.4 and 1.8 other than the convergence
    condition, which no side checks, appear exactly where ``scalar_exact``
    or ``scalar_float`` raises ``DegenerateParameterError``. The float sum
    is stubbed: a sum that does not converge would spend its whole budget."""
    monkeypatch.setattr(identities, "pfq_eval_float", lambda spec, x, tol, max_terms: FloatSum(1.0, True, 1, 1.0, 0.0))
    define = get(tag)
    side = define.scalar_exact or define.scalar_float
    outcomes = set()
    for alpha, beta, gamma, i, _, _ in degenerate_points(seed=42, count=400):
        params = IdentityParams(alpha, beta, i if "i" in define.uses else 0, gamma=gamma if "gamma" in define.uses else None)
        findings = [f for f in check_admissible(tag, params) if not f.detail.startswith("convergence condition")]
        assert bool(findings) == raises_degenerate(side, params), params
        outcomes.add(bool(findings))
    assert outcomes == {True, False}


# The lower parameters of entries 1.1-1.13, as their findings spell them and
# as values at (alpha, beta): the distinct ones of the left side, then of the
# right side, in declaration order. Written out by hand, as an oracle for the
# gate, which reads them off the side declarations.
HALVED = [("2*alpha", lambda a, b: 2 * a), ("alpha + 1/2", lambda a, b: a + Fraction(1, 2))]
BAILEY = [
    ("2*alpha", lambda a, b: 2 * a),
    ("2*beta", lambda a, b: 2 * b),
    ("alpha + 1/2", lambda a, b: a + Fraction(1, 2)),
    ("beta + 1/2", lambda a, b: b + Fraction(1, 2)),
    ("alpha + beta", lambda a, b: a + b),
]
LOWER_PARAMETERS = {
    "1.1": [("beta", lambda a, b: b)],
    "1.2": HALVED,
    "1.5": HALVED,
    "1.6": HALVED,
    "1.7": BAILEY,
    "1.9": HALVED,
    "1.10": BAILEY,
    "1.11": [("alpha", lambda a, b: a), ("beta", lambda a, b: b), ("alpha + beta - 1", lambda a, b: a + b - 1)],
    "1.12": [
        ("2*alpha", lambda a, b: 2 * a),
        ("2*alpha + 1", lambda a, b: 2 * a + 1),
        ("alpha + 1/2", lambda a, b: a + Fraction(1, 2)),
        ("alpha + 3/2", lambda a, b: a + Fraction(3, 2)),
    ],
    "1.13": [("2*alpha", lambda a, b: 2 * a), ("2*alpha - 1", lambda a, b: 2 * a - 1), ("alpha + 1/2", lambda a, b: a + Fraction(1, 2))],
}


@pytest.mark.parametrize("tag", list(LOWER_PARAMETERS))
def test_a_series_gate_is_check_lower_of_each_declared_lower_parameter(tag):
    """At seeded points, a fifth of them at beta = alpha and many degenerate,
    the gate's findings are ``check_lower`` over the table, in its order,
    and each spelling in the table is found at some point."""
    define = get(tag)
    rng = random.Random(46)
    spelled = set()
    for alpha, beta, *_ in degenerate_points(seed=46, count=300):
        beta = alpha if rng.random() < 0.2 else beta
        params = IdentityParams(alpha, beta if "beta" in define.uses else None)
        want = [check_lower(expr, value(alpha, beta)) for expr, value in LOWER_PARAMETERS[tag]]
        found = check_admissible(tag, params)
        assert found == [f for f in want if f is not None], params
        spelled.update(f.parameter_expr for f in found)
    assert spelled == {expr for expr, _ in LOWER_PARAMETERS[tag]}


def test_equal_lower_parameters_of_two_symbols_stay_two_findings():
    # at beta = alpha = -1, 2*alpha and 2*beta are one value and two findings
    found = check_admissible("1.7", IdentityParams(alpha=-1, beta=-1))
    assert [(f.parameter_expr, f.value) for f in found] == [("2*alpha", -2), ("2*beta", -2), ("alpha + beta", -2)]


def test_lower_forms_refuse_a_lower_parameter_that_is_not_affine():
    with pytest.raises(ValueError, match="not affine in alpha and beta"):
        identities._lower_forms(lambda p: RawProduct((identities._f01(p.alpha * p.beta),)))


def test_lower_forms_refuse_a_count_that_depends_on_the_point():
    # one term at alpha = 1000, two at alpha = 1001
    side = lambda p: Side(tuple(Term((identities._f01(p.alpha + k),)) for k in range(p.alpha.numerator % 3)))
    with pytest.raises(ValueError, match=r"zip\(\) argument \d is (shorter|longer)"):
        identities._lower_forms(side)


def test_lower_forms_are_read_once_on_the_first_gate_call(monkeypatch):
    calls = []
    real = identities._lower_forms
    monkeypatch.setattr(identities, "_lower_forms", lambda *sides: calls.append(sides) or real(*sides))
    lhs = lambda p: RawProduct((identities._f11(p.alpha, 2 * p.alpha - 3),))
    rhs = lambda p: Side((Term((identities._f01(p.beta - p.alpha / 2),)),))
    define = identities._series_entry(lhs, rhs, id=IdentityId.KUMMER_FIRST, summary="", uses=("alpha", "beta"))
    assert calls == []
    params = IdentityParams(alpha=Fraction(3, 2), beta=Fraction(-1, 4))
    for _ in range(2):
        assert [f.parameter_expr for f in define.requirements(params) if f] == ["2*alpha - 3", "-1/2*alpha + beta"]
    assert calls == [(lhs, rhs)]


def test_an_entry_states_its_requirements():
    # no default admits every point
    with pytest.raises(TypeError, match="requirements"):
        identities.IdentityDef(id=IdentityId.KUMMER_FIRST, summary="", uses=("alpha",), kind="series")
