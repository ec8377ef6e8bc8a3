"""Tests for admissibility checking, verification reports, and sweeps."""

import dataclasses
import functools
import json
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from hypident import identities, right
from hypident.hyper import DegenerateParameterError
from hypident.identities import IdentityParams, catalog, get
from hypident.reports import (
    PASSING_STATUSES,
    VerifyReport,
    compare_series,
    csv_text,
    relative_error,
    reports_to_csv,
)
from hypident.series import TruncatedSeries
from hypident.verify import (
    DEFAULT_FLOAT_POINTS,
    DEFAULT_FLOAT_TOL,
    check_admissible,
    float_residuals,
    sweep,
    sweep_axes,
    verify_identity,
)

A = Fraction(3, 7)
B = Fraction(2, 5)
# -3/2 + 2**-60: a double holds 2*alpha only as -3.0
ALPHA_61_BITS = Fraction(-1729382256910270463, 1152921504606846976)


class TestCheckAdmissible:
    def test_clean_point(self):
        assert check_admissible("2.1", IdentityParams(alpha=A, beta=B, i=2, j=1)) == []

    def test_vanishing_weight_factor(self):
        findings = check_admissible("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B, i=2))
        assert any(f.parameter_expr == "(alpha - 1/2)_m" for f in findings)
        culprit = next(f for f in findings if f.parameter_expr == "(alpha - 1/2)_m")
        assert culprit.index == 1
        assert culprit.value == 0

    def test_degenerate_lower_parameter(self):
        findings = check_admissible("2.2", IdentityParams(alpha=Fraction(1), beta=B, i=2))
        assert any(f.parameter_expr == "2*alpha - i" for f in findings)

    def test_shift_zero_needs_no_shift_conditions(self):
        # alpha = 1/2 breaks (alpha - 1/2)_m only once m >= 1 is reachable
        assert check_admissible("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B)) == []

    def test_convergence_condition(self):
        params = IdentityParams(alpha=Fraction(3), beta=Fraction(2), gamma=Fraction(1, 4))
        findings = check_admissible("1.8", params)
        assert any(f.parameter_expr == "2*gamma - alpha - beta + 1" for f in findings)

    def test_terminating_sum_is_exempt_from_convergence(self):
        params = IdentityParams(alpha=Fraction(-6), beta=Fraction(2), gamma=Fraction(1, 4))
        findings = check_admissible("1.8", params)
        assert not any(f.parameter_expr == "2*gamma - alpha - beta + 1" for f in findings)

    def test_every_finding_is_fatal_and_concrete(self):
        findings = check_admissible("2.2", IdentityParams(alpha=Fraction(1), beta=Fraction(1, 2), i=2, j=1))
        assert findings
        for f in findings:
            assert f.severity == "fatal"
            assert f.detail


    def test_product_findings_keep_their_order_and_text(self):
        # both factors' weight conditions come before either factor's block
        # parameters, then the third block parameter by ascending shift
        findings = check_admissible(
            "2.2", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(1, 2), i=2, j=1)
        )
        assert [f.parameter_expr for f in findings] == [
            "2*alpha - i", "(2*alpha - i)_m", "2*beta - j", "(2*beta - j)_n",
            "alpha + m - i + 1/2", "alpha + m - i + 1/2", "beta + n - j + 1/2",
            "alpha + beta - 3", "alpha + beta - 2", "alpha + beta - 1",
        ]

    def test_equal_parameter_findings_keep_their_order_and_text(self):
        findings = check_admissible("3.2", IdentityParams(alpha=Fraction(1, 2), i=2, j=1))
        assert [f.parameter_expr for f in findings] == [
            "2*alpha - i", "(2*alpha - i)_m", "2*alpha - j", "(2*alpha - j)_n",
            "alpha + m - i + 1/2", "alpha + m - i + 1/2", "alpha + n - j + 1/2",
            "2*alpha - 3", "2*alpha - 2", "2*alpha - 1",
        ]

    def test_a_point_is_refused_exactly_where_a_builder_raises(self):
        # the ground for gating eval: an admitted point never reaches a
        # builder's raise, and its float sides evaluate
        rng = random.Random(20261019)
        entries = [d for d in catalog() if d.kind == "series"]

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        def raises(build, params):
            try:
                build(params)
            except DegenerateParameterError:
                return True
            return False

        admitted, disagreements = 0, []
        for _ in range(2000):
            d = rng.choice(entries)
            params = IdentityParams(
                alpha=rational(),
                beta=rational() if "beta" in d.uses else None,
                i=rng.randint(0, 4) if "i" in d.uses else 0,
                j=rng.randint(0, 4) if "j" in d.uses else 0,
                cap=0,
                printed_form=d.reading and rng.random() < 0.5,
            )
            refused = bool(check_admissible(d.id, params))
            if refused != (raises(d.build_lhs, params) | raises(d.build_rhs, params)):
                disagreements.append((d.tag, params.describe(d.tag), refused))
            if not refused:
                admitted += 1
                d.lhs_float(params, (0.5,))
                d.rhs_float(params, (0.5,))
        assert disagreements == []
        # both outcomes are well represented in the draw
        assert 500 < admitted < 1500


class TestFindingRecords:
    """The whole record of one finding of each kind, as reports print it."""

    @staticmethod
    def finding(tag, params, expr):
        return next(f for f in check_admissible(tag, params) if f.parameter_expr == expr).to_json_dict()

    def test_lower_parameter_of_a_summand(self):
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(1, 2), i=2, j=1)
        assert self.finding("2.2", params, "alpha + beta - 3") == {
            "parameter_expr": "alpha + beta - 3",
            "index": 2,
            "value": "-2",
            "detail": (
                "lower parameter alpha + beta - 3 = -2 is a nonpositive integer "
                "(summand shift -3): zero factor at series index 2"
            ),
            "severity": "fatal",
        }

    def test_vanishing_rising_factorial(self):
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(1, 2), i=2, j=1)
        assert self.finding("2.2", params, "(2*alpha - i)_m") == {
            "parameter_expr": "(2*alpha - i)_m",
            "index": 2,
            "value": "-1",
            "detail": "(2*alpha - i)_m vanishes from m = 2 on (base -1)",
            "severity": "fatal",
        }

    # each finding names the index its product runs over: n for the second
    # factor, k for the terminating sum
    @pytest.mark.parametrize(
        "tag, params, expr, index, value, detail",
        [
            ("2.2", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(3, 2), i=2, j=2), "(beta - j - 1/2)_n", 2, "-1",
             "(beta - j - 1/2)_n vanishes from n = 2 on (base -1)"),
            ("1.3", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(-5), i=6), "(beta)_k, k <= i", 6, "-5",
             "(beta)_k, k <= i vanishes from k = 6 on (base -5)"),
        ],
        ids=["second-factor-n", "terminating-sum-k"],
    )
    def test_vanishing_rising_factorial_names_its_index(self, tag, params, expr, index, value, detail):
        assert self.finding(tag, params, expr) == {
            "parameter_expr": expr,
            "index": index,
            "value": value,
            "detail": detail,
            "severity": "fatal",
        }

    def test_gamma_pole(self):
        params = IdentityParams(alpha=Fraction(3), beta=Fraction(2), gamma=Fraction(-3, 2))
        assert self.finding("1.8", params, "gamma + 1/2") == {
            "parameter_expr": "gamma + 1/2",
            "index": 1,
            "value": "-1",
            "detail": "Gamma argument gamma + 1/2 = -1 is at a pole",
            "severity": "fatal",
        }

    def test_convergence_condition(self):
        params = IdentityParams(alpha=Fraction(3), beta=Fraction(2), gamma=Fraction(1, 4))
        assert self.finding("1.8", params, "2*gamma - alpha - beta + 1") == {
            "parameter_expr": "2*gamma - alpha - beta + 1",
            "index": 0,
            "value": "-7/2",
            "detail": (
                "convergence condition 2*gamma - alpha - beta + 1 > 0 fails "
                "(2*gamma - alpha - beta + 1 = -7/2)"
            ),
            "severity": "fatal",
        }


class TestVerifyIdentity:
    def test_series_pass_with_residuals(self):
        report = verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=1, j=1))
        assert report.status == "exact_match"
        assert report.passed
        assert len(report.float_residuals) == len(DEFAULT_FLOAT_POINTS)
        assert all(r.converged for r in report.float_residuals)
        assert report.max_float_residual < 1e-9

    @pytest.mark.parametrize(
        "tag, params, declarations",
        [
            ("2.1", IdentityParams(alpha=A, beta=B, i=2, j=1), ("_product_lhs", "_product_rhs")),
            ("2.3", IdentityParams(alpha=A, beta=B, i=2, j=1, printed_form=True), ("_product_lhs", "_product_rhs")),
            ("1.17", IdentityParams(alpha=A, i=3), ("_expansion_side",)),
        ],
        ids=["2.1", "2.3-printed", "1.17"],
    )
    def test_each_side_is_declared_once_for_all_float_points(self, monkeypatch, tag, params, declarations):
        # once for the exact series and once for every float point
        calls = dict.fromkeys(declarations, 0)

        def counter(name, declare):
            def counted(*args, **kwargs):
                calls[name] += 1
                return declare(*args, **kwargs)
            return counted

        for name in declarations:
            monkeypatch.setattr(identities, name, counter(name, getattr(identities, name)))
        report = verify_identity(tag, params)
        assert len(report.float_residuals) == len(DEFAULT_FLOAT_POINTS)
        assert calls == dict.fromkeys(declarations, 2)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=str)
    def test_a_point_that_is_not_finite_is_refused(self, x):
        # its report's JSON would hold "x": Infinity or NaN, which is no JSON
        with pytest.raises(ValueError, match=f"^a float point must be finite, got x = {x}$"):
            verify_identity("1.10", IdentityParams(alpha=A, beta=B), (0.5, x))

    def test_points_are_read_once(self):
        # a generator, read by both sides and by the pairing, gave no residual
        params = IdentityParams(alpha=A, beta=B)
        want = float_residuals("1.10", params, (0.5, 2.0))
        assert len(want) == 2
        assert float_residuals("1.10", params, (x for x in [0.5, 2.0])) == want
        assert verify_identity("1.10", params, (x for x in [0.5, 2.0])).float_residuals == want

    def test_an_exact_point_is_reported_as_its_float(self):
        report = verify_identity("1.10", IdentityParams(alpha=A, beta=B), (Fraction(1, 2), 2))
        assert report.float_residuals == float_residuals("1.10", report.params, (0.5, 2.0))
        assert [type(r.x) for r in report.float_residuals] == [float, float]
        assert [doc["x"] for doc in json.loads(json.dumps(report.to_json_dict()))["float_residuals"]] == [0.5, 2.0]
        floats = verify_identity("1.10", report.params, (0.5, 2.0)).render_text().splitlines()
        assert report.render_text().splitlines()[:-1] == floats[:-1]  # all but the elapsed line

    @pytest.mark.parametrize("x", [True, "1", None, 1j], ids=repr)
    def test_a_point_that_is_not_a_real_number_is_refused(self, x):
        with pytest.raises(ValueError, match=f"^a float point must be a real number, got x = {re.escape(repr(x))}$"):
            verify_identity("1.10", IdentityParams(alpha=A, beta=B), (0.5, x))

    def test_an_int_past_the_double_range_is_not_finite(self):
        with pytest.raises(ValueError, match="^a float point must be finite, got x = inf$"):
            float_residuals("1.10", IdentityParams(alpha=A, beta=B), (10**400,))

    def test_inadmissible_short_circuits(self):
        report = verify_identity("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B, i=2))
        assert report.status == "inadmissible"
        assert not report.passed
        assert report.findings
        assert report.mismatches == ()
        assert report.float_residuals == ()

    def test_printed_form_mismatch_report(self):
        report = verify_identity(
            "2.3",
            IdentityParams(alpha=A, beta=B, i=0, j=1, printed_form=True),
            float_points=(),
        )
        assert report.status == "mismatch"
        assert report.mismatches
        assert report.notes and "printed-form" in report.notes[0]

    @pytest.mark.parametrize(
        "tag, params, x",
        [
            # e**800 raises OverflowError: the point is recorded, not raised
            ("1.1", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(1, 3)), -800.0),
            # both sides come back inf without raising
            ("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B), 400.0),
            # 2*alpha rounds to -3.0, so a float term divides by zero
            ("1.2", IdentityParams(alpha=ALPHA_61_BITS), -8.0),
            ("2.1", IdentityParams(alpha=ALPHA_61_BITS, beta=B), 0.5),
        ],
    )
    def test_overflowing_float_point_is_unconverged(self, tag, params, x):
        report = verify_identity(tag, params, float_points=(x,))
        assert report.status == "exact_match"
        (residual,) = report.float_residuals
        assert (residual.x, residual.converged, residual.relative_error) == (x, False, math.inf)

    def test_exact_sum_report(self):
        report = verify_identity("1.3", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), i=4))
        assert report.status == "exact_match"

    def test_float_sum_pass(self):
        report = verify_identity("1.4", IdentityParams(alpha=Fraction(1, 3), beta=B))
        assert report.status == "float_only_pass"
        assert report.float_residuals[0].x == 0.5

    def test_float_sum_fail_when_tolerance_unreachable(self, monkeypatch):
        # a closed form off by one part in a million: every sum converges,
        # and no residual comes within the threshold
        real = identities._gamma_ratio
        monkeypatch.setattr(identities, "_gamma_ratio", lambda *factors: real(*factors) * (1 + 1e-6))
        for tag, params in [
            ("1.4", IdentityParams(alpha=Fraction(1, 3), beta=B)),
            ("1.8", IdentityParams(alpha=Fraction(1, 3), beta=Fraction(2, 5), gamma=Fraction(1, 7))),
        ]:
            report = verify_identity(tag, params)
            assert report.status == "float_only_fail"
            assert report.float_residuals[0].relative_error > DEFAULT_FLOAT_TOL
            assert not report.passed

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity tag"):
            verify_identity("7.7", IdentityParams(alpha=A))

    @pytest.mark.parametrize(
        "tag, shifts, message",
        [
            ("1.2", dict(i=1), "identity 1.2 takes no shift i, got i = 1"),
            ("1.1", dict(j=3), "identity 1.1 takes no shift j, got j = 3"),
            # 1.3 and 1.17 use i, not j
            ("1.3", dict(i=2, j=1), "identity 1.3 takes no shift j, got j = 1"),
            ("1.17", dict(i=2, j=2), "identity 1.17 takes no shift j, got j = 2"),
            ("1.8", dict(i=4), "identity 1.8 takes no shift i, got i = 4"),
        ],
    )
    def test_a_shift_the_entry_does_not_use_is_refused(self, tag, shifts, message):
        # it used to be dropped, though the default cap still read it; a
        # gamma is given only where the entry reads one
        gamma = Fraction(1, 7) if "gamma" in get(tag).uses else None
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), gamma=gamma, **shifts)
        with pytest.raises(ValueError, match=message):
            verify_identity(tag, params)
        # a zero shift is no shift: the point is checked, not refused
        zero = params._replace(i=shifts["i"] if "i" in get(tag).uses else 0, j=0)
        assert verify_identity(tag, zero, float_points=()).identity == tag

    @pytest.mark.parametrize("tag", [d.tag for d in catalog() if d.tag not in ("2.3", "3.3")])
    def test_a_printed_form_the_entry_does_not_read_is_refused(self, tag):
        # it used to be reported, though only the mixed variants read it; a
        # gamma is given only where the entry reads one
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), printed_form=True)
        message = f"identity {tag} takes no printed_form: only 2.3 and 3.3 have a printed-form reading"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_identity(tag, params._replace(gamma=Fraction(1, 7)) if "gamma" in get(tag).uses else params)
        for reader in ("2.3", "3.3"):
            assert verify_identity(reader, params, float_points=()).params.printed_form

    def test_statuses_belong_to_the_contract(self):
        allowed = PASSING_STATUSES | {"mismatch", "inadmissible", "float_only_fail", "float_inconclusive"}
        for tag, params in [
            ("1.1", IdentityParams(alpha=A, beta=B)),
            ("1.8", IdentityParams(alpha=Fraction(-2), beta=Fraction(1, 3), gamma=Fraction(5, 4))),
        ]:
            assert verify_identity(tag, params).status in allowed


# the three unit-argument points the stopping rule |term| <= tol*|sum| failed
ROADMAP_WATSON_POINTS = [
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 4), Fraction(-1, 6)),
]


class TestFloatSumVerdicts:
    @pytest.mark.parametrize("a, b, c", ROADMAP_WATSON_POINTS)
    def test_low_excess_unit_sums_pass(self, a, b, c):
        report = verify_identity("1.8", IdentityParams(alpha=a, beta=b, gamma=c))
        assert report.status == "float_only_pass"
        residual = report.float_residuals[0]
        assert residual.converged
        assert residual.terms < 100

    def test_odd_terminating_unit_sum_passes(self):
        # at a = -3 the closed form is exactly 0 (1/Gamma(-1) = 0) and the
        # float sum is rounding noise; scaled by |lhs| alone the residual was 1.0
        report = verify_identity("1.8", IdentityParams(alpha=Fraction(-3), beta=Fraction(2, 5), gamma=Fraction(7, 3)))
        assert report.status == "float_only_pass"
        residual = report.float_residuals[0]
        assert residual.rhs == 0.0
        assert residual.relative_error < 1e-15

    def test_budget_exhaustion_is_inconclusive(self, float_budget_of_ten):
        a, b, c = ROADMAP_WATSON_POINTS[2]
        report = verify_identity("1.8", IdentityParams(alpha=a, beta=b, gamma=c))
        assert report.status == "float_inconclusive"
        assert not report.passed
        residual = report.float_residuals[0]
        assert not residual.converged
        assert residual.terms == 11
        # a finite partial sum keeps its residual
        assert 0 < residual.relative_error < math.inf

    def test_a_parameter_a_double_cannot_hold(self):
        # 2*gamma = 2**-1079 rounds to 0.0: the float sum has no bound
        report = verify_identity("1.8", IdentityParams(alpha=Fraction(1, 3), beta=B, gamma=Fraction(1, 2**1080)))
        assert report.status == "float_inconclusive"
        assert not report.float_residuals[0].converged
        # alpha past the double range: the sum reads unbounded, and the
        # Gamma ratio refuses the point
        with pytest.raises(ValueError, match=r"Gamma\(\d+/3\) overflows a double"):
            verify_identity("1.4", IdentityParams(alpha=Fraction(10**400), beta=Fraction(1, 3)))

    def test_a_sum_that_ends_unbounded_has_an_infinite_residual(self):
        # lhs and sum |t_k| are inf: the residual is inf, as a series
        # residual is, where inf / inf made it nan
        report = verify_identity("1.8", IdentityParams(alpha=Fraction(1, 3), beta=Fraction(2, 5), gamma=Fraction(1, 2**1080)))
        assert report.status == "float_inconclusive"
        residual = report.float_residuals[0]
        assert residual.lhs == math.inf and residual.relative_error == math.inf
        assert "rel inf" in report.render_text()

    def test_float_sum_residual_records_terms(self):
        report = verify_identity("1.4", IdentityParams(alpha=Fraction(1, 3), beta=B))
        assert report.float_residuals[0].terms == 46
        assert report.to_json_dict()["float_residuals"][0]["terms"] == 46
        assert "46 terms" in report.render_text()

    def test_series_cross_checks_carry_no_term_count(self):
        report = verify_identity("1.1", IdentityParams(alpha=A, beta=B))
        assert all(r.terms is None for r in report.float_residuals)
        assert all("terms" not in doc for doc in report.to_json_dict()["float_residuals"])


# float verdicts that do not carry their error bound (ROADMAP item 3): each
# asserts the honest outcome, which the code does not give yet
FALSE_SCALAR_PASSES = [
    # lhs -9.15e53 against rhs 3.48: cancellation reads as agreement
    ("1.4", IdentityParams(alpha=Fraction(-300), beta=Fraction(1, 3))),
    ("1.8", IdentityParams(alpha=Fraction(-300), beta=Fraction(1, 3), gamma=Fraction(1, 7))),
    # the float lhs is 1.5% off the exact 15-term sum
    ("1.8", IdentityParams(alpha=Fraction(-301, 3), beta=Fraction(-14), gamma=Fraction(-1311, 11))),
]
NOISY_CROSS_CHECKS = [
    # relative error 0.99999952
    ("1.1", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(1, 3)), -50.0),
    # relative error 6.9e-3, from cancellation between the 49 blocks
    ("2.1", IdentityParams(alpha=Fraction(3, 7), beta=Fraction(2, 5), i=6, j=6), 30.0),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="scalar float sums are scaled by sum |t_k|, not bounded (ROADMAP item 3)")
@pytest.mark.parametrize("tag, params", FALSE_SCALAR_PASSES, ids=["1.4-alpha=-300", "1.8-alpha=-300", "1.8-alpha=-301/3"])
def test_cancelled_scalar_sum_is_not_a_float_pass(tag, params):
    assert verify_identity(tag, params).status != "float_only_pass"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="series cross-checks drop the error bound (ROADMAP item 3)")
@pytest.mark.parametrize("tag, params, x", NOISY_CROSS_CHECKS, ids=["1.1-x=-50", "2.1-x=30"])
def test_cross_check_lost_to_rounding_is_not_converged(tag, params, x):
    assert not verify_identity(tag, params, float_points=(x,)).float_residuals[0].converged


class TestReportRendering:
    def test_json_schema(self):
        report = verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=1, j=0))
        doc = report.to_json_dict()
        json.dumps(doc)  # must be serializable as-is
        assert doc["identity"] == "2.1"
        assert doc["status"] == "exact_match"
        assert doc["params"]["alpha"] == "3/7"
        assert doc["mismatches"] == []
        assert len(doc["float_residuals"]) == len(DEFAULT_FLOAT_POINTS)
        assert {"x", "relative_error"} <= set(doc["float_residuals"][0])

    def test_csv_round_trip_shape(self):
        reports = [
            verify_identity("1.2", IdentityParams(alpha=A)),
            verify_identity("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B, i=2)),
        ]
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0].startswith("identity,alpha,beta,")
        assert len(lines) == 3
        assert lines[2].split(",")[7] == "inadmissible"

    def test_text_rendering_mentions_findings(self):
        report = verify_identity("2.1", IdentityParams(alpha=Fraction(1, 2), beta=B, i=2))
        text = report.render_text()
        assert "inadmissible" in text
        assert "(alpha - 1/2)_m" in text


class TestRelativeError:
    def test_scaled_by_larger_magnitude(self):
        assert relative_error(1.0, 0.5) == 0.5
        assert relative_error(-2.0, 2.0) == 2.0

    def test_both_zero_is_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_scale_floors_the_denominator(self):
        assert relative_error(3e-16, 0.0, 2.0) == 1.5e-16
        assert relative_error(1.0, 0.5, 0.25) == 0.5

    def test_exact_values_give_the_exact_error(self):
        assert relative_error(Fraction(1, 3), Fraction(1, 4)) == Fraction(1, 4)
        assert relative_error(Fraction(0), Fraction(0)) == 0.0

    def test_exact_sum_residual_is_the_float_of_each_exact_side(self):
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), i=7)
        lhs, rhs = get("1.3").scalar_exact(params)
        with pytest.raises(ValueError, match="identity 1.3 is summed at its fixed argument x = 1, "):
            float_residuals("1.3", params, (3.0,))
        (residual,) = float_residuals("1.3", params)
        assert (residual.x, residual.lhs, residual.rhs) == (1.0, float(lhs), float(rhs))
        assert (residual.relative_error, residual.converged, residual.terms) == (0.0, True, None)

    def test_exact_sum_past_the_double_range_raises(self):
        params = IdentityParams(alpha=Fraction(-10**8), beta=Fraction(1, 3), i=64)
        with pytest.raises(ValueError, match="a float side of identity 1.3 overflows at x = 1"):
            float_residuals("1.3", params)

    @pytest.mark.parametrize("tag, fixed", [("1.3", "1"), ("1.4", "0.5"), ("1.8", "1")])
    def test_scalar_entry_refuses_points(self, tag, fixed):
        # even its own fixed argument: the point would read as honoured
        params = IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), gamma=Fraction(1, 7), i=7)
        for x in (3.0, float(fixed)):
            with pytest.raises(ValueError, match=f"identity {tag} is summed at its fixed argument x = {fixed}, "):
                float_residuals(tag, params, (x,))

    def test_unconverged_float_residual_is_infinite(self):
        # a budget that runs out makes the residual inf, whatever the values
        params = IdentityParams(alpha=A, beta=B)
        report = verify_identity("1.1", params, float_points=(1e6,))
        residual = report.float_residuals[0]
        assert not residual.converged
        assert residual.relative_error == math.inf


def test_csv_text_writes_header_then_rows():
    assert csv_text(["a", "b"], [[1, "x,y"], [2, True]]) == 'a,b\n1,"x,y"\n2,True\n'


class TestFaultInjection:
    def test_perturbed_coefficient_is_flagged(self, monkeypatch):
        # the damaged side goes into the catalog entry, so the production
        # comparison and status judge it
        params = IdentityParams(alpha=A, beta=B, i=1, j=1)
        define = get("2.1")
        rhs = define.build_rhs(params)
        bumped = list(rhs.coeffs)
        bumped[7] += Fraction(1, 10**6)
        damaged = TruncatedSeries(rhs.cap, tuple(bumped))
        monkeypatch.setitem(identities._REGISTRY, define.id, dataclasses.replace(define, build_rhs=lambda p: damaged))
        report = verify_identity("2.1", params, float_points=())
        assert report.status == "mismatch"
        assert [m.degree for m in report.mismatches] == [7]

    def test_compare_series_uses_smaller_cap(self):
        a = TruncatedSeries(2, (1, 2, 3))
        b = TruncatedSeries(1, (1, 5))
        mismatches = compare_series(a, b)
        assert [m.degree for m in mismatches] == [1]


class TestSweep:
    def test_grid_shape_and_order(self):
        reports = sweep("2.1", alpha_set=[A], beta_set=[B], i_max=2, j_max=2)
        assert len(reports) == 9
        points = [(r.params.i, r.params.j) for r in reports]
        assert points == sorted(points)
        assert all(r.status == "exact_match" for r in reports)

    def test_empty_alpha_set(self):
        assert sweep("2.1", alpha_set=[], beta_set=[B]) == []

    def test_beta_needed_but_empty_means_empty_grid(self):
        assert sweep("1.7", alpha_set=[A]) == []

    def test_unused_parameters_are_ignored(self):
        reports = sweep("1.2", alpha_set=[A, B], beta_set=[Fraction(1, 3)], i_max=3, j_max=3)
        assert len(reports) == 2  # only alpha is in play

    def test_input_order_does_not_matter(self):
        one = sweep("1.2", alpha_set=[B, A])
        two = sweep("1.2", alpha_set=[A, B])
        assert [r.params.alpha for r in one] == [r.params.alpha for r in two]

    def test_inadmissible_points_are_reported_not_raised(self):
        reports = sweep("1.17", alpha_set=[Fraction(1, 2), A], i_max=2)
        statuses = {(str(r.params.alpha), r.params.i): r.status for r in reports}
        assert statuses[("1/2", 0)] == "exact_match"
        assert statuses[("1/2", 1)] == "inadmissible"
        assert statuses[("3/7", 2)] == "exact_match"

    def test_gamma_rides_along(self):
        reports = sweep(
            "1.8",
            alpha_set=[Fraction(-2)],
            beta_set=[Fraction(1, 3)],
            gamma=Fraction(5, 4),
        )
        assert len(reports) == 1
        assert reports[0].status == "float_only_pass"

    @pytest.mark.parametrize("shift, message", [
        (dict(i_max=-1), "shifts i and j must be nonnegative"),
        (dict(j_max=-2), "shifts i and j must be nonnegative"),
        (dict(i_max=True), "i must be an int, got True"),
        (dict(j_max=1.5), "j must be an int, got 1.5"),
    ])
    @pytest.mark.parametrize("axes", [sweep, sweep_axes], ids=["sweep", "sweep_axes"])
    def test_a_negative_or_non_int_max_shift_is_refused_as_params_refuse_it(self, axes, shift, message):
        # unrefused, -1 gave an empty grid and True the grid 0..1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            axes("2.1", [A], [B], **shift)

    @pytest.mark.parametrize(
        "args, gamma, name",
        [(("1.2", [0.1]), None, "alpha"), (("2.1", [A], [0.25]), None, "beta"), (("1.8", [A], [B]), 0.1, "gamma")],
    )
    def test_a_float_is_refused_as_params_refuse_it(self, args, gamma, name):
        # Fraction(0.1) is the nearest double, not 1/10: the sweep would leave the exact domain
        with pytest.raises(ValueError, match=f"^{name} must be an exact rational, not the float"):
            sweep(*args, gamma=gamma)


class TestSharedMemos:
    """The points of a grid share each factor's expansion, findings and
    shift table and the span quotients of their class of rho + sigma: no
    report may depend on what an earlier point left behind."""

    ALPHA_FIRST = IdentityParams(alpha=Fraction(-3, 2), beta=B, i=1, j=1)
    BETA_SECOND = IdentityParams(alpha=B, beta=Fraction(-3, 2), i=1, j=1)
    # (alpha - 1/2)_m vanishes at m = 1: the first expansion raises, and no memo keeps it
    DEGENERATE = IdentityParams(alpha=Fraction(1, 2), beta=B, i=1, j=1)
    POINTS = [
        ("2.1", IdentityParams(alpha=A, beta=B, i=2, j=3)),
        ("3.1", IdentityParams(alpha=A, i=2, j=1)),
        ("2.2", IdentityParams(alpha=Fraction(-11, 7), beta=Fraction(-13, 5), i=3, j=1)),
        ("2.1", DEGENERATE),
        ("2.3", IdentityParams(alpha=A, beta=B, i=1, j=3)),
        # -3/2 first as alpha at i = 1, then as beta at j = 1: each spelled as its own factor
        ("2.1", ALPHA_FIRST),
        ("2.2", IdentityParams(alpha=A, beta=B, i=2, j=2)),
        ("2.1", BETA_SECOND),
        # alpha + beta = -1: rho + sigma - 1 vanishes at shift 1
        ("2.1", IdentityParams(alpha=Fraction(-1, 3), beta=Fraction(-2, 3), i=1, j=1)),
        # alpha + beta = 1, admissible: the class of rho + sigma = 2 has F0(0) = 0
        ("2.1", IdentityParams(alpha=Fraction(1, 3), beta=Fraction(2, 3), i=2, j=1)),
        ("2.3", IdentityParams(alpha=Fraction(-11, 7), beta=Fraction(-13, 5), i=2, j=2, printed_form=True)),
        ("2.1", DEGENERATE),
        ("3.1", IdentityParams(alpha=Fraction(-11, 7), i=3, j=3)),
        ("2.1", IdentityParams(alpha=A, beta=B, i=2, j=3)),
        # rho + sigma = 2 again, from a lowered pair
        ("2.2", IdentityParams(alpha=Fraction(4, 3), beta=Fraction(5, 3), i=1, j=1)),
        # rho + sigma = 64/35, then 47/35: one denominator, two classes
        ("2.3", IdentityParams(alpha=A, beta=B, i=1, j=3)),
        ("2.1", IdentityParams(alpha=Fraction(1, 7), beta=Fraction(1, 5), i=2, j=3)),
    ]

    @staticmethod
    def outcome(tag, params):
        """The report, elapsed time aside, and for a refused point what
        building its right side raises."""
        report = verify_identity(tag, params, ())._replace(elapsed_seconds=0.0)
        if report.status != "inadmissible":
            return report, None
        try:
            get(tag).build_rhs(params)
        except DegenerateParameterError as err:
            return report, (err.expr, err.value, err.index)
        return report, None

    def cold(self):
        outcomes = []
        for point in self.POINTS:
            identities._clear_memos()
            outcomes.append(self.outcome(*point))
        return outcomes

    def test_a_warm_memo_gives_the_report_a_cold_one_gives(self):
        cold = self.cold()
        identities._clear_memos()
        assert [self.outcome(*point) for point in self.POINTS] == cold
        reports, raised = zip(*cold)
        # the degenerate point raises each time it is built
        assert raised[3] == raised[11] == ("(alpha - 1/2)_m", 0, 1)
        assert [f.parameter_expr for f in reports[5].findings] == ["2*alpha + i", *["alpha + m + 1/2"] * 2]
        assert [f.parameter_expr for f in reports[7].findings] == ["2*beta + j", *["beta + n + 1/2"] * 2]
        assert "(summand n=1)" in reports[7].findings[-1].detail
        assert [f.parameter_expr for f in reports[8].findings] == ["alpha + beta", "alpha + beta + 1"]
        assert reports[9].status == reports[14].status == "exact_match"

    def test_rows_evicted_at_once_change_no_report(self, monkeypatch):
        """With room for one span row, every row is built again where it is
        next read: every point gives its cold outcome."""
        cold = self.cold()
        monkeypatch.setattr(right, "_span_row", functools.lru_cache(maxsize=1)(right._span_row.__wrapped__))
        identities._clear_memos()
        assert [self.outcome(*point) for point in self.POINTS] == cold
        assert right._span_row.cache_info().misses > len(self.POINTS)

    def test_the_kept_rows_stay_within_their_bound(self, monkeypatch):
        """25 diagonals of up to 200 quotients: every row the build reads is
        kept whole, as a tuple, and no more than ``SPAN_ROWS`` rows are kept."""
        identities._clear_memos()
        kept, read = right._span_row, []
        monkeypatch.setattr(right, "_span_row", lambda *key: read.append(key) or kept(*key))
        report = verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=12, j=12, cap=400), ())
        assert report.status == "exact_match"
        assert 0 < kept.cache_info().currsize <= right.SPAN_ROWS
        hits = kept.cache_info().hits
        assert all(type(kept(*key)) is tuple for key in read)
        assert kept.cache_info().hits == hits + len(read)

    @pytest.mark.parametrize("budget", [0, 64])
    def test_tables_dropped_at_once_change_no_report(self, monkeypatch, budget):
        """With a budget that keeps no shift table, every table is built
        again where it is next read, and with one of 64 integers the small
        tables are kept and dropped in turn: every point gives its cold outcome."""
        cold = self.cold()
        monkeypatch.setattr(right, "_shift_tables", right._kept_tables(budget))
        identities._clear_memos()
        assert [self.outcome(*point) for point in self.POINTS] == cold
        info = right._shift_tables.cache_info()
        assert info.misses > len(self.POINTS) and info.kept <= budget
        if budget:
            assert info.hits > 0
        else:
            assert (info.hits, info.currsize) == (0, 0)

    def test_the_kept_tables_stay_within_their_budget(self, monkeypatch):
        """Two factors at i = j = 12 read at depth 256, 13 * 257 integers
        each: the tables kept stay within ``SHIFT_BUDGET`` integers, the
        first kept dropped first, and the last read is kept whole, its
        columns tuples."""
        identities._clear_memos()
        kept, read = right._shift_tables, []
        monkeypatch.setattr(right, "_shift_tables", lambda *key: read.append(key) or kept(*key))
        report = verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=12, j=12, cap=400), ())
        assert report.status == "exact_match"
        assert [depth for _, depth in read] == [256, 256]
        info, size = kept.cache_info(), 13 * 257
        assert info.currsize == min(2, right.SHIFT_BUDGET // size) >= 1
        assert info.kept == info.currsize * size <= right.SHIFT_BUDGET
        den, cols = kept(*read[-1])
        assert type(cols) is tuple and len(cols) == 13 and all(type(col) is tuple and len(col) == 257 for col in cols)
        assert kept.cache_info().hits == info.hits + 1

    def test_rounded_depths_serve_every_cap(self):
        """2.1-2.3 at caps 0..40 and i, j <= 3, built in one process, read
        rows and tables built for other caps and other points: each table
        is built once and read again, and each right side equals its fresh
        build."""
        points = [(get(tag).build_rhs, IdentityParams(alpha=A, beta=B, i=i, j=j, cap=cap))
                  for tag in ("2.1", "2.2", "2.3") for cap in range(41) for i in range(4) for j in range(4)]
        identities._clear_memos()
        warm = [build(params) for build, params in points]
        tables = right._shift_tables.cache_info()
        assert tables.misses == tables.currsize and tables.hits == 2 * len(points) - tables.misses
        assert tables.hits > 20 * tables.misses
        fresh = []
        for build, params in points:
            identities._clear_memos()
            fresh.append(build(params))
        assert warm == fresh

    def test_the_gate_and_the_builder_read_one_entry_per_factor(self):
        """The gate and the builder of a point derive each of its factors
        once: one entry for 1.17's factor, two for a 2.1 point's, and 24 for
        2.1-2.3 and 3.1-3.3 over i, j <= 3 at one (alpha, beta), the four
        2.x factors at each shift and the 3.x gates' second, spelled with alpha."""
        memo = identities._expansion
        identities._clear_memos()
        verify_identity("1.17", IdentityParams(alpha=A, i=3), ())
        assert memo.cache_info().misses == 1
        identities._clear_memos()
        params = IdentityParams(alpha=A, beta=B, i=3, j=2)
        assert not check_admissible("2.1", params)
        get("2.1").build_rhs(params)
        assert memo.cache_info().misses == 2
        identities._clear_memos()
        for tag in ("2.1", "2.2", "2.3", "3.1", "3.2", "3.3"):
            beta = B if tag.startswith("2.") else None
            for i in range(4):
                for j in range(4):
                    verify_identity(tag, IdentityParams(alpha=A, beta=beta, i=i, j=j), ())
        assert memo.cache_info().currsize == 24

    def test_threads_building_at_once_get_the_series_one_thread_gets(self):
        """Four threads build 2.1 right sides of two classes of rho + sigma
        at once, switching every microsecond, so that the kept shift tables
        and span rows are read and added to under them: every series equals
        its single-thread build."""
        build = get("2.1").build_rhs
        points = [IdentityParams(alpha=alpha, beta=B, i=6, j=6, cap=cap)
                  for alpha, cap in ((A, 160), (Fraction(1, 3), 180), (A, 200), (Fraction(1, 3), 170))]
        alone = []
        for params in points:
            identities._clear_memos()
            alone.append(build(params))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        differ = 0
        try:
            for _ in range(30):
                identities._clear_memos()
                built = [None] * len(points)
                threads = [threading.Thread(target=lambda k=k: built.__setitem__(k, build(points[k])))
                           for k in range(len(points))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                differ += sum(series != single for series, single in zip(built, alone))
        finally:
            sys.setswitchinterval(interval)
        assert differ == 0, f"{differ} of {30 * len(points)} right sides differ"


def test_report_is_immutable_but_replaceable():
    report = verify_identity("1.2", IdentityParams(alpha=A))
    with pytest.raises(AttributeError):
        report.status = "mismatch"
    clone = report._replace(elapsed_seconds=0.0)
    assert clone.status == report.status
