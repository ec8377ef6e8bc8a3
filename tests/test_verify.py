"""Tests for admissibility checking, verification reports, and sweeps."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from hypident.identities import IdentityParams, get
from hypident.identities import gauss_second_sides_float
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
    check_admissible,
    report_for_sides,
    sweep,
    verify_identity,
)

A = Fraction(3, 7)
B = Fraction(2, 5)


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


class TestVerifyIdentity:
    def test_series_pass_with_residuals(self):
        report = verify_identity("2.1", IdentityParams(alpha=A, beta=B, i=1, j=1))
        assert report.status == "exact_match"
        assert report.passed
        assert len(report.float_residuals) == len(DEFAULT_FLOAT_POINTS)
        assert all(r.converged for r in report.float_residuals)
        assert report.max_float_residual < 1e-9

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

    def test_exact_sum_report(self):
        report = verify_identity("1.3", IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), i=4))
        assert report.status == "exact_match"

    def test_float_sum_pass(self):
        report = verify_identity("1.4", IdentityParams(alpha=Fraction(1, 3), beta=B))
        assert report.status == "float_only_pass"
        assert report.float_residuals[0].x == 0.5

    def test_float_sum_fail_when_tolerance_unreachable(self):
        lhs, rhs, _ = gauss_second_sides_float(Fraction(1, 3), B)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        assert rel > 0  # sanity: this sample has a nonzero residual
        report = verify_identity(
            "1.4", IdentityParams(alpha=Fraction(1, 3), beta=B), tol=rel / 2
        )
        assert report.status == "float_only_fail"
        assert not report.passed

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity tag"):
            verify_identity("7.7", IdentityParams(alpha=A))

    def test_statuses_belong_to_the_contract(self):
        allowed = PASSING_STATUSES | {"mismatch", "inadmissible", "float_only_fail"}
        for tag, params in [
            ("1.1", IdentityParams(alpha=A, beta=B)),
            ("1.8", IdentityParams(alpha=Fraction(-2), beta=Fraction(1, 3), gamma=Fraction(5, 4))),
        ]:
            assert verify_identity(tag, params).status in allowed


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
    def test_perturbed_coefficient_is_flagged(self):
        params = IdentityParams(alpha=A, beta=B, i=1, j=1)
        define = get("2.1")
        lhs = define.build_lhs(params)
        rhs = define.build_rhs(params)
        bumped = list(rhs.coeffs)
        bumped[7] += Fraction(1, 10**6)
        damaged = TruncatedSeries(rhs.cap, tuple(bumped))
        report = report_for_sides("2.1", params, lhs, damaged)
        assert report.status == "mismatch"
        assert [m.degree for m in report.mismatches] == [7]

    def test_compare_series_uses_smaller_cap(self):
        a = TruncatedSeries.from_coeffs([1, 2, 3], cap=2)
        b = TruncatedSeries.from_coeffs([1, 5], cap=1)
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


def test_report_is_immutable_but_replaceable():
    report = verify_identity("1.2", IdentityParams(alpha=A))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.status = "mismatch"
    clone = dataclasses.replace(report, elapsed_seconds=0.0)
    assert clone.status == report.status
