"""End-to-end tests for the command-line interface.

Everything goes through `run(argv)` with captured stdio, so these tests
exercise exactly what a shell user sees: stdout payloads, stderr
diagnostics, and exit codes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hypident import cli, identities
from hypident.cli import MAX_DEGREE, MAX_RATIONAL_BITS, MAX_SHIFT, MAX_SWEEP_POINTS, build_parser, run
from hypident.identities import IdentityParams, catalog
from hypident.rationals import parse_rational, pochhammer
from hypident.verify import check_admissible, verify_identity

ALL_TAGS = [d.tag for d in catalog()]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def untimed_records(out, output):
    """A sweep's stdout as records without their ``elapsed_seconds``: JSON
    objects, or CSV lines (the header too), or text lines."""
    if output == "json":
        return [{key: value for key, value in record.items() if key != "elapsed_seconds"} for record in json.loads(out)]
    if output == "csv":  # elapsed_seconds is the last column
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]
    return out.splitlines()


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a ``python -m hypident.cli`` subprocess."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def timing_spread(line, points):
    """The per-point p50, p95 and max in ms of a sweep's stderr timing line."""
    match = re.fullmatch(
        rf"timing: {points} points in [0-9.]+ s; per point p50 ([0-9.]+) ms, p95 ([0-9.]+) ms, max ([0-9.]+) ms", line
    )
    assert match, line
    return tuple(float(value) for value in match.groups())


class TestList:
    def test_text_mentions_every_tag(self, capsys):
        code, out, _ = invoke(capsys, "list")
        assert code == 0
        for tag in ALL_TAGS:
            assert f"{tag:>5}  " in out

    def test_text_first_entry(self, capsys):
        code, out, _ = invoke(capsys, "list")
        assert code == 0
        assert out.startswith(
            "  1.1  kummer-first          [series; uses alpha,beta]\n"
            "       e^(-x) 1F1(alpha; beta; x) = 1F1(beta - alpha; beta; -x)\n  1.2  "
        )

    def test_json_is_a_full_catalog(self, capsys):
        code, out, _ = invoke(capsys, "list", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert [entry["identity"] for entry in doc] == ALL_TAGS
        assert all({"name", "kind", "uses", "summary"} <= set(e) for e in doc)

    def test_json_pins_every_entry_name(self, capsys):
        # names are derived from the IdentityId member names, so renaming a
        # member must not silently change this output
        code, out, _ = invoke(capsys, "list", "--output", "json")
        assert code == 0
        assert [(e["identity"], e["name"], e["kind"], e["uses"]) for e in json.loads(out)] == [
            ("1.1", "kummer-first", "series", ["alpha", "beta"]),
            ("1.2", "kummer-second", "series", ["alpha"]),
            ("1.3", "gauss-terminating", "exact_sum", ["alpha", "beta", "i"]),
            ("1.4", "gauss-second", "float_sum", ["alpha", "beta"]),
            ("1.5", "kummer-second-scaled", "series", ["alpha"]),
            ("1.6", "preece-alternating", "series", ["alpha"]),
            ("1.7", "bailey-alternating", "series", ["alpha", "beta"]),
            ("1.8", "watson-unit", "float_sum", ["alpha", "beta", "gamma"]),
            ("1.9", "preece-squared", "series", ["alpha"]),
            ("1.10", "bailey-matched", "series", ["alpha", "beta"]),
            ("1.11", "f01-product", "series", ["alpha", "beta"]),
            ("1.12", "contiguous-raised", "series", ["alpha"]),
            ("1.13", "contiguous-lowered", "series", ["alpha"]),
            ("1.17", "expand-raised", "series", ["alpha", "i"]),
            ("1.18", "expand-lowered", "series", ["alpha", "i"]),
            ("2.1", "product-pp", "series", ["alpha", "beta", "i", "j"]),
            ("2.2", "product-mm", "series", ["alpha", "beta", "i", "j"]),
            ("2.3", "product-pm", "series", ["alpha", "beta", "i", "j"]),
            ("3.1", "equal-param-pp", "series", ["alpha", "i", "j"]),
            ("3.2", "equal-param-mm", "series", ["alpha", "i", "j"]),
            ("3.3", "equal-param-pm", "series", ["alpha", "i", "j"]),
        ]

    def test_csv_has_header_and_21_rows(self, capsys):
        code, out, _ = invoke(capsys, "list", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,name,kind,uses,summary"
        assert len(lines) == 1 + len(ALL_TAGS)


class TestVerify:
    def test_pass_json(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "2.1",
            "--alpha", "3/7", "--beta", "2/5", "--i", "1", "--j", "1",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "exact_match"
        assert doc["params"] == {"alpha": "3/7", "beta": "2/5", "i": 1, "j": 1, "cap": 20}
        assert doc["mismatches"] == []

    def test_pass_text(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "1.2", "--alpha", "3/7",
        )
        assert code == 0
        assert "exact_match" in out

    def test_inadmissible_exit_1_with_diagnostic(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--identity", "2.1",
            "--alpha", "1/2", "--beta", "2/5", "--i", "2",
        )
        assert code == 1
        assert "inadmissible" in out
        assert err.startswith("hypident: inadmissible:")

    def test_printed_form_mismatch_exit_1(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "2.3",
            "--alpha", "3/7", "--beta", "2/5", "--j", "1",
            "--printed-form", "--output", "json",
        )
        assert code == 1
        assert json.loads(out)["status"] == "mismatch"

    def test_inconclusive_float_sum_exits_1(self, capsys, float_budget_of_ten):
        argv = ["verify", "--identity", "1.8", "--alpha", "1/3", "--beta", "1/4", "--gamma=-1/6"]
        code, out, _ = invoke(capsys, *argv, "--output", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "float_inconclusive"
        assert doc["float_residuals"][0]["converged"] is False
        assert doc["float_residuals"][0]["terms"] == 11
        code, out, _ = invoke(capsys, *argv, "--output", "csv")
        assert code == 1
        assert out.splitlines()[1].split(",")[7] == "float_inconclusive"

    def test_non_finite_residuals_are_null_in_json(self, capsys):
        # every float side overflows at this alpha; the exact verdict stands
        code, out, _ = invoke(
            capsys, "verify", "--identity", "1.1",
            "--alpha", "1000000", "--beta", "1/3", "--output", "json",
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["status"] == "exact_match"
        assert len(doc["float_residuals"]) == 6
        for residual in doc["float_residuals"]:
            assert residual["relative_error"] is None
            assert residual["lhs"] is None and residual["rhs"] is None
            assert residual["converged"] is False

    @pytest.mark.parametrize("point", [[], ["--beta", "1/3"]])
    def test_a_parameter_a_double_cannot_hold_keeps_the_exact_verdict(self, capsys, point):
        # alpha = -3/2 + 2**-60: a float term divides by 2*alpha + 3, which
        # rounds to 0.0, so no float side converges
        tag = "2.1" if point else "1.2"
        code, out, _ = invoke(capsys, "verify", "--identity", tag, "--alpha=-1729382256910270463/1152921504606846976",
                              *point, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "exact_match"
        assert [residual["converged"] for residual in doc["float_residuals"]] == [False] * 6

    def test_negative_value_attached_with_equals(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "1.4",
            "--alpha", "1/2", "--beta=-3/2", "--output", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["params"]["beta"] == "-3/2"
        assert doc["status"] == "inadmissible"

    def test_in_range_gamma_ratio_gets_a_verdict(self, capsys):
        # the Gamma ratio's numerators alone overflow a double, the ratio does not
        code, out, _ = invoke(
            capsys, "verify", "--identity", "1.8", "--alpha", "100", "--beta", "101", "--gamma", "150",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "float_only_pass"
        (residual,) = doc["float_residuals"]
        assert math.isclose(residual["rhs"], 4.131672227880898948e41, rel_tol=1e-14)  # mpmath, 40 digits
        assert residual["relative_error"] < 1e-14

    def test_params_come_in_point_order(self, capsys):
        argv = ["verify", "--identity", "1.8", "--alpha", "1/3", "--beta", "2/5", "--gamma", "7/3", "--output"]
        code, out, _ = invoke(capsys, *argv, "json")
        assert code == 0
        assert list(json.loads(out)["params"]) == ["alpha", "beta", "gamma"]
        code, out, _ = invoke(capsys, *argv, "text")
        assert code == 0
        assert out.splitlines()[1] == "params:   alpha=1/3 beta=2/5 gamma=7/3"
        code, out, _ = invoke(capsys, *argv, "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("1.8,1/3,2/5,7/3,,,,float_only_pass,0,,")

    # a report states only the fields its entry uses, plus the cap of a series
    # entry: an unused CSV column stays empty. A shift, or a degree, the entry
    # does not use is refused (see TestBadRequests), so only an unused beta or
    # gamma is given here
    @pytest.mark.parametrize(
        "point, params, csv_prefix",
        [
            (["--identity", "1.3", "--alpha", "1/2", "--beta", "5/3", "--gamma", "7/3", "--i", "2"],
             {"alpha": "1/2", "beta": "5/3", "i": 2}, "1.3,1/2,5/3,,2,,2,exact_match,"),
            (["--identity", "1.4", "--alpha", "1/3", "--beta", "2/5", "--gamma", "7/3"],
             {"alpha": "1/3", "beta": "2/5"}, "1.4,1/3,2/5,,,,,float_only_pass,"),
            (["--identity", "1.8", "--alpha", "1/3", "--beta", "2/5", "--gamma", "7/3"],
             {"alpha": "1/3", "beta": "2/5", "gamma": "7/3"}, "1.8,1/3,2/5,7/3,,,,float_only_pass,"),
            (["--identity", "1.2", "--alpha", "1/2", "--beta", "2/5", "--gamma", "7/3", "--degree", "6"],
             {"alpha": "1/2", "cap": 6}, "1.2,1/2,,,,,6,exact_match,"),
        ],
        ids=["1.3", "1.4", "1.8", "1.2"],
    )
    def test_report_states_only_the_fields_its_entry_uses(self, capsys, point, params, csv_prefix):
        code, out, _ = invoke(capsys, "verify", *point, "--output", "json")
        assert code == 0
        assert json.loads(out)["params"] == params
        code, out, _ = invoke(capsys, "verify", *point, "--output", "text")
        assert code == 0
        assert out.splitlines()[1] == "params:   " + " ".join(f"{key}={value}" for key, value in params.items())
        code, out, _ = invoke(capsys, "verify", *point, "--output", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith(csv_prefix)
        code, out, _ = invoke(capsys, "sweep", *point)
        assert code == 0
        # the sweep's last point is the requested one
        assert out.splitlines()[-1].startswith(f"{point[1]} " + " ".join(f"{k}={v}" for k, v in params.items()) + ": ")

    def test_csv_single_row(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "1.1",
            "--alpha", "3/7", "--beta", "2/5", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1.1,3/7,2/5,")


class TestSweep:
    def test_csv_grid(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--identity", "2.1",
            "--alpha", "3/7", "--beta", "2/5", "--i", "2", "--j", "2",
            "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("identity,alpha,beta,")
        assert len(lines) == 1 + 9
        assert "hypident: 9/9 points passed" in err

    def test_exit_1_when_a_point_fails(self, capsys):
        code, _, err = invoke(
            capsys, "sweep", "--identity", "1.17",
            "--alpha", "1/2,3/7", "--i", "2",
        )
        assert code == 1
        assert "4/6 points passed" in err

    def test_negative_list_attached_with_equals(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--identity", "1.1",
            "--alpha=-1/2,3/7", "--beta", "1/3", "--output", "json",
        )
        assert code == 0
        assert [r["params"]["alpha"] for r in json.loads(out)] == ["-1/2", "3/7"]

    def test_json_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--identity", "1.2", "--alpha", "3/7,2/5",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["params"]["alpha"] for r in doc] == ["2/5", "3/7"]

    @pytest.mark.parametrize("output", ["text", "csv", "json"])
    def test_tag_list_is_the_single_tag_sweeps_in_tag_order(self, capsys, output):
        point = ["--alpha", "3/7", "--beta", "2/5", "--i", "1", "--j", "0", "--output", output]
        code, out, err = invoke(capsys, "sweep", "--identity", "2.1,2.2,2.3", *point)
        singles = [invoke(capsys, "sweep", "--identity", tag, *point) for tag in ("2.1", "2.2", "2.3")]
        assert [code] + [single[0] for single in singles] == [0, 0, 0, 0]
        want = [record for _, single, _ in singles for record in untimed_records(single, output)]
        if output == "csv":  # one header, then each tag's rows
            want = want[:1] + [record for record in want if record != want[0]]
        assert untimed_records(out, output) == want
        passed, timing = err.splitlines()
        assert passed == "hypident: 6/6 points passed"
        p50, p95, largest = timing_spread(timing, points=6)
        assert p50 <= p95 <= largest

    def test_a_shift_some_listed_tag_uses_is_kept(self, capsys):
        # 2.1 runs i = 0 and 1; 1.2 takes no shift and runs its one point
        code, out, err = invoke(capsys, "sweep", "--identity", "2.1,1.2", "--alpha", "3/7", "--beta", "2/5", "--i", "1",
                                "--output", "json")
        assert code == 0 and "hypident: 3/3 points passed" in err
        assert [(r["identity"], r["params"].get("i")) for r in json.loads(out)] == [("2.1", 0), ("2.1", 1), ("1.2", None)]

    def test_a_degree_some_listed_tag_uses_is_kept(self, capsys):
        # 1.10 runs at cap 20; 1.4 is a scalar check and runs without one
        code, out, err = invoke(capsys, "sweep", "--identity", "1.4,1.10", "--alpha", "3/7", "--beta", "2/5",
                                "--degree", "20", "--output", "json")
        assert code == 0 and "hypident: 2/2 points passed" in err
        assert [(r["identity"], r["params"].get("cap"), r["cap"]) for r in json.loads(out)] == [("1.4", None, None),
                                                                                                ("1.10", 20, 20)]

    @pytest.mark.parametrize("tags", ["2.1,2.1", "2.1,2.2,2.1"])
    def test_a_repeated_tag_exits_2_before_any_point(self, capsys, monkeypatch, tags):
        # repeated alphas and betas are merged; a repeated tag would print
        # every report twice and count its grid twice against the limit
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("a point ran"))
        result = invoke(capsys, "sweep", "--identity", tags, "--alpha", "3/7", "--beta", "2/5")
        assert result == (2, "", f"hypident: error: --identity {tags} names identity 2.1 more than once\n")

    def test_one_point_sweep_has_a_timing_line(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--identity", "1.2", "--alpha", "3/7")
        assert (code, out) == (0, "1.2 alpha=3/7 cap=16: exact_match\n")
        passed, timing = err.splitlines()
        assert passed == "hypident: 1/1 points passed"
        p50, p95, largest = timing_spread(timing, points=1)
        assert p50 == p95 == largest

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--i", "-1"], "--i -1 is below the limit of 0"),
            (["--j", "-2"], "--j -2 is below the limit of 0"),
            (["--degree", "-3"], "--degree -3 is below the limit of 0"),
            (["--degree", str(MAX_DEGREE + 1)], f"--degree {MAX_DEGREE + 1} exceeds the limit of {MAX_DEGREE}"),
            (["--i", str(MAX_SHIFT + 1)], f"--i {MAX_SHIFT + 1} exceeds the limit of {MAX_SHIFT}"),
            (["--j", str(MAX_SHIFT + 1)], f"--j {MAX_SHIFT + 1} exceeds the limit of {MAX_SHIFT}"),
            # every tag's grid is within the limit, their total is not
            (["--i", "60", "--j", "60"], f"sweep grid of {3 * 61 * 61} points exceeds the limit of {MAX_SWEEP_POINTS}"),
            (["--alpha", "1/0"], "zero denominator in rational literal '1/0'"),  # the later --alpha counts
        ],
        ids=["negative-i", "negative-j", "negative-degree", "degree-over", "i-over", "j-over", "points-over", "1/0"],
    )
    def test_product_grid_refusal_exits_2_at_once(self, capsys, extra, message):
        start = time.perf_counter()
        result = invoke(capsys, "sweep", "--identity", "2.1,2.2,2.3", "--alpha", "3/7", "--beta", "2/5", *extra)
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", f"hypident: error: {message}\n")

    @pytest.mark.parametrize(
        "extra, needle",
        [
            (["--alpha", "3/7"], "sweep grid is empty"),  # --beta forgotten
            (["--alpha", ",", "--beta", "2/5"], "sweep grid is empty"),
            (["--alpha", "3/7", "--beta", "2/5", "--i", "-1"], "--i -1 is below the limit of 0"),
        ],
        ids=["no-beta", "no-alpha", "negative-i"],
    )
    def test_empty_or_malformed_grid_exits_2(self, capsys, extra, needle):
        code, out, err = invoke(capsys, "sweep", "--identity", "2.1", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("hypident: error:")
        assert needle in err


class TestExpand:
    def test_json_coefficients_are_exact_rationals(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--identity", "1.10",
            "--alpha", "3/7", "--beta", "2/5", "--degree", "6",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["side"] == "rhs"
        assert doc["cap"] == 6
        coeffs = [parse_rational(c) for c in doc["coefficients"]]
        assert len(coeffs) == 7
        assert coeffs[0] == 1
        assert coeffs[1] == 1  # both factors contribute x/2 at these parameters

    def test_lhs_equals_rhs_here(self, capsys):
        _, out_l, _ = invoke(
            capsys, "expand", "--identity", "1.10", "--alpha", "3/7",
            "--beta", "2/5", "--degree", "8", "--side", "lhs", "--output", "json",
        )
        _, out_r, _ = invoke(
            capsys, "expand", "--identity", "1.10", "--alpha", "3/7",
            "--beta", "2/5", "--degree", "8", "--side", "rhs", "--output", "json",
        )
        assert json.loads(out_l)["coefficients"] == json.loads(out_r)["coefficients"]

    def test_text_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--identity", "1.2", "--alpha", "3/7", "--degree", "4",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1 + ")

    @pytest.mark.parametrize(
        "output, want",
        [
            ("csv", "degree,coefficient\n0,1\n1,0\n2,1/16\n3,0\n4,1/1024\n"),
            ("text", "1.2 rhs at alpha=1/2 cap=4:\n1 + 1/16*x^2 + 1/1024*x^4\n"),
        ],
    )
    def test_output_is_pinned(self, capsys, output, want):
        argv = ["expand", "--identity", "1.2", "--alpha", "1/2", "--degree", "4", "--output", output]
        assert invoke(capsys, *argv) == (0, want, "")

    def test_scalar_kind_is_an_error(self, capsys):
        code, _, err = invoke(
            capsys, "expand", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5",
        )
        assert code == 2
        assert "scalar check" in err


class TestEval:
    def test_series_eval_json(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "--identity", "2.1",
            "--alpha", "3/7", "--beta", "2/5", "--i", "1", "--j", "1",
            "--x", "0.75", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 0.75
        assert doc["converged"] is True
        assert doc["relative_error"] < 1e-12

    def test_fixed_argument_sum_needs_no_x(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "--identity", "1.4",
            "--alpha", "1/3", "--beta", "2/5", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 0.5
        assert doc["relative_error"] < 1e-12

    def test_float_sum_residual_is_scaled_by_its_terms(self, capsys):
        # the closed form is exactly 0 here; the float sum is rounding noise
        code, out, _ = invoke(
            capsys, "eval", "--identity", "1.8", "--alpha=-3", "--beta", "2/5",
            "--gamma", "7/3", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rhs"] == 0.0
        assert doc["relative_error"] < 1e-15

    # the floats of the exact sides, pinned byte for byte in every rendering
    @pytest.mark.parametrize(
        "point, json_tail, csv_row, text",
        [
            (["--alpha", "1/2", "--beta", "5/3", "--i", "0"],
             '"x": 1.0,\n  "lhs": 1.0,\n  "rhs": 1.0,\n  "relative_error": 0.0,\n  "converged": true\n}\n',
             "1.3,1.0,1.0,1.0,0.0,True\n",
             "1.3 at x = 1, alpha=1/2 beta=5/3 i=0:\n  lhs = 1.0\n  rhs = 1.0\n  rel = 0.000e+00\n"),
            (["--alpha", "1/2", "--beta", "5/3", "--i", "7"],
             '"x": 1.0,\n  "lhs": 0.34575577332124796,\n  "rhs": 0.34575577332124796,\n'
             '  "relative_error": 0.0,\n  "converged": true\n}\n',
             "1.3,1.0,0.34575577332124796,0.34575577332124796,0.0,True\n",
             "1.3 at x = 1, alpha=1/2 beta=5/3 i=7:\n  lhs = 0.34575577332124796\n"
             "  rhs = 0.34575577332124796\n  rel = 0.000e+00\n"),
            # (-5)_k vanishes only from k = 6, after the sum stops at n = 3
            (["--alpha=-7", "--beta=-5", "--i", "3"],
             '"x": 1.0,\n  "lhs": -0.4,\n  "rhs": -0.4,\n  "relative_error": 0.0,\n  "converged": true\n}\n',
             "1.3,1.0,-0.4,-0.4,0.0,True\n",
             "1.3 at x = 1, alpha=-7 beta=-5 i=3:\n  lhs = -0.4\n  rhs = -0.4\n  rel = 0.000e+00\n"),
        ],
        ids=["n=0", "n=7", "c=-5,n=3"],
    )
    def test_terminating_sum_output_is_pinned(self, capsys, point, json_tail, csv_row, text):
        argv = ["eval", "--identity", "1.3", *point, "--output"]
        code, out, err = invoke(capsys, *argv, "json")
        assert (code, err) == (0, "")
        assert out.startswith('{\n  "identity": "1.3",\n  "params": {') and out.endswith("},\n  " + json_tail)
        assert invoke(capsys, *argv, "csv") == (0, "identity,x,lhs,rhs,relative_error,converged\n" + csv_row, "")
        assert invoke(capsys, *argv, "text") == (0, text, "")

    @pytest.mark.parametrize(
        "output, want",
        [
            ("csv", "identity,x,lhs,rhs,relative_error,converged\n"
                    "1.1,0.5,1.2155539976890404,1.2155539976890404,0.0,True\n"),
            ("text", "1.1 at x = 0.5, alpha=1/2 beta=1/3 cap=16:\n  lhs = 1.2155539976890404\n"
                     "  rhs = 1.2155539976890404\n  rel = 0.000e+00\n"),
        ],
    )
    def test_series_output_is_pinned(self, capsys, output, want):
        argv = ["eval", "--identity", "1.1", "--alpha", "1/2", "--beta", "1/3", "--x", "0.5", "--output", output]
        assert invoke(capsys, *argv) == (0, want, "")

    def test_terminating_sum_evaluates_exactly(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "--identity", "1.3",
            "--alpha", "1/2", "--beta", "5/3", "--i", "4", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 1.0
        assert doc["relative_error"] == 0.0

    @pytest.mark.parametrize(
        "tag, point, x",
        [
            # neither float side converges: no finite residual, as in verify
            ("1.1", dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)), 650.0),
            ("2.1", dict(alpha=Fraction(3, 7), beta=Fraction(2, 5), i=1, j=1), 0.75),
            ("1.4", dict(alpha=Fraction(1, 3), beta=Fraction(2, 5)), None),
        ],
        ids=["unconverged", "series", "float-sum"],
    )
    def test_reports_what_verify_reports(self, capsys, tag, point, x):
        argv = [arg for key, value in point.items() for arg in (f"--{key}", str(value))]
        if x is not None:
            argv += ["--x", str(x)]
        code, out, _ = invoke(capsys, "eval", "--identity", tag, *argv, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        report = verify_identity(tag, IdentityParams(**point), float_points=(x,) if x is not None else ())
        (residual,) = report.float_residuals
        expected = residual.to_json_dict()
        fields = ("x", "lhs", "rhs", "relative_error", "converged")
        assert [doc[key] for key in fields] == [expected[key] for key in fields]
        if tag == "1.1":
            assert (doc["relative_error"], doc["converged"]) == (None, False)

    @pytest.mark.parametrize(
        "tag, point, x, expr",
        [
            # the sum diverges: ungated, it spent its whole term budget and exited 0
            ("1.8", dict(alpha=Fraction(1, 3), beta=Fraction(2, 5), gamma=Fraction(-1, 7)), None,
             "2*gamma - alpha - beta + 1"),
            ("2.1", dict(alpha=Fraction(0), beta=Fraction(2, 5)), 1.0, "2*alpha + i"),
            ("1.4", dict(alpha=Fraction(-1), beta=Fraction(-2)), None, "(alpha + beta + 1)/2"),
        ],
        ids=["1.8-divergent", "2.1-zero-lower", "1.4-zero-lower"],
    )
    def test_inadmissible_point_is_refused_before_float_work(self, capsys, monkeypatch, tag, point, x, expr):
        # the gate verify asks, with its first finding on stderr
        calls = []
        real = identities.pfq_eval_float
        monkeypatch.setattr(identities, "pfq_eval_float", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        argv = [f"--{key}={value}" for key, value in point.items()] + ([] if x is None else ["--x", str(x)])
        code, out, err = invoke(capsys, "eval", "--identity", tag, *argv, "--output", "json")
        first = check_admissible(tag, IdentityParams(**point))[0]
        assert (code, out, calls) == (2, "", [])
        assert first.parameter_expr == expr
        assert err == f"hypident: error: inadmissible: {first.detail}\n"

    def test_gamma_ratio_below_its_partial_products(self, capsys):
        # the ratio's numerators alone underflow a double, the ratio does not;
        # the float sum is off by 1.5% here, so only the rhs is checked, against
        # the exact sum of the 15 terms
        a, b, c = Fraction(-301, 3), Fraction(-14), Fraction(-1311, 11)
        code, out, _ = invoke(capsys, "eval", "--identity", "1.8", f"--alpha={a}", f"--beta={b}", f"--gamma={c}",
                              "--output", "json")
        assert code == 0
        exact = sum(
            pochhammer(a, k) * pochhammer(b, k) * pochhammer(c, k)
            / (pochhammer((a + b + 1) / 2, k) * pochhammer(2 * c, k) * math.factorial(k))
            for k in range(15)
        )
        assert math.isclose(json.loads(out)["rhs"], float(exact), rel_tol=1e-14)

    @pytest.mark.parametrize(
        "tag, point, fixed",
        [
            ("1.3", ["--alpha", "1/2", "--beta", "5/3", "--i", "2"], "1"),
            ("1.4", ["--alpha", "1/3", "--beta", "1/5"], "0.5"),
            ("1.8", ["--alpha", "1/3", "--beta", "1/5", "--gamma", "1/7"], "1"),
        ],
        ids=["1.3", "1.4", "1.8"],
    )
    def test_scalar_entry_refuses_x(self, capsys, tag, point, fixed):
        # even at the entry's own fixed argument: --x would read as honoured
        for x in ("7", fixed):
            assert invoke(capsys, "eval", "--identity", tag, *point, "--x", x) == (
                2, "", f"hypident: error: identity {tag} is summed at its fixed argument x = {fixed}, "
                       "so it takes no x\n",
            )

    def test_series_eval_without_x_is_an_error(self, capsys):
        code, _, err = invoke(
            capsys, "eval", "--identity", "1.1", "--alpha", "3/7", "--beta", "2/5",
        )
        assert code == 2
        assert "needs --x" in err

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_exits_2(self, capsys, x):
        # JSON has no token for these values; json.dumps would print NaN/Infinity
        code, out, err = invoke(
            capsys, "eval", "--identity", "1.1", "--alpha", "1/2", "--beta", "1/3",
            f"--x={x}", "--output", "json",
        )
        assert code == 2
        assert out == ""
        assert "--x must be a finite number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # both float sides come back NaN
            ["--identity", "1.1", "--alpha", "1/2", "--beta", "1/3", "--x", "800", "--output", "json"],
            # both float sides are inf, and rendered "converged": true
            ["--identity", "2.1", "--alpha", "1/2", "--beta", "2/5", "--x", "400", "--output", "json"],
            # e**(-x) raises OverflowError
            ["--identity", "1.1", "--alpha", "1/2", "--beta", "1/3", "--x=-800"],
        ],
    )
    def test_overflowing_side_exits_2(self, capsys, argv):
        code, out, err = invoke(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("hypident: error:")
        assert "overflows at --x" in err


class TestBadRequests:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["verify", "--identity", "9.9", "--alpha", "1/2"], "unknown identity tag"),
            (["verify", "--identity", "1.1", "--alpha", "0.5", "--beta", "1/3"], "not a p/q rational"),
            (["verify", "--identity", "1.1", "--alpha", "1/0", "--beta", "1/3"], "zero"),
            (["verify", "--identity", "1.1", "--alpha", "1/2"], "beta"),
            (["verify", "--identity", "1.8", "--alpha", "-2", "--beta", "1/3"], "gamma"),
            (["verify", "--identity", "1.1", "--alpha", "1/2", "--beta", "1/3", "--i", "-1"],
             "--i -1 is below the limit of 0"),
            (["verify", "--identity", "1.4", "--alpha", "400", "--beta", "401"], "Gamma(401) overflows"),
            (["eval", "--identity", "1.4", "--alpha", "400", "--beta", "401"], "Gamma(401) overflows"),
            (["verify", "--identity", "1.8", "--alpha", "300", "--beta", "301", "--gamma", "400"],
             "Gamma(801/2) overflows"),
            # a bad tag anywhere in a sweep's list refuses the whole sweep
            (["sweep", "--identity", "2.1,9.9,2.3", "--alpha", "3/7", "--beta", "2/5"], "unknown identity tag '9.9'"),
            # both exact sides are finite rationals far past the double range
            (["eval", "--identity", "1.3", "--alpha=-100000000", "--beta", "1/3", "--i", "64",
              "--output", "json"], "a float side of identity 1.3 overflows at x = 1"),
            # math.gamma of a factor returns 0.0 away from a pole
            (["verify", "--identity", "1.4", "--alpha=-400", "--beta", "1/3"], "Gamma(-598/3) underflows a double"),
            # so does one tag whose grid is empty, though another's is not
            (["sweep", "--identity", "1.2,2.1", "--alpha", "3/7"],
             "sweep grid is empty: identity 2.1 needs at least one value of --alpha, --beta"),
            # the 1.3 overflow above, in the other two renderings
            *[(["eval", "--identity", "1.3", "--alpha=-100000000", "--beta", "1/3", "--i", "64",
                "--output", output], "a float side of identity 1.3 overflows at x = 1")
              for output in ("csv", "text")],
            # a reduced numerator or denominator past the bit limit, in each
            # rational option of each command; 10**400 used to overflow a float
            (["verify", "--identity", "1.4", "--alpha", str(10**400), "--beta", "1/3"],
             f"--alpha: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            (["verify", "--identity", "2.1", "--alpha", "3/7", "--beta", f"1/{2**MAX_RATIONAL_BITS}"],
             f"--beta: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            (["eval", "--identity", "1.8", "--alpha", "1/3", "--beta", "2/5", "--gamma", f"{2**MAX_RATIONAL_BITS}/3"],
             f"--gamma: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            (["expand", "--identity", "1.2", f"--alpha=-{2**70}/3"],
             f"--alpha: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            (["sweep", "--identity", "2.1", "--alpha", f"3/7,1/{2**MAX_RATIONAL_BITS + 1}", "--beta", "2/5"],
             f"--alpha: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            (["sweep", "--identity", "1.8", "--alpha", "1/3", "--beta", f"2/5,{2**MAX_RATIONAL_BITS}", "--gamma", "1/7"],
             f"--beta: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits"),
            # a shift the entry does not use is refused, not dropped
            (["verify", "--identity", "1.2", "--alpha", "1/2", "--i", "1"], "identity 1.2 takes no shift i, got i = 1"),
            (["verify", "--identity", "1.17", "--alpha", "1/2", "--i", "1", "--j", "2"],
             "identity 1.17 takes no shift j, got j = 2"),
            (["expand", "--identity", "1.9", "--alpha", "1/2", "--j", "1"], "identity 1.9 takes no shift j, got j = 1"),
            (["eval", "--identity", "1.4", "--alpha", "1/2", "--beta", "1/3", "--i", "3"],
             "identity 1.4 takes no shift i, got i = 3"),
            # a printed form is refused by every entry that has no reading of it,
            # in a sweep before any point of any tag runs
            (["verify", "--identity", "2.1", "--alpha", "1/2", "--beta", "1/3", "--printed-form"],
             "identity 2.1 takes no printed_form: only 2.3 and 3.3 have a printed-form reading"),
            (["expand", "--identity", "3.1", "--alpha", "1/2", "--printed-form"], "identity 3.1 takes no printed_form"),
            (["sweep", "--identity", "2.1,2.3", "--alpha", "1/2", "--beta", "1/3", "--printed-form"],
             "identity 2.1 takes no printed_form"),
            (["sweep", "--identity", "2.3,2.1", "--alpha", "1/2", "--beta", "1/3", "--i", "2", "--printed-form"],
             "identity 2.1 takes no printed_form"),
            # in a sweep, a shift that none of the listed tags uses
            (["sweep", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5", "--i", "3"],
             "--i 3: none of the identities 1.4 takes shift i"),
            (["sweep", "--identity", "1.17,1.2", "--alpha", "1/2", "--i", "1", "--j", "2"],
             "--j 2: none of the identities 1.17,1.2 takes shift j"),
            # a degree is refused by every scalar entry, in a sweep only when
            # none of the listed tags is a series entry
            (["verify", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5", "--degree", "20"],
             "identity 1.4 takes no cap (--degree): it is a scalar check, got cap = 20"),
            (["sweep", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5", "--degree", "20"],
             "--degree 20: none of the identities 1.4 is a series entry"),
            (["verify", "--identity", "1.3", "--alpha", "1/3", "--beta", "2/5", "--i", "3", "--degree", "20"],
             "identity 1.3 takes no cap (--degree)"),
            (["expand", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5", "--degree", "0"],
             "identity 1.4 takes no cap (--degree)"),
            (["eval", "--identity", "1.8", "--alpha", "1/3", "--beta", "2/5", "--gamma", "5", "--degree", "20"],
             "identity 1.8 takes no cap (--degree)"),
        ],
    )
    def test_exit_2_with_message(self, capsys, argv, needle):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("hypident: error:")
        assert needle in err

    def test_unknown_subcommand_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_tol_is_not_an_option(self, capsys, command):
        # every float verdict is judged at the one threshold DEFAULT_FLOAT_TOL
        with pytest.raises(SystemExit) as exc:
            run([command, "--identity", "1.8", "--alpha", "1/3", "--beta", "1/5", "--gamma", "1/7", "--tol", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err


class TestRequestLimits:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["verify", "--identity", "2.1", "--alpha", "1/3", "--beta", "1/5",
              "--degree", "100000"], f"--degree 100000 exceeds the limit of {MAX_DEGREE}"),
            (["sweep", "--identity", "2.1", "--alpha", "1/3", "--beta", "1/5",
              "--i", "65"], f"--i 65 exceeds the limit of {MAX_SHIFT}"),
            (["expand", "--identity", "2.2", "--alpha", "1/3", "--beta", "1/5",
              "--j", str(MAX_SHIFT + 1)], f"--j {MAX_SHIFT + 1} exceeds"),
            (["eval", "--identity", "1.1", "--alpha", "1/3", "--beta", "1/5", "--x", "1",
              "--degree", str(MAX_DEGREE + 1)], f"limit of {MAX_DEGREE}"),
            # 3 * 3 * 41 * 41 = 15129 points, every shift within its own limit
            (["sweep", "--identity", "2.1", "--alpha", "1/3,1/7,1/11",
              "--beta", "1/5,1/9,1/13", "--i", "40", "--j", "40"],
             f"sweep grid of 15129 points exceeds the limit of {MAX_SWEEP_POINTS}"),
            # the option, not the library field IdentityParams.cap
            (["verify", "--identity", "2.1", "--alpha", "1/3", "--beta", "1/5",
              "--degree", "-3"], "--degree -3 is below the limit of 0"),
            # a negative shift names its option in every command, as in a sweep
            (["verify", "--identity", "2.1", "--alpha", "1/3", "--beta", "1/5",
              "--i", "-1"], "--i -1 is below the limit of 0"),
            (["expand", "--identity", "1.17", "--alpha", "1/3", "--i", "-2"], "--i -2 is below the limit of 0"),
            (["eval", "--identity", "2.2", "--alpha", "1/3", "--beta", "1/5", "--j", "-1",
              "--x", "1"], "--j -1 is below the limit of 0"),
            # the slowest request the limits admit, with alpha one bit past its limit
            (["verify", "--identity", "2.1", "--alpha", f"3/{2**MAX_RATIONAL_BITS}", "--beta", "2/5",
              "--i", "64", "--j", "64", "--degree", "512"], f"exceeds the limit of {MAX_RATIONAL_BITS} bits"),
        ],
    )
    def test_oversized_request_exits_2_at_once(self, capsys, argv, needle):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert needle in err

    def test_limits_are_inclusive(self, capsys):
        code, out, _ = invoke(capsys, "expand", "--identity", "1.17", "--alpha", "1/3",
                              "--i", str(MAX_SHIFT), "--degree", "0", "--output", "json")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1"]
        # reduced, the numerator and denominator have MAX_RATIONAL_BITS bits each
        code, _, _ = invoke(capsys, "expand", "--identity", "1.2", "--degree", "2",
                            "--alpha", f"{2**(MAX_RATIONAL_BITS + 1) - 2}/{2**MAX_RATIONAL_BITS}")
        assert code == 0

    def test_sweep_grid_counts_distinct_values(self, capsys):
        # a repeated alpha is visited once, so this 2-point grid is allowed
        code, _, err = invoke(capsys, "sweep", "--identity", "1.2", "--alpha", "1/3,1/3,2/7")
        assert code == 0
        assert "2/2 points passed" in err


@pytest.fixture
def parser_builds(monkeypatch):
    """Count the calls of ``cli.build_parser``, from a cold shared parser."""
    count = [0]

    def counting_build_parser():
        count[0] += 1
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    yield count
    cli._shared_parser.cache_clear()


class TestSharedParser:
    def test_parser_is_built_once_across_requests(self, capsys, parser_builds):
        for argv in (["list", "--output", "json"],
                     ["verify", "--identity", "1.3", "--alpha", "1/2", "--beta", "5/3", "--i", "4"],
                     ["eval", "--identity", "1.4", "--alpha", "1/3", "--beta", "2/5"],
                     ["verify", "--identity", "9.9", "--alpha", "1/2"]):
            invoke(capsys, *argv)
        assert parser_builds[0] == 1

    def test_rejected_request_leaves_no_state(self, capsys, parser_builds):
        argv = ["verify", "--identity", "2.1", "--alpha", "3/7", "--beta", "2/5",
                "--i", "2", "--j", "1", "--output", "json"]

        def verify_once():
            code, out, err = invoke(capsys, *argv)
            doc = json.loads(out)
            del doc["elapsed_seconds"]
            return code, doc, err

        first = verify_once()
        # argparse has taken --degree and --printed-form when it rejects --i
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--identity", "2.3", "--alpha", "1/2", "--degree", "5",
                 "--printed-form", "--i", "x", "--output", "csv"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert verify_once() == first


def test_parser_builds_and_documents_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("list", "verify", "sweep", "expand", "eval"):
        assert name in text


@pytest.mark.skipif(shutil.which("hypident") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["hypident", "verify", "--identity", "1.10", "--alpha", "3/7",
         "--beta", "2/5", "--output", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "exact_match"


def test_fresh_interpreter_smoke():
    proc = subprocess.run(
        [sys.executable, "-c", "from hypident.cli import run; raise SystemExit(run(['list']))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "2.3" in proc.stdout


def test_import_does_not_load_statistics():
    # only a sweep's timing line needs it, and it imports it itself
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypident.cli; print('statistics' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_import_does_not_load_the_output_formats():
    # a cold process loads json or csv only when it writes that output
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypident.cli; print('json' in sys.modules, 'csv' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr


def test_module_entry_point_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "hypident.cli", "list"],
        capture_output=True, text=True, timeout=120, env=src_env(),
    )
    assert proc.returncode == 0
    for d in catalog():
        assert f"{d.tag:>5}  {d.name}" in proc.stdout


def test_closed_stdout_ends_the_output_quietly():
    # 625 KB of JSON, far more than a pipe holds: the reader closes after one line
    argv = ["expand", "--identity", "1.10", "--alpha", "3/7", "--beta", "2/5", "--degree", "512", "--output", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypident.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
