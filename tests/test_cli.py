"""End-to-end tests for the command-line interface.

Everything goes through `run(argv)` with captured stdio, so these tests
exercise exactly what a shell user sees: stdout payloads, stderr
diagnostics, and exit codes.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hypident.cli import MAX_DEGREE, MAX_SHIFT, MAX_SWEEP_POINTS, build_parser, run
from hypident.identities import catalog
from hypident.rationals import parse_rational

ALL_TAGS = [d.tag for d in catalog()]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text_mentions_every_tag(self, capsys):
        code, out, _ = invoke(capsys, "list")
        assert code == 0
        for tag in ALL_TAGS:
            assert f"{tag:>5}  " in out

    def test_json_is_a_full_catalog(self, capsys):
        code, out, _ = invoke(capsys, "list", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert [entry["identity"] for entry in doc] == ALL_TAGS
        assert all({"name", "kind", "uses", "summary"} <= set(e) for e in doc)

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

    def test_json_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--identity", "1.2", "--alpha", "3/7,2/5",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["params"]["alpha"] for r in doc] == ["2/5", "3/7"]


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

    def test_terminating_sum_evaluates_exactly(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "--identity", "1.3",
            "--alpha", "1/2", "--beta", "5/3", "--i", "4", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 1.0
        assert doc["relative_error"] == 0.0

    def test_series_eval_without_x_is_an_error(self, capsys):
        code, _, err = invoke(
            capsys, "eval", "--identity", "1.1", "--alpha", "3/7", "--beta", "2/5",
        )
        assert code == 2
        assert "needs --x" in err


class TestBadRequests:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["verify", "--identity", "9.9", "--alpha", "1/2"], "unknown identity tag"),
            (["verify", "--identity", "1.1", "--alpha", "0.5", "--beta", "1/3"], "not a p/q rational"),
            (["verify", "--identity", "1.1", "--alpha", "1/0", "--beta", "1/3"], "zero"),
            (["verify", "--identity", "1.1", "--alpha", "1/2"], "beta"),
            (["verify", "--identity", "1.8", "--alpha", "-2", "--beta", "1/3"], "gamma"),
            (["verify", "--identity", "1.1", "--alpha", "1/2", "--beta", "1/3", "--i", "-1"], "nonnegative"),
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

    def test_sweep_grid_counts_distinct_values(self, capsys):
        # a repeated alpha is visited once, so this 2-point grid is allowed
        code, _, err = invoke(capsys, "sweep", "--identity", "1.2", "--alpha", "1/3,1/3,2/7")
        assert code == 0
        assert "2/2 points passed" in err


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


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hypident.cli", "list"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    for d in catalog():
        assert f"{d.tag:>5}  {d.name}" in proc.stdout
