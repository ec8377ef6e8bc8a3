"""The command lines the other tests and the corpus do not run: the large
grids, the long sides and every command once. Each runs in process through
``cli.run``, from cleared memos, as cold as a fresh ``hypident`` process;
``tests/test_cli.py::test_console_script_smoke`` runs each command once
through the installed entry point."""

import csv
import io
import json
import re
import shlex

import pytest

from hypident import identities
from hypident.cli import run


def hypident(capsys, command):
    """``hypident command``'s exit status, stdout and stderr, run from cleared memos."""
    identities._clear_memos()
    code = run(shlex.split(command))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr(pattern):
    """A line of stderr matches ``pattern``, as ``grep -q`` finds it."""
    return lambda out, err: re.search(pattern, err, re.M) is not None


def EXACT(out, err):
    """The JSON report on stdout is an exact match."""
    return json.loads(out)["status"] == "exact_match"

# a row is a command line, its exit status and one expectation on (stdout, stderr)
CASES = [
    # the benchmark's grid (nine weights a factor, cap 48) and the long
    # columns of 2.1 at i, j <= 20 (21 weights, cap 96)
    ("sweep --identity 2.1,2.2,2.3 --alpha 3/7 --beta 2/5 --i 8 --j 8", 0, stderr("243/243 points passed")),
    ("sweep --identity 2.1 --alpha 3/7 --beta 2/5 --i 20 --j 20", 0, stderr("441/441 points passed")),
    # the equal-parameter forms
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 12 --j 12", 0, stderr("507/507 points passed")),
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 20 --j 20", 0, stderr("1323/1323 points passed")),
    # left sides at cap 96 from the factors' differential equations: lone
    # 1F1/0F1 factors (1.1, 1.2, 1.5, 1.17, 1.18) and pairs (the rest)
    *[(f"verify --identity {point} --alpha 3/7 --degree 96 --output json", 0, EXACT) for point in (
        "1.1 --beta 2/5", "1.2", "1.5", "1.6", "1.7 --beta 2/5", "1.9", "1.10 --beta 2/5", "1.11 --beta 2/5", "1.12",
        "1.13", "1.17 --i 2", "1.18 --i 2", "3.1 --i 4 --j 4")],
    # lower parameters that sum to a negative integer, of a pair or of an
    # exponential right side's block, take one degree from its definition;
    # tests/test_identities.py runs these points at cap 96
    *[(f"verify --identity {point} --output json", 0, EXACT) for point in (
        "1.9 --alpha=-1/4", "1.12 --alpha=-3/4", "1.10 --alpha=-3/4 --beta=-3/4")],
    # right sides at degree 512, the most a request may ask: from the pFq
    # kernel (1.1, 1.7, 1.17), by the double sum times e**x (3.1), and by
    # each term's own recurrence times e**x (1.5, 1.9, 1.10, 1.12, 1.13); 1.11
    *[(f"verify --identity {point} --degree 512 --output json", 0, EXACT) for point in (
        "1.11 --alpha 3/7 --beta 2/5", "1.1 --alpha 3/7 --beta 2/5", "1.5 --alpha 3/7", "1.7 --alpha 3/7 --beta 2/5",
        "1.9 --alpha 3/7", "1.10 --alpha 3/7 --beta 2/5", "1.12 --alpha 3/7", "1.13 --alpha 3/7",
        "1.17 --alpha 3/7 --i 8", "3.1 --alpha 3/7 --i 4 --j 4")],
    ("expand --identity 1.10 --alpha 3/7 --beta 2/5 --degree 512 --output json", 0,
     lambda out, err: len(json.loads(out)["coefficients"]) == 513),
    ("list --output csv", 0, lambda out, err: out.count("\n") == 22),
]


@pytest.mark.parametrize("command, code, expect", CASES, ids=[case[0] for case in CASES])
def test_command(capsys, command, code, expect):
    got, out, err = hypident(capsys, command)
    assert got == code, err[-300:]
    assert expect(out, err), err[-300:]


def test_no_command_line_is_listed_twice():
    # pytest would run a repeated row under a suffixed id, not refuse it
    commands = [case[0] for case in CASES]
    assert len(commands) == len(set(commands))


def test_sweep_against_verify(capsys):
    """A sweep's points share each factor's expansion and the cached span rows of their class of
    rho + sigma, (29, 35) at alpha 3/7 and -11/7 and (11, 15) at 1/3, so a point reads rows that
    earlier points built: its rows must equal single-point verifies but in elapsed_seconds and
    max_float_residual."""
    code, out, err = hypident(
        capsys, "sweep --identity 2.1,2.2,2.3 --alpha 3/7,-11/7,1/3 --beta 2/5,-13/5 --i 3 --j 3 --output csv")
    assert code == 0, err[-300:]
    swept, differ = list(csv.DictReader(io.StringIO(out))), []
    for row in swept:
        verify = "verify --identity {identity} --alpha={alpha} --beta={beta} --i {i} --j {j} --output csv"
        (single,) = csv.DictReader(io.StringIO(hypident(capsys, verify.format(**row))[1]))
        assert row.pop("max_float_residual") == "" and single.pop("max_float_residual") != "", row
        del row["elapsed_seconds"], single["elapsed_seconds"]
        differ += [] if row == single else [(row, single)]
    assert len(swept) == 288 and not differ, f"{len(swept)} rows, differing: {differ[:2]}"


def test_printed_form_of_3_3_agrees_with_2_3(capsys):
    """The printed form composed from the 2.x expansions at beta = alpha and the one written with
    alpha alone for 3.3: every point's status and mismatches, degree and both values, agree."""
    command = "sweep --identity {} --i 2 --j 2 --printed-form --output json"
    _, composed, _ = hypident(capsys, command.format("2.3 --alpha 3/7 --beta 3/7"))
    code, written, err = hypident(capsys, command.format("3.3 --alpha 3/7"))
    reading = lambda out: [(report["status"], report["mismatches"]) for report in json.loads(out)]
    assert code == 1, err[-300:]
    assert reading(written) == reading(composed)


@pytest.mark.parametrize("point", ["2.1 --alpha 3/7 --beta 2/5 --i 6 --j 6", "3.1 --alpha 3/7 --i 4 --j 4",
                                   "1.17 --alpha 3/7 --i 8", "1.13 --alpha 3/7"])
def test_float_cross_check_against_eval(capsys, point):
    """An exact match, six converged float residuals and eval's two sides at x = 2, for a product
    side (2.1) and e**x by a ProductSide's times_exp (3.1) and by each term's recurrence (1.17, 1.13)."""
    eval_code, at_two, _ = hypident(capsys, f"eval --identity {point} --x 2 --output json")
    code, out, err = hypident(capsys, f"verify --identity {point} --output json")
    assert (code, eval_code) == (0, 0), err[-300:]
    residuals = json.loads(out)["float_residuals"]
    (residual,) = [r for r in residuals if r["x"] == 2.0]
    sides = json.loads(at_two)
    assert EXACT(out, err) and len(residuals) == 6 and all(r["converged"] for r in residuals)
    assert (sides["lhs"], sides["rhs"]) == (residual["lhs"], residual["rhs"])
