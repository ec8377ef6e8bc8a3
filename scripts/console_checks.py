#!/usr/bin/env python3
r"""Run the ``hypident`` found on PATH, each command in a fresh process, at
the cases the tests do not run: the large grids, the long sides and every
command once, so that the installed entry point is covered too.

    python3 scripts/console_checks.py

On a working tree that is not installed, through a shim:

    shim=$(mktemp -d)
    printf '#!/bin/sh\nPYTHONPATH="%s/src" exec python3 -m hypident.cli "$@"\n' "$PWD" > "$shim/hypident"
    chmod +x "$shim/hypident" && PATH="$shim:$PATH" python3 scripts/console_checks.py

A row of ``CASES`` is a command line, its exit status and one expectation on
``(stdout, stderr)``; a check of several commands is a function in the
table. A command still running after ``TIMEOUT`` seconds is killed and fails
its check. Prints one line per check, then the failures; exits 1 if any fails.
"""

import csv
import io
import json
import re
import shlex
import subprocess
import sys


# seconds a command may run before it is killed and its check fails; the
# slowest, a 3.x sweep at i, j <= 20, takes about 5 s
TIMEOUT = 300


def hypident(command: str) -> subprocess.CompletedProcess:
    """``hypident command`` run to its end, or killed after ``TIMEOUT`` seconds
    and given the exit status None, which fails its check as timed out."""
    try:
        return subprocess.run(["hypident", *shlex.split(command)], capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as hung:  # what it wrote so far, as bytes
        return subprocess.CompletedProcess(command, None, "", (hung.stderr or b"").decode(errors="replace"))


def status(want: str):
    """The JSON report on stdout has status ``want``."""
    return lambda out, err: json.loads(out)["status"] == want


def stderr(pattern: str):
    """A line of stderr matches ``pattern``, as ``grep -q`` finds it."""
    return lambda out, err: re.search(pattern, err, re.M) is not None


EXACT = status("exact_match")


def judge(label: str, done: subprocess.CompletedProcess, code: int, expect) -> tuple[str, str | None]:
    """``(label, None)`` when ``done`` exited ``code`` and ``expect(stdout, stderr)`` holds, else ``(label, why)``."""
    if done.returncode is None:
        return label, f"timed out after {TIMEOUT} s; stderr ends {done.stderr[-300:]!r}"
    try:
        why = None if expect(done.stdout, done.stderr) else "expectation not met"
    except Exception as exc:  # an output the expectation cannot read fails the case
        why = f"{type(exc).__name__}: {exc}"
    if done.returncode != code:
        why = f"exit {done.returncode}, expected {code}" + (f"; {why}" if why else "")
    return label, why and f"{why}; stderr ends {done.stderr[-300:]!r}"


def sweep_against_verify():
    """A sweep's points share each factor's expansion and the cached span rows of their class of
    rho + sigma, (29, 35) at alpha 3/7 and -11/7 and (11, 15) at 1/3, so a point reads rows that
    earlier points built: its rows must equal single-point verifies but in elapsed_seconds and
    max_float_residual."""
    command = "sweep --identity 2.1,2.2,2.3 --alpha 3/7,-11/7,1/3 --beta 2/5,-13/5 --i 3 --j 3 --output csv"

    def same_rows(out, err):
        swept, differ = list(csv.DictReader(io.StringIO(out))), []
        for row in swept:
            verify = "verify --identity {identity} --alpha={alpha} --beta={beta} --i {i} --j {j} --output csv"
            (single,) = csv.DictReader(io.StringIO(hypident(verify.format(**row)).stdout))
            assert row.pop("max_float_residual") == "" and single.pop("max_float_residual") != "", row
            del row["elapsed_seconds"], single["elapsed_seconds"]
            differ += [] if row == single else [(row, single)]
        assert len(swept) == 288 and not differ, f"{len(swept)} rows, differing: {differ[:2]}"
        return True

    return [judge(f"{command}, each row against verify", hypident(command), 0, same_rows)]


def printed_forms_agree():
    """The printed form composed from the 2.x expansions at beta = alpha and the one written with
    alpha alone for 3.3: every point's status and mismatches, degree and both values, agree."""
    command = "sweep --identity {} --i 2 --j 2 --printed-form --output json"
    composed, written = hypident(command.format("2.3 --alpha 3/7 --beta 3/7")).stdout, command.format("3.3 --alpha 3/7")
    reading = lambda out: [(report["status"], report["mismatches"]) for report in json.loads(out)]
    return [judge(f"{written}, against 2.3 at beta = alpha", hypident(written), 1,
                  lambda out, err: reading(out) == reading(composed))]


def float_cross_check():
    """An exact match, six converged float residuals and eval's two sides at x = 2, for a product
    side (2.1) and e**x by a ProductSide's times_exp (3.1) and by each term's recurrence (1.17, 1.13)."""
    results = []
    for point in ("2.1 --alpha 3/7 --beta 2/5 --i 6 --j 6", "3.1 --alpha 3/7 --i 4 --j 4", "1.17 --alpha 3/7 --i 8",
                  "1.13 --alpha 3/7"):
        at_two = hypident(f"eval --identity {point} --x 2 --output json")

        def agrees(out, err, at_two=at_two):
            residuals = json.loads(out)["float_residuals"]
            (residual,) = [r for r in residuals if r["x"] == 2.0]
            sides = json.loads(at_two.stdout)
            return (EXACT(out, err) and len(residuals) == 6 and all(r["converged"] for r in residuals)
                    and at_two.returncode == 0 and (sides["lhs"], sides["rhs"]) == (residual["lhs"], residual["rhs"]))

        command = f"verify --identity {point} --output json"
        results.append(judge(f"{command}, against eval --x 2", hypident(command), 0, agrees))
    return results


CASES = [
    # the benchmark's grid (nine weights a factor, cap 48) and the long
    # columns of 2.1 at i, j <= 20 (21 weights, cap 96)
    ("sweep --identity 2.1,2.2,2.3 --alpha 3/7 --beta 2/5 --i 8 --j 8", 0, stderr("243/243 points passed")),
    ("sweep --identity 2.1 --alpha 3/7 --beta 2/5 --i 20 --j 20", 0, stderr("441/441 points passed")),
    sweep_against_verify,
    # the equal-parameter forms, and the printed form of 3.3 against that of 2.3
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 12 --j 12", 0, stderr("507/507 points passed")),
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 20 --j 20", 0, stderr("1323/1323 points passed")),
    printed_forms_agree,
    float_cross_check,
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


def main(cases=CASES) -> int:
    failures, total = [], 0
    for case in cases:
        for label, why in case() if callable(case) else [judge(case[0], hypident(case[0]), *case[1:])]:
            total += 1
            print("FAILED" if why else "ok    ", "hypident", label, flush=True)
            failures += [f"hypident {label}: {why}"] if why else []
    print(f"{total - len(failures)}/{total} console checks passed", *failures, sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
