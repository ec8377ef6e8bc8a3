#!/usr/bin/env python3
r"""Run the ``hypident`` found on PATH at its large and refused cases, each
in a fresh process, and check what each exits with and prints.

    python3 scripts/console_checks.py

On a working tree that is not installed, through a shim:

    shim=$(mktemp -d)
    printf '#!/bin/sh\nPYTHONPATH="%s/src" exec python3 -m hypident.cli "$@"\n' "$PWD" > "$shim/hypident"
    chmod +x "$shim/hypident" && PATH="$shim:$PATH" python3 scripts/console_checks.py

A row of ``CASES`` is a command line, its exit status and one expectation on
``(stdout, stderr)``; a check of several commands is a function in the
table. Prints one line per check, then the failures; exits 1 if any fails.
"""

import csv
import io
import json
import re
import shlex
import subprocess
import sys


def hypident(command: str) -> subprocess.CompletedProcess:
    return subprocess.run(["hypident", *shlex.split(command)], capture_output=True, text=True)


def status(want: str, extra=lambda report, err: True):
    """The JSON report on stdout has status ``want`` and ``extra(report, stderr)`` holds."""
    return lambda out, err: json.loads(out)["status"] == want and extra(json.loads(out), err)


def stderr(pattern: str):
    """A line of stderr matches ``pattern``, as ``grep -q`` finds it."""
    return lambda out, err: re.search(pattern, err, re.M) is not None


def refused(text: str):
    """Nothing on stdout, and one line on stderr that holds ``text``."""
    return lambda out, err: out == "" and len(err.splitlines()) == 1 and text in err


EXACT = status("exact_match")


def judge(label: str, done: subprocess.CompletedProcess, code: int, expect) -> tuple[str, str | None]:
    """``(label, None)`` when ``done`` exited ``code`` and ``expect(stdout, stderr)`` holds, else ``(label, why)``."""
    try:
        why = None if expect(done.stdout, done.stderr) else "expectation not met"
    except Exception as exc:  # an output the expectation cannot read fails the case
        why = f"{type(exc).__name__}: {exc}"
    if done.returncode != code:
        why = f"exit {done.returncode}, expected {code}" + (f"; {why}" if why else "")
    return label, why and f"{why}; stderr ends {done.stderr[-300:]!r}"


def sweep_against_verify():
    """A sweep's points share each factor's expansion and the span quotients, whose class of
    rho + sigma is (29, 35) at alpha 3/7 and -11/7 and (11, 15) at 1/3, so each tag replaces the
    table twice: its rows must equal single-point verifies but in elapsed_seconds and max_float_residual."""
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


# a printed-form sweep at i, j <= 2 in CSV: an exact match at i = j = 0, else every
# degree from 1 up to the point's cap 16 + 2(i + j) mismatched
PRINTED = [("exact_match", "0", "")] + [("mismatch", str(16 + 2 * (i + j)), "1") for i in range(3) for j in range(3)][1:]


def printed(out, err):
    rows = csv.DictReader(io.StringIO(out))
    return [(r["status"], r["mismatch_count"], r["first_mismatch_degree"]) for r in rows] == PRINTED


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


def closed_readers():
    """A reader that closes stdout before the command writes, alone or on the
    pipe stderr shares: the command ends with no traceback, its exit status kept."""
    results = []
    for command, shared in (("expand --identity 1.10 --alpha 3/7 --beta 2/5 --degree 512 --output json", False),
                            ("sweep --identity 2.1 --alpha 3/7 --beta 2/5 --i 12 --j 12 --output json", True)):
        reader = subprocess.Popen(["hypident", *shlex.split(command)], stdout=subprocess.PIPE, text=True,
                                  stderr=subprocess.STDOUT if shared else subprocess.PIPE)
        reader.stdout.close()
        err = "" if shared else reader.stderr.read()
        done = subprocess.CompletedProcess(command, reader.wait(), "", err)
        label = f"{command}{' 2>&1' if shared else ''}, its reader gone"
        results.append(judge(label, done, 0, lambda out, err: "Traceback" not in err))
    return results


CASES = [
    # the benchmark's grid (nine weights a factor, cap 48), the long columns of 2.1 at
    # i, j <= 20 (21 weights, cap 96) and a negative alpha + beta pass at every point
    ("sweep --identity 2.1,2.2,2.3 --alpha 3/7 --beta 2/5 --i 2 --j 2", 0, stderr("^timing: 27 points in ")),
    ("sweep --identity 2.1,2.2,2.3 --alpha 3/7 --beta 2/5 --i 8 --j 8", 0, stderr("243/243 points passed")),
    ("sweep --identity 2.1 --alpha 3/7 --beta 2/5 --i 20 --j 20", 0, stderr("441/441 points passed")),
    ("sweep --identity 2.1,2.2,2.3 --alpha=-11/7 --beta=-13/5 --i 4 --j 4", 0, stderr("75/75 points passed")),
    sweep_against_verify,
    # 2.1 has no printed-form reading; that of 2.3 and 3.3 fails but at
    # i = j = 0. The equal-parameter forms pass at the 2.x grids' shifts
    ("sweep --identity 2.1,2.2,2.3 --alpha 3/7 --beta 2/5 --i -1", 2, refused("--i -1 is below the limit of 0")),
    ("verify --identity 2.1 --alpha 3/7 --beta 2/5 --printed-form", 2, refused("takes no printed_form")),
    ("sweep --identity 2.3 --alpha 3/7 --beta 2/5 --i 2 --j 2 --printed-form --output csv", 1, printed),
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 4 --j 4", 0, stderr("75/75 points passed")),
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 12 --j 12", 0, stderr("507/507 points passed")),
    ("sweep --identity 3.1,3.2,3.3 --alpha 3/7 --i 20 --j 20", 0, stderr("1323/1323 points passed")),
    ("sweep --identity 3.3 --alpha 3/7 --i 2 --j 2 --printed-form --output csv", 1, printed),
    printed_forms_agree,
    float_cross_check,
    # left sides at cap 96 from the factors' differential equations: lone
    # 1F1/0F1 factors (1.1, 1.2, 1.5, 1.17, 1.18) and pairs (the rest)
    *[(f"verify --identity {point} --alpha 3/7 --degree 96 --output json", 0, EXACT) for point in (
        "1.1 --beta 2/5", "1.2", "1.5", "1.6", "1.7 --beta 2/5", "1.9", "1.10 --beta 2/5", "1.11 --beta 2/5", "1.12",
        "1.13", "1.17 --i 2", "1.18 --i 2", "3.1 --i 4 --j 4")],
    # lower parameters that sum to a negative integer, of a pair or of an
    # exponential right side's block, take one degree from its definition
    *[(f"verify --identity {point} --output json", 0, EXACT) for point in (
        "1.6 --alpha=-1/4 --degree 96", "1.9 --alpha=-1/4 --degree 96", "1.12 --alpha=-3/4 --degree 96",
        "1.10 --alpha=-3/4 --beta=-3/4 --degree 96", "1.9 --alpha=-1/4", "1.12 --alpha=-3/4",
        "1.10 --alpha=-3/4 --beta=-3/4")],
    # right sides at degree 512, the most a request may ask: from the pFq
    # kernel (1.1, 1.7, 1.17), by the double sum times e**x (3.1), and by
    # each term's own recurrence times e**x (1.5, 1.9, 1.10, 1.12, 1.13); 1.11
    *[(f"verify --identity {point} --degree 512 --output json", 0, EXACT) for point in (
        "1.11 --alpha 3/7 --beta 2/5", "1.1 --alpha 3/7 --beta 2/5", "1.5 --alpha 3/7", "1.7 --alpha 3/7 --beta 2/5",
        "1.9 --alpha 3/7", "1.10 --alpha 3/7 --beta 2/5", "1.12 --alpha 3/7", "1.13 --alpha 3/7",
        "1.17 --alpha 3/7 --i 8", "3.1 --alpha 3/7 --i 4 --j 4")],
    # the scalar entries; a 1.8 tail is bounded in fewer than 100 terms, a
    # refusal's findings come in the entry's order, a terminating 1.8 sum
    # needs no convergence, and 2*alpha of the 1.2 point, -3 + 2**-59,
    # rounds to -3.0 in a double: the exact verdict stands, no float converges
    ("verify --identity 1.3 --alpha 1/3 --beta 2/5 --i 9 --output json", 0, EXACT),
    ("verify --identity 1.4 --alpha 1/3 --beta 2/5 --output json", 0,
     status("float_only_pass", lambda report, err: report["float_residuals"][0]["converged"])),
    ("verify --identity 1.8 --alpha 1/3 --beta 2/5 --gamma 5 --output json", 0,
     status("float_only_pass", lambda report, err: report["float_residuals"][0]["terms"] < 100)),
    ("verify --identity 1.8 --alpha=-5 --beta 1/3 --gamma 1/7 --output json", 0, status("float_only_pass")),
    ("verify --identity 1.8 --alpha 1/3 --beta 2/5 --gamma=-1/2 --output json", 1,
     status("inadmissible", lambda report, err: len(err.splitlines()) == 1 and [f["parameter_expr"] for f in
            report["findings"]] == ["2*gamma", "gamma + 1/2", "2*gamma - alpha - beta + 1"])),
    ("verify --identity 1.8 --alpha=-2 --beta 5 --gamma 1/3 --output json", 0, status("float_only_pass")),
    ("verify --identity 1.4 --alpha=-1 --beta=-2 --output json", 1,
     status("inadmissible", lambda r, err: [f["parameter_expr"] for f in r["findings"]] == ["(alpha + beta + 1)/2"])),
    ("verify --identity 1.2 --alpha=-1729382256910270463/1152921504606846976 --output json", 0,
     status("exact_match", lambda report, err: [r["converged"] for r in report["float_residuals"]] == [False] * 6)),
    # refused before any float work: a diverging 1.8 sum, a rational one bit
    # past the limit; --tol is no option, every float verdict is at 1e-10
    ("eval --identity 1.8 --alpha 1/3 --beta 2/5 --gamma=-1/7 --output json", 2,
     refused("2*gamma - alpha - beta + 1")),
    ("verify --identity 1.2 --alpha=-1/18446744073709551616", 2, refused("exceeds the limit of 64 bits")),
    # a gamma goes only where it is read: refused by a single point of an
    # entry without one, and passed only to the tags of a sweep that take one
    ("verify --identity 1.5 --alpha 3/7 --gamma 1/9", 2, refused("identity 1.5 takes no gamma, got gamma = 1/9")),
    ("sweep --identity 1.8,1.4 --alpha 1/3 --beta 2/5 --gamma 5", 0, stderr("^hypident: 2/2 points passed$")),
    ("verify --identity 1.8 --alpha 1/3 --beta 2/5 --gamma 1/7 --tol 0.5", 2,
     lambda out, err: err.startswith("usage: hypident [-h] {list,verify,sweep,expand,eval}")
     and "unrecognized arguments: --tol 0.5" in err),
    ("verifyy", 2, stderr("invalid choice")),
    # the CSV and JSON renderings
    ("list --output csv", 0, lambda out, err: out.count("\n") == 22),
    ("expand --identity 1.2 --alpha 1/2 --degree 4 --output json", 0,
     lambda out, err: json.loads(out)["coefficients"] == ["1", "0", "1/16", "0", "1/1024"]),
    ("eval --identity 1.1 --alpha 1/2 --beta 1/3 --x 0.5 --output csv", 0,
     lambda out, err: out.split("\n")[0] == "identity,x,lhs,rhs,relative_error,converged"),
    closed_readers,
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
