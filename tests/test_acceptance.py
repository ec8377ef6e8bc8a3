"""Acceptance suite: ten go/no-go criteria for the verification engine.

Each criterion is a standalone function returning a list of failure
descriptions (empty means the criterion holds). One test runs each of
them, its id the criterion's number and name, so ``pytest -v`` on this
file is the scoreboard, and a failing criterion's message lists every
failure.

Pinned tolerances: everything is exact rational equality except criterion 7
(unit- and half-argument sums checked in floats at 1e-10 relative) and
criterion 8 (float cross-checks of the exact matches at 1e-9 relative).
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from hypident import identities
from hypident.hyper import HypSpec, pfq_series
from hypident.identities import IdentityParams, get
from hypident.reports import compare_series
from hypident.series import TruncatedSeries, exp_series
from hypident.verify import DEFAULT_FLOAT_TOL, check_admissible, verify_identity

GRID_ALPHA = Fraction(3, 7)
GRID_BETA = Fraction(2, 5)
VARIANT_TAGS = (("PP", "2.1"), ("MM", "2.2"), ("PM", "2.3"))
EQUAL_PARAM_TAGS = {"PP": "3.1", "MM": "3.2", "PM": "3.3"}
RNG_SEED = 20260816

FLOAT_SUM_TOL = 1e-10   # criterion 7
FLOAT_CROSS_TOL = 1e-9  # criterion 8
GRID_BUDGET_SECONDS = 60.0


def _mismatch_text(tag, params, report):
    return f"{tag} at {params.describe(tag)}: status {report.status}"


# -- criterion 1 ------------------------------------------------------------

def criterion_01_product_grid():
    """All three product variants match on the (i, j) in {0..4}^2 grid."""
    failures = []
    start = time.perf_counter()
    for _, tag in VARIANT_TAGS:
        for i in range(5):
            for j in range(5):
                params = IdentityParams(alpha=GRID_ALPHA, beta=GRID_BETA, i=i, j=j)
                if params.effective_cap != 2 * (i + j) + 16:
                    failures.append(f"cap policy broke at i={i}, j={j}")
                report = verify_identity(tag, params, float_points=())
                if report.status != "exact_match":
                    failures.append(_mismatch_text(tag, params, report))
    elapsed = time.perf_counter() - start
    if elapsed >= GRID_BUDGET_SECONDS:
        failures.append(f"grid took {elapsed:.1f}s, budget {GRID_BUDGET_SECONDS:.0f}s")
    return failures


# -- criterion 2 ------------------------------------------------------------

def criterion_02_bailey_reduction():
    """The matched product RHS at zero shift equals the single-series form."""
    failures = []
    for alpha, beta in ((GRID_ALPHA, GRID_BETA), (Fraction(7, 3), Fraction(9, 4))):
        params = IdentityParams(alpha=alpha, beta=beta, cap=30)
        double_sum = get("2.1").build_rhs(params)
        direct = get("1.10").build_rhs(params)
        for bad in compare_series(double_sum, direct):
            failures.append(
                f"alpha={alpha}, beta={beta}, degree {bad.degree}: "
                f"{bad.lhs} != {bad.rhs}"
            )
    return failures


# -- criterion 3 ------------------------------------------------------------

def criterion_03_preece_reduction():
    """The alternating product collapses to its one-parameter form at beta=alpha."""
    failures = []
    for alpha in (GRID_ALPHA, Fraction(2, 5), Fraction(7, 3)):
        two_param = get("1.7").build_rhs(IdentityParams(alpha=alpha, beta=alpha, cap=30))
        one_param = get("1.6").build_rhs(IdentityParams(alpha=alpha, cap=30))
        if compare_series(two_param, one_param):
            failures.append(f"RHS reduction failed at alpha={alpha}")
        lhs = get("1.6").build_lhs(IdentityParams(alpha=alpha, cap=30))
        odd = [d for d in range(1, lhs.cap + 1, 2) if lhs.coefficient(d) != 0]
        if odd:
            failures.append(f"alternating product has odd terms {odd} at alpha={alpha}")
    return failures


# -- criterion 4 ------------------------------------------------------------

def criterion_04_equal_parameter_consistency():
    """The one-parameter expansions agree with the two-parameter ones at beta=alpha."""
    failures = []
    for variant, tag in VARIANT_TAGS:
        for i in range(4):
            for j in range(4):
                specialized = get(EQUAL_PARAM_TAGS[variant]).build_rhs(
                    IdentityParams(alpha=GRID_ALPHA, i=i, j=j, cap=24)
                )
                general = get(tag).build_rhs(
                    IdentityParams(alpha=GRID_ALPHA, beta=GRID_ALPHA, i=i, j=j, cap=24)
                )
                if compare_series(specialized, general):
                    failures.append(f"{variant} diverges at i={i}, j={j}")
    return failures


# -- criterion 5 ------------------------------------------------------------

def criterion_05_expansion_lemmas():
    """Both single-series expansions match the damped-product oracle."""
    failures = []
    cap = 30

    def build(tag, alpha, i):
        return get(tag).build_rhs(IdentityParams(alpha=alpha, i=i, cap=cap))

    for alpha in (GRID_ALPHA, Fraction(2, 5), Fraction(7, 3)):
        damping = exp_series(cap, Fraction(-1, 2))
        for i in range(5):
            for name, tag, lower in (
                ("raised", "1.17", 2 * alpha + i),
                ("lowered", "1.18", 2 * alpha - i),
            ):
                oracle = damping * pfq_series(HypSpec((alpha,), (lower,)), cap)
                if compare_series(build(tag, alpha, i), oracle):
                    failures.append(f"{name} expansion off at alpha={alpha}, i={i}")
        even = pfq_series(HypSpec((), (alpha + Fraction(1, 2),)), cap).substitute_even(16)
        for name, tag in (("raised", "1.17"), ("lowered", "1.18")):
            if compare_series(build(tag, alpha, 0), even):
                failures.append(f"{name} expansion at i=0 is not the even series, alpha={alpha}")
    return failures


# -- criterion 6 ------------------------------------------------------------

def _sample_rational(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def _sample_admissible_pairs(rng, tags, count):
    pairs = []
    while len(pairs) < count:
        params = IdentityParams(alpha=_sample_rational(rng), beta=_sample_rational(rng))
        if all(not check_admissible(tag, params) for tag in tags):
            pairs.append(params)
    return pairs


def criterion_06_transformation_checks():
    """Exponential-shift and product transformations hold at random points."""
    failures = []
    rng = random.Random(RNG_SEED)
    for params in _sample_admissible_pairs(rng, ("1.1", "1.2", "1.5"), 20):
        for tag in ("1.1", "1.2", "1.5"):
            point = IdentityParams(alpha=params.alpha, beta=params.beta, cap=40)
            report = verify_identity(tag, point, float_points=())
            if report.status != "exact_match":
                failures.append(_mismatch_text(tag, point, report))
    for params in _sample_admissible_pairs(rng, ("1.11",), 10):
        point = IdentityParams(alpha=params.alpha, beta=params.beta, cap=24)
        report = verify_identity("1.11", point, float_points=())
        if report.status != "exact_match":
            failures.append(_mismatch_text("1.11", point, report))
    for tag in ("1.12", "1.13"):
        for alpha in (GRID_ALPHA, Fraction(2, 5)):
            point = IdentityParams(alpha=alpha, cap=30)
            report = verify_identity(tag, point, float_points=())
            if report.status != "exact_match":
                failures.append(_mismatch_text(tag, point, report))
    return failures


# -- criterion 7 ------------------------------------------------------------

GAUSS_HALF_SAMPLES = (
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(-3, 2), Fraction(7, 5)),
    (Fraction(2, 7), Fraction(9, 4)),
    (Fraction(1, 5), Fraction(-1, 3)),
)
UNIT_SUM_SAMPLES = (
    (Fraction(-2), Fraction(1, 3), Fraction(5, 4)),
    (Fraction(-4), Fraction(2, 5), Fraction(7, 3)),
    (Fraction(-6), Fraction(1, 2), Fraction(9, 5)),
    (Fraction(1, 3), Fraction(1, 4), Fraction(4)),
    (Fraction(1, 2), Fraction(3, 2), Fraction(3)),
)


def criterion_07_classical_sums():
    """Terminating sums are exact; evaluation-point sums pass at 1e-10."""
    failures = [] if DEFAULT_FLOAT_TOL == FLOAT_SUM_TOL else [f"float sums are judged at {DEFAULT_FLOAT_TOL}"]
    for n in range(31):
        lhs, rhs = get("1.3").scalar_exact(IdentityParams(alpha=Fraction(1, 2), beta=Fraction(5, 3), i=n))
        if lhs != rhs:
            failures.append(f"terminating sum off at n={n}: {lhs} != {rhs}")
    for a, b in GAUSS_HALF_SAMPLES:
        report = verify_identity("1.4", IdentityParams(alpha=a, beta=b))
        if report.status != "float_only_pass":
            failures.append(f"half-argument sum failed at a={a}, b={b}")
    for a, b, c in UNIT_SUM_SAMPLES:
        report = verify_identity("1.8", IdentityParams(alpha=a, beta=b, gamma=c))
        if report.status != "float_only_pass":
            failures.append(f"unit-argument sum failed at a={a}, b={b}, c={c}")
    return failures


# -- criterion 8 ------------------------------------------------------------

def criterion_08_float_consistency():
    """Both sides agree numerically at the standard sample points."""
    failures = []
    for _, tag in VARIANT_TAGS:
        for i in range(3):
            for j in range(3):
                params = IdentityParams(alpha=GRID_ALPHA, beta=GRID_BETA, i=i, j=j)
                report = verify_identity(tag, params)
                if report.status != "exact_match":
                    failures.append(_mismatch_text(tag, params, report))
                    continue
                if not all(r.converged for r in report.float_residuals):
                    failures.append(f"{tag} at i={i}, j={j}: float side did not converge")
                elif report.max_float_residual > FLOAT_CROSS_TOL:
                    failures.append(
                        f"{tag} at i={i}, j={j}: residual "
                        f"{report.max_float_residual:.3e} > {FLOAT_CROSS_TOL:.0e}"
                    )
    return failures


# -- criterion 9 ------------------------------------------------------------

def criterion_09_fault_sensitivity():
    """A single perturbed coefficient is flagged at exactly its degree.

    The damaged right side goes into the catalog entry for one run, so the
    comparison and the status are those every verification uses."""
    failures = []
    rng = random.Random(RNG_SEED)
    for trial in range(10):
        variant, tag = VARIANT_TAGS[rng.randrange(3)]
        params = IdentityParams(
            alpha=GRID_ALPHA, beta=GRID_BETA, i=rng.randint(0, 3), j=rng.randint(0, 3)
        )
        define = get(tag)
        rhs = define.build_rhs(params)
        degree = rng.randint(0, rhs.cap)
        bumped = list(rhs.coeffs)
        bumped[degree] += Fraction(1, rng.randint(2, 99))
        damaged = TruncatedSeries(rhs.cap, tuple(bumped))
        identities._REGISTRY[define.id] = dataclasses.replace(define, build_rhs=lambda p: damaged)
        try:
            report = verify_identity(tag, params, float_points=())
        finally:
            identities._REGISTRY[define.id] = define
        flagged = [m.degree for m in report.mismatches]
        if report.status != "mismatch" or flagged != [degree]:
            failures.append(
                f"trial {trial}: perturbed degree {degree} of {tag}, "
                f"got status {report.status} with flags {flagged}"
            )
    return failures


# -- criterion 10 -----------------------------------------------------------

def criterion_10_reading_adjudication():
    """The index-matched reading verifies; the printed transcription does not."""
    failures = []
    for i in range(5):
        for j in range(5):
            params = IdentityParams(alpha=GRID_ALPHA, beta=GRID_BETA, i=i, j=j)
            report = verify_identity("2.3", params, float_points=())
            if report.status != "exact_match":
                failures.append(_mismatch_text("2.3", params, report))
            if not any("indexed by n" in note for note in report.notes):
                failures.append(f"report at i={i}, j={j} does not name the reading")
    printed_mismatches = 0
    for i in range(5):
        for j in range(1, 5):
            params = IdentityParams(
                alpha=GRID_ALPHA, beta=GRID_BETA, i=i, j=j, printed_form=True
            )
            report = verify_identity("2.3", params, float_points=())
            if report.status == "mismatch":
                printed_mismatches += 1
            if not any("indexed by m" in note for note in report.notes):
                failures.append(f"printed run at i={i}, j={j} does not name the reading")
    if printed_mismatches == 0:
        failures.append("printed transcription never produced a mismatch for j >= 1")
    return failures


# -- harness ----------------------------------------------------------------

CRITERIA = (
    (1, "product grid, 75 exact cases", criterion_01_product_grid),
    (2, "matched-product reduction at zero shift", criterion_02_bailey_reduction),
    (3, "alternating-product reduction at beta=alpha", criterion_03_preece_reduction),
    (4, "equal-parameter forms match the general ones", criterion_04_equal_parameter_consistency),
    (5, "single-series expansions match the damped product", criterion_05_expansion_lemmas),
    (6, "transformations at random admissible points", criterion_06_transformation_checks),
    (7, "classical sums, exact and 1e-10 float", criterion_07_classical_sums),
    (8, "float cross-check of exact matches at 1e-9", criterion_08_float_consistency),
    (9, "fault injection flags the exact degree", criterion_09_fault_sensitivity),
    (10, "shift-factor reading adjudication", criterion_10_reading_adjudication),
)


@pytest.mark.parametrize("number, label, criterion", CRITERIA,
                         ids=[criterion.__name__.removeprefix("criterion_") for _, _, criterion in CRITERIA])
def test_criterion(number, label, criterion):
    failures = criterion()
    assert not failures, f"criterion {number:02d} ({label}) fails:\n" + "\n".join(failures)
