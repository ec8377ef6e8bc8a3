"""Admissibility checking, single-point verification, and parameter sweeps.

The exact comparison is the verdict for series identities; the float
residuals attached to the same report are advisory cross-checks of the two
sides' numeric evaluations. For the fixed-argument summation entries the
float comparison IS the verdict: float_only_pass or float_only_fail when
the sum's tail was bounded, float_inconclusive when its term budget ran
out first.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from time import perf_counter
from typing import Iterable, Sequence

from . import identities, reports
from .identities import IdentityDef, IdentityId, IdentityParams
from .reports import (
    STATUS_EXACT_MATCH,
    STATUS_FLOAT_INCONCLUSIVE,
    STATUS_FLOAT_ONLY_FAIL,
    STATUS_FLOAT_ONLY_PASS,
    STATUS_INADMISSIBLE,
    STATUS_MISMATCH,
    AdmissibilityFinding,
    CoefficientMismatch,
    FloatResidual,
    VerifyReport,
    relative_error,
)

__all__ = [
    "DEFAULT_FLOAT_POINTS",
    "DEFAULT_FLOAT_TOL",
    "check_admissible",
    "report_for_sides",
    "sweep",
    "verify_identity",
]

DEFAULT_FLOAT_POINTS = (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)
DEFAULT_FLOAT_TOL = 1e-10


def check_admissible(identity: IdentityId | str, params: IdentityParams) -> list[AdmissibilityFinding]:
    """Evaluate every admissibility requirement; empty list means go ahead.

    Each finding pinpoints one concrete vanishing factor or violated
    condition, so an inadmissible point can be reported rather than
    crashed on.
    """
    define = identities.get(identity)
    define.validate_params(params)
    findings = []
    for req in define.requirements(params):
        finding = req.evaluate()
        if finding is not None:
            findings.append(finding)
    return findings


def _float_residuals(
    define: IdentityDef,
    params: IdentityParams,
    float_points: Sequence[float],
) -> tuple[FloatResidual, ...]:
    out = []
    for x in float_points:
        lhs, lhs_ok = define.lhs_float(params, x)
        rhs, rhs_ok = define.rhs_float(params, x)
        ok = lhs_ok and rhs_ok
        rel = relative_error(lhs, rhs) if ok else math.inf
        out.append(FloatResidual(x, rel, lhs, rhs, ok))
    return tuple(out)


def _compared(define: IdentityDef, params: IdentityParams, lhs, rhs, **fields) -> VerifyReport:
    """Compare two exact series sides coefficient by coefficient and report."""
    # through the module, so that perfbench's tracing wrapper sees the call
    mismatches = reports.compare_series(lhs, rhs)
    return VerifyReport(
        identity=define.tag,
        params=params,
        cap=min(lhs.cap, rhs.cap),
        status=STATUS_MISMATCH if mismatches else STATUS_EXACT_MATCH,
        mismatches=mismatches,
        **fields,
    )


def _series_check(define: IdentityDef, params: IdentityParams, float_points: Sequence[float]) -> VerifyReport:
    return _compared(
        define,
        params,
        define.build_lhs(params),
        define.build_rhs(params),
        float_residuals=_float_residuals(define, params, float_points),
        notes=define.notes(params) if define.notes else (),
    )


def _scalar_exact_check(define: IdentityDef, params: IdentityParams) -> VerifyReport:
    lhs, rhs = define.scalar_exact(params)
    mismatches = () if lhs == rhs else (CoefficientMismatch(0, lhs, rhs),)
    return VerifyReport(
        identity=define.tag,
        params=params,
        cap=params.i,
        status=STATUS_MISMATCH if mismatches else STATUS_EXACT_MATCH,
        mismatches=mismatches,
    )


def _scalar_float_check(define: IdentityDef, params: IdentityParams, tol: float) -> VerifyReport:
    """The residual is scaled by ``sum |t_k|`` as well as by both sides, so
    that a sum whose exact value is 0 is judged against the size of its
    terms rather than against its own rounding error."""
    lhs, rhs, lhs_sum = define.scalar_float(params)
    rel = relative_error(lhs, rhs, lhs_sum.abs_sum)
    if not lhs_sum.converged:
        status = STATUS_FLOAT_INCONCLUSIVE
    else:
        status = STATUS_FLOAT_ONLY_PASS if rel <= tol else STATUS_FLOAT_ONLY_FAIL
    residual = FloatResidual(define.fixed_argument, rel, lhs, rhs, lhs_sum.converged, lhs_sum.terms)
    return VerifyReport(
        identity=define.tag,
        params=params,
        cap=None,
        status=status,
        float_residuals=(residual,),
    )


def verify_identity(
    identity: IdentityId | str,
    params: IdentityParams,
    float_points: Sequence[float] = DEFAULT_FLOAT_POINTS,
    tol: float = DEFAULT_FLOAT_TOL,
) -> VerifyReport:
    """Full verification of one catalog entry at one parameter point.

    Admissibility findings short-circuit to an inadmissible report. Series
    entries are then compared coefficient by coefficient up to the cap,
    with float cross-checks at ``float_points`` attached as evidence.
    Scalar entries compare one exact or one floating-point equation; for
    the float ones, ``tol`` is the relative-error verdict threshold.
    Degenerate parameters that admissibility does not catch raise.
    """
    define = identities.get(identity)
    define.validate_params(params)
    start = perf_counter()
    findings = check_admissible(identity, params)
    if findings:
        report = VerifyReport(
            identity=define.tag,
            params=params,
            cap=params.effective_cap if define.kind == "series" else None,
            status=STATUS_INADMISSIBLE,
            findings=tuple(findings),
            notes=define.notes(params) if define.notes else (),
        )
    elif define.kind == "series":
        report = _series_check(define, params, float_points)
    elif define.kind == "exact_sum":
        report = _scalar_exact_check(define, params)
    elif define.kind == "float_sum":
        report = _scalar_float_check(define, params, tol)
    else:
        raise ValueError(f"unknown identity kind {define.kind!r}")
    return dataclasses.replace(report, elapsed_seconds=perf_counter() - start)


def report_for_sides(
    identity: IdentityId | str,
    params: IdentityParams,
    lhs,
    rhs,
) -> VerifyReport:
    """Build a report from externally supplied series sides.

    This is the hook fault-injection tests use: perturb one side, feed
    both in, and the comparison machinery must flag the damage. The
    comparison is the one :func:`verify_identity` uses; the report is
    untimed.
    """
    return _compared(identities.get(identity), params, lhs, rhs)


def sweep(
    identity: IdentityId | str,
    alpha_set: Iterable[Fraction | int],
    beta_set: Iterable[Fraction | int] = (),
    i_max: int = 0,
    j_max: int = 0,
    cap: int | None = None,
    float_points: Sequence[float] = (),
    tol: float = DEFAULT_FLOAT_TOL,
    gamma: Fraction | int | None = None,
    printed_form: bool = False,
) -> list[VerifyReport]:
    """Verify one identity over a parameter grid, one report per point.

    The grid is the Cartesian product of the parameter sets the identity
    actually uses: alpha always, beta when used (an empty beta_set then
    means an empty grid), i and j from 0 up to the given maxima when used.
    Values are visited in ascending order, so the report list is
    deterministic regardless of input order. Inadmissible points come back
    as inadmissible reports, not errors. Float cross-checks are off by
    default in sweeps; pass float_points explicitly to enable them.
    """
    define = identities.get(identity)
    alphas = sorted(set(Fraction(a) for a in alpha_set))
    if "beta" in define.uses:
        betas: list[Fraction | None] = sorted(set(Fraction(b) for b in beta_set))
    else:
        betas = [None]
    i_values = range(i_max + 1) if "i" in define.uses else (0,)
    j_values = range(j_max + 1) if "j" in define.uses else (0,)

    out = []
    for alpha in alphas:
        for beta in betas:
            for i in i_values:
                for j in j_values:
                    params = IdentityParams(
                        alpha=alpha,
                        beta=beta,
                        i=i,
                        j=j,
                        cap=cap,
                        gamma=Fraction(gamma) if gamma is not None else None,
                        printed_form=printed_form,
                    )
                    out.append(verify_identity(identity, params, float_points, tol))
    return out
