"""Admissibility checking, single-point verification, and parameter sweeps.

The exact comparison is the verdict for series identities; the float
residuals attached to the same report are advisory cross-checks of the two
sides' numeric evaluations. For the fixed-argument summation entries the
float comparison IS the verdict: float_only_pass or float_only_fail when
the sum's tail was bounded, float_inconclusive when its term budget ran
out first.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from time import perf_counter
from typing import Iterable, Sequence

from . import identities, reports
from .identities import IdentityDef, IdentityId, IdentityParams
from .rationals import _exact_rational
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
    "float_residuals",
    "sweep",
    "sweep_axes",
    "verify_identity",
]

DEFAULT_FLOAT_POINTS = (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)
DEFAULT_FLOAT_TOL = 1e-10


def check_admissible(identity: IdentityId | str, params: IdentityParams) -> list[AdmissibilityFinding]:
    """The findings of every violated admissibility condition, in the
    entry's order; an empty list means go ahead.

    Each finding pinpoints one concrete vanishing factor or violated
    condition, so an inadmissible point can be reported rather than
    crashed on.
    """
    define = identities.get(identity)
    define.validate_params(params)
    return [finding for finding in define.requirements(params) if finding is not None]


def float_residuals(identity: IdentityId | str, params: IdentityParams, xs: Iterable[float] = ()) -> tuple[FloatResidual, ...]:
    """Both sides of a series entry evaluated in floating point at each of
    ``xs``, each side declared once for all of them, or both sides of a
    scalar entry at its fixed argument (it refuses any ``xs``), and their
    relative disagreement: one residual per point. A series side's factor
    sums are kept for the process, within the kept store's budget, so a
    factor that an earlier side summed at the same argument is not summed
    again while it is kept; the floats are the same.

    A series residual is infinite unless both sides converged. A float-sum
    residual is scaled by ``sum |t_k|`` as well as by both sides, so that a
    sum whose exact value is 0 is judged against the size of its terms
    rather than against its own rounding error; it records the terms
    summed, and it is infinite when the sum ended unbounded (an infinite
    value or ``sum |t_k|``). An exact sum reports the floats of its exact
    sides and their exact relative error; a side past the double range
    raises ValueError.
    The points are read once, into one tuple of floats, so a generator
    serves as a tuple does and an int or ``Fraction`` point is reported as
    its float. A bool or a value that is not a real number raises
    ValueError, and so does a point that is not finite as a double, which
    JSON could not write.
    The parameters are taken as given: admissibility is the caller's to check.
    """
    define = identities.get(identity)
    xs = tuple(map(_float_point, xs))
    if define.kind == "series":
        sides = zip(xs, define.lhs_float(params, xs), define.rhs_float(params, xs)) if xs else ()
        return tuple(FloatResidual(x, relative_error(lhs, rhs) if l_ok and r_ok else math.inf, lhs, rhs, l_ok and r_ok)
                     for x, (lhs, l_ok), (rhs, r_ok) in sides)
    if xs:
        raise ValueError(f"identity {define.tag} is summed at its fixed argument x = {define.fixed_argument:g}, so it takes no x")
    if define.kind == "float_sum":
        lhs, rhs, lhs_sum = define.scalar_float(params)
        # a sum that ended unbounded reads inf, as a series residual does, not inf / inf
        unbounded = not (math.isfinite(lhs) and math.isfinite(lhs_sum.abs_sum))
        rel = math.inf if unbounded else relative_error(lhs, rhs, lhs_sum.abs_sum)
        return (FloatResidual(define.fixed_argument, rel, lhs, rhs, lhs_sum.converged, lhs_sum.terms),)
    lhs, rhs = define.scalar_exact(params)
    try:
        return (FloatResidual(define.fixed_argument, float(relative_error(lhs, rhs)), float(lhs), float(rhs)),)
    except OverflowError:
        raise ValueError(f"a float side of identity {define.tag} overflows at x = {define.fixed_argument:g}") from None


def _float_point(x: float) -> float:
    """One float point of :func:`float_residuals`, as a finite float."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"a float point must be a real number, got x = {x!r}")
    try:
        x = float(x)
    except OverflowError:  # an int or Fraction past the double range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"a float point must be finite, got x = {x}")
    return x


# Each check gives the fields of its report beside identity, params and
# elapsed_seconds, so that verify_identity builds the report once.


def _series_check(define: IdentityDef, params: IdentityParams, float_points: Iterable[float]) -> dict:
    lhs, rhs = define.build_lhs(params), define.build_rhs(params)
    # through the module, so that perfbench's tracing wrapper sees the call
    mismatches = reports.compare_series(lhs, rhs)
    return dict(cap=min(lhs.cap, rhs.cap), status=STATUS_MISMATCH if mismatches else STATUS_EXACT_MATCH,
                mismatches=mismatches, float_residuals=float_residuals(define.id, params, float_points),
                notes=define.notes(params) + define.uncompared(params))


def _scalar_exact_check(define: IdentityDef, params: IdentityParams) -> dict:
    lhs, rhs = define.scalar_exact(params)
    mismatches = () if lhs == rhs else (CoefficientMismatch(0, lhs, rhs),)
    return dict(cap=params.i, status=STATUS_MISMATCH if mismatches else STATUS_EXACT_MATCH, mismatches=mismatches)


def _scalar_float_check(define: IdentityDef, params: IdentityParams) -> dict:
    (residual,) = float_residuals(define.id, params)
    if not residual.converged:
        status = STATUS_FLOAT_INCONCLUSIVE
    else:
        status = STATUS_FLOAT_ONLY_PASS if residual.relative_error <= DEFAULT_FLOAT_TOL else STATUS_FLOAT_ONLY_FAIL
    return dict(cap=None, status=status, float_residuals=(residual,))


def verify_identity(
    identity: IdentityId | str,
    params: IdentityParams,
    float_points: Iterable[float] = DEFAULT_FLOAT_POINTS,
) -> VerifyReport:
    """Full verification of one catalog entry at one parameter point.

    Admissibility findings short-circuit to an inadmissible report. Series
    entries are then compared coefficient by coefficient up to the cap,
    with float cross-checks at ``float_points`` attached as evidence.
    Scalar entries compare one exact or one floating-point equation, a
    float one at the relative-error threshold ``DEFAULT_FLOAT_TOL``.
    Degenerate parameters that admissibility does not catch raise.
    """
    define = identities.get(identity)
    start = perf_counter()
    findings = check_admissible(identity, params)
    if findings:
        fields = dict(
            cap=params.effective_cap if define.kind == "series" else None,
            status=STATUS_INADMISSIBLE,
            findings=tuple(findings),
            notes=define.notes(params),
        )
    elif define.kind == "series":
        fields = _series_check(define, params, float_points)
    elif define.kind == "exact_sum":
        fields = _scalar_exact_check(define, params)
    else:
        fields = _scalar_float_check(define, params)
    return VerifyReport(identity=define.tag, params=params, **fields, elapsed_seconds=perf_counter() - start)


def sweep_axes(
    identity: IdentityId | str,
    alpha_set: Iterable[Fraction | int],
    beta_set: Iterable[Fraction | int] = (),
    i_max: int = 0,
    j_max: int = 0,
) -> tuple[Sequence, ...]:
    """The axes of the grid :func:`sweep` visits, whose Cartesian product
    is the grid: alpha always, beta when used (an empty beta_set then
    means an empty grid), i and j from 0 up to the given maxima when used.
    Values are in ascending order. Nothing is verified, so a caller can
    size the grid before running it. A maximum shift that
    :class:`IdentityParams` refuses as a shift raises its ValueError."""
    define = identities.get(identity)
    IdentityParams(0, i=i_max, j=j_max)
    alphas = sorted(set(_exact_rational(a, "alpha") for a in alpha_set))
    if "beta" in define.uses:
        betas: list[Fraction | None] = sorted(set(_exact_rational(b, "beta") for b in beta_set))
    else:
        betas = [None]
    i_values = range(i_max + 1) if "i" in define.uses else (0,)
    j_values = range(j_max + 1) if "j" in define.uses else (0,)
    return alphas, betas, i_values, j_values


def sweep(
    identity: IdentityId | str,
    alpha_set: Iterable[Fraction | int],
    beta_set: Iterable[Fraction | int] = (),
    i_max: int = 0,
    j_max: int = 0,
    cap: int | None = None,
    gamma: Fraction | int | None = None,
    printed_form: bool = False,
) -> list[VerifyReport]:
    """Verify one identity over the :func:`sweep_axes` grid, one report per
    point, in the axes' order, so the report list is deterministic
    regardless of input order. Inadmissible points come back as
    inadmissible reports, not errors. A sweep runs no float cross-checks.
    """
    axes = sweep_axes(identity, alpha_set, beta_set, i_max, j_max)
    gamma = None if gamma is None else _exact_rational(gamma, "gamma")
    out = []
    for alpha, beta, i, j in itertools.product(*axes):
        params = IdentityParams(alpha=alpha, beta=beta, i=i, j=j, cap=cap, gamma=gamma, printed_form=printed_form)
        out.append(verify_identity(identity, params, ()))
    return out
