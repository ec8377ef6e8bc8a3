"""Verification outcome records and their text, JSON, and CSV renderings.

A :class:`VerifyReport` is the single currency every checking routine
returns: which identity ran, with which parameters, what happened, and the
evidence (coefficient mismatches, admissibility findings, float residuals).
The renderers here are what the command-line front end prints.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .rationals import format_rational, is_nonpositive_integer
from .series import TruncatedSeries

if TYPE_CHECKING:
    from .identities import IdentityParams

__all__ = [
    "AdmissibilityFinding",
    "CoefficientMismatch",
    "FloatResidual",
    "ParameterRequirement",
    "VerifyReport",
    "compare_series",
    "csv_text",
    "relative_error",
    "reports_to_csv",
    "CSV_HEADER",
    "STATUS_EXACT_MATCH",
    "STATUS_FLOAT_ONLY_FAIL",
    "STATUS_FLOAT_ONLY_PASS",
    "STATUS_INADMISSIBLE",
    "STATUS_MISMATCH",
    "PASSING_STATUSES",
]

STATUS_EXACT_MATCH = "exact_match"
STATUS_MISMATCH = "mismatch"
STATUS_INADMISSIBLE = "inadmissible"
STATUS_FLOAT_ONLY_PASS = "float_only_pass"
STATUS_FLOAT_ONLY_FAIL = "float_only_fail"

PASSING_STATUSES = frozenset({STATUS_EXACT_MATCH, STATUS_FLOAT_ONLY_PASS})


@dataclass(frozen=True)
class AdmissibilityFinding:
    """One concrete reason a parameter point is outside an identity's domain.

    ``parameter_expr`` names the offending quantity in the caller's
    parameters (for example ``"(alpha - 1/2)_m"`` or ``"2*alpha - i"``).
    ``index`` locates the zero: for a vanishing Pochhammer factor it is the
    first index m at which the product vanishes, for a degenerate lower or
    Gamma argument it is the series index of the zero factor, and it is 0
    for violated inequalities. ``detail`` is the human-readable sentence.
    """

    parameter_expr: str
    index: int
    value: Fraction
    detail: str
    severity: str = "fatal"

    def to_json_dict(self) -> dict:
        return {
            "parameter_expr": self.parameter_expr,
            "index": self.index,
            "value": format_rational(self.value),
            "detail": self.detail,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class ParameterRequirement:
    """A single admissibility constraint, evaluable against concrete values.

    Kinds:
      * ``lower``: value must not be a nonpositive integer (series lower
        parameter, the term recurrence would divide by zero).
      * ``poch``: the rising factorial ``(value)_m`` must be nonzero for all
        ``m <= max_index`` (a denominator weight in a finite sum).
      * ``gamma``: value must not be a nonpositive integer (argument of a
        numerator Gamma factor in a closed form).
      * ``positive``: value must be strictly positive (a convergence
        condition for a unit-argument sum).

    ``where`` optionally pins the summand, e.g. ``"summand m=2"``.
    """

    kind: str
    expr: str
    value: Fraction
    max_index: int = 0
    where: str = ""

    def evaluate(self) -> AdmissibilityFinding | None:
        val = Fraction(self.value)
        tag = f" ({self.where})" if self.where else ""
        if self.kind == "lower":
            if is_nonpositive_integer(val):
                return AdmissibilityFinding(
                    parameter_expr=self.expr,
                    index=int(-val),
                    value=val,
                    detail=(
                        f"lower parameter {self.expr} = {format_rational(val)} is a "
                        f"nonpositive integer{tag}: zero factor at series index {int(-val)}"
                    ),
                )
            return None
        if self.kind == "poch":
            if is_nonpositive_integer(val) and -val <= self.max_index - 1:
                first = int(-val) + 1
                return AdmissibilityFinding(
                    parameter_expr=self.expr,
                    index=first,
                    value=val,
                    detail=(
                        f"{self.expr} vanishes from m = {first} on "
                        f"(base {format_rational(val)}){tag}"
                    ),
                )
            return None
        if self.kind == "gamma":
            if is_nonpositive_integer(val):
                return AdmissibilityFinding(
                    parameter_expr=self.expr,
                    index=int(-val),
                    value=val,
                    detail=(
                        f"Gamma argument {self.expr} = {format_rational(val)} "
                        f"is at a pole{tag}"
                    ),
                )
            return None
        if self.kind == "positive":
            if val <= 0:
                return AdmissibilityFinding(
                    parameter_expr=self.expr,
                    index=0,
                    value=val,
                    detail=(
                        f"convergence condition {self.expr} > 0 fails "
                        f"({self.expr} = {format_rational(val)}){tag}"
                    ),
                )
            return None
        raise ValueError(f"unknown requirement kind {self.kind!r}")


@dataclass(frozen=True)
class CoefficientMismatch:
    """Two exact constructions disagree at one degree."""

    degree: int
    lhs: Fraction
    rhs: Fraction

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
        }


@dataclass(frozen=True)
class FloatResidual:
    """Relative disagreement of the two float evaluations at one point."""

    x: float
    relative_error: float
    lhs: float
    rhs: float
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "relative_error": self.relative_error,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "converged": self.converged,
        }


def relative_error(lhs: float, rhs: float) -> float:
    """``|lhs - rhs|`` over the larger magnitude; 0.0 when both sides are 0."""
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def compare_series(lhs: TruncatedSeries, rhs: TruncatedSeries) -> tuple[CoefficientMismatch, ...]:
    """Exact coefficient diff up to the smaller cap, in degree order."""
    cap = min(lhs.cap, rhs.cap)
    out = []
    for k in range(cap + 1):
        if lhs.coeffs[k] != rhs.coeffs[k]:
            out.append(CoefficientMismatch(k, lhs.coeffs[k], rhs.coeffs[k]))
    return tuple(out)


CSV_HEADER = (
    "identity",
    "alpha",
    "beta",
    "gamma",
    "i",
    "j",
    "cap",
    "status",
    "mismatch_count",
    "first_mismatch_degree",
    "max_float_residual",
    "elapsed_seconds",
)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one identity check at one parameter point."""

    identity: str
    params: "IdentityParams"
    cap: int | None
    status: str
    mismatches: tuple[CoefficientMismatch, ...] = ()
    float_residuals: tuple[FloatResidual, ...] = ()
    findings: tuple[AdmissibilityFinding, ...] = ()
    notes: tuple[str, ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status in PASSING_STATUSES

    @property
    def max_float_residual(self) -> float | None:
        if not self.float_residuals:
            return None
        return max(r.relative_error for r in self.float_residuals)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params.to_json_dict(),
            "cap": self.cap,
            "status": self.status,
            "mismatches": [m.to_json_dict() for m in self.mismatches],
            "float_residuals": [r.to_json_dict() for r in self.float_residuals],
            "findings": [f.to_json_dict() for f in self.findings],
            "notes": list(self.notes),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def csv_row(self) -> list[str]:
        p = self.params
        return [
            self.identity,
            format_rational(p.alpha),
            format_rational(p.beta) if p.beta is not None else "",
            format_rational(p.gamma) if p.gamma is not None else "",
            str(p.i),
            str(p.j),
            str(self.cap) if self.cap is not None else "",
            self.status,
            str(len(self.mismatches)),
            str(self.mismatches[0].degree) if self.mismatches else "",
            repr(self.max_float_residual) if self.float_residuals else "",
            f"{self.elapsed_seconds:.6f}",
        ]

    def summary_line(self) -> str:
        extras = []
        if self.mismatches:
            extras.append(f"{len(self.mismatches)} mismatched degrees, first at {self.mismatches[0].degree}")
        if self.float_residuals:
            extras.append(f"max rel {self.max_float_residual:.3e}")
        if self.findings:
            extras.append(self.findings[0].detail)
        suffix = f" ({'; '.join(extras)})" if extras else ""
        return f"{self.identity} {self.params.describe()}: {self.status}{suffix}"

    def render_text(self) -> str:
        lines = [
            f"identity: {self.identity}",
            f"params:   {self.params.describe()}",
            f"cap:      {self.cap if self.cap is not None else '-'}",
            f"status:   {self.status}",
        ]
        for f in self.findings:
            lines.append(f"finding:  {f.detail}")
        for m in self.mismatches[:10]:
            lines.append(
                f"mismatch: degree {m.degree}: lhs {format_rational(m.lhs)} "
                f"!= rhs {format_rational(m.rhs)}"
            )
        if len(self.mismatches) > 10:
            lines.append(f"mismatch: ... {len(self.mismatches) - 10} more")
        for r in self.float_residuals:
            conv = "" if r.converged else " [did not converge]"
            lines.append(
                f"float:    x = {r.x:g}: lhs {r.lhs:.15g}, rhs {r.rhs:.15g}, "
                f"rel {r.relative_error:.3e}{conv}"
            )
        for note in self.notes:
            lines.append(f"note:     {note}")
        lines.append(f"elapsed:  {self.elapsed_seconds:.3f}s")
        return "\n".join(lines)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a header row and data rows as one CSV document."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: list[VerifyReport] | tuple[VerifyReport, ...]) -> str:
    """Render reports as a CSV document, one row per report."""
    return csv_text(CSV_HEADER, (report.csv_row() for report in reports))
