"""Verification outcome records and their text, JSON, and CSV renderings.

A :class:`VerifyReport` is the single currency every checking routine
returns: which identity ran, with which parameters, what happened, and the
evidence (coefficient mismatches, admissibility findings, float residuals).
The renderers here are what the command-line front end prints.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .rationals import format_rational, is_nonpositive_integer
from .series import TruncatedSeries

if TYPE_CHECKING:
    from .identities import IdentityParams

__all__ = [
    "AdmissibilityFinding",
    "CoefficientMismatch",
    "FloatResidual",
    "VerifyReport",
    "check_lower",
    "check_poch",
    "check_pole",
    "check_positive",
    "compare_series",
    "csv_text",
    "relative_error",
    "reports_to_csv",
    "CSV_HEADER",
    "STATUS_EXACT_MATCH",
    "STATUS_FLOAT_INCONCLUSIVE",
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
# the float sum found no tail bound within its term budget: neither verdict
STATUS_FLOAT_INCONCLUSIVE = "float_inconclusive"

PASSING_STATUSES = frozenset({STATUS_EXACT_MATCH, STATUS_FLOAT_ONLY_PASS})


class AdmissibilityFinding(NamedTuple):
    """One concrete reason a parameter point is outside an identity's domain.

    ``parameter_expr`` names the offending quantity in the caller's
    parameters (for example ``"(alpha - 1/2)_m"`` or ``"2*alpha - i"``).
    ``index`` locates the zero: for a vanishing Pochhammer factor it is the
    first index (m, n or k) at which the product vanishes, for a degenerate
    lower or Gamma argument it is the series index of the zero factor, and
    it is 0 for violated inequalities. ``detail`` is the human-readable
    sentence.
    """

    parameter_expr: str
    index: int
    value: Fraction
    detail: str
    # not annotated, so a class attribute rather than a field
    severity = "fatal"

    def to_json_dict(self) -> dict:
        return {
            "parameter_expr": self.parameter_expr,
            "index": self.index,
            "value": format_rational(self.value),
            "detail": self.detail,
            "severity": self.severity,
        }


# The admissibility conditions. Each returns the finding when its condition
# fails and None when it holds.


def check_lower(expr: str, value: Fraction, where: str = "") -> AdmissibilityFinding | None:
    """A series lower parameter must not be a nonpositive integer: the term
    recurrence would divide by zero. ``where`` optionally pins the summand,
    e.g. ``"summand m=2"``."""
    if not is_nonpositive_integer(value):
        return None
    tag = f" ({where})" if where else ""
    return AdmissibilityFinding(
        parameter_expr=expr,
        index=int(-value),
        value=value,
        detail=(
            f"lower parameter {expr} = {format_rational(value)} is a "
            f"nonpositive integer{tag}: zero factor at series index {int(-value)}"
        ),
    )


def check_poch(expr: str, value: Fraction, max_index: int, symbol: str) -> AdmissibilityFinding | None:
    """A denominator weight ``(value)_m`` must not vanish for any
    ``m <= max_index``; ``symbol`` is the index the weight runs over (m, n
    or k), as the finding's sentence names it."""
    if not (is_nonpositive_integer(value) and -value <= max_index - 1):
        return None
    first = int(-value) + 1
    return AdmissibilityFinding(
        parameter_expr=expr,
        index=first,
        value=value,
        detail=f"{expr} vanishes from {symbol} = {first} on (base {format_rational(value)})",
    )


def check_pole(expr: str, value: Fraction) -> AdmissibilityFinding | None:
    """The argument of a numerator Gamma factor must not be a nonpositive
    integer."""
    if not is_nonpositive_integer(value):
        return None
    return AdmissibilityFinding(
        parameter_expr=expr,
        index=int(-value),
        value=value,
        detail=f"Gamma argument {expr} = {format_rational(value)} is at a pole",
    )


def check_positive(expr: str, value: Fraction) -> AdmissibilityFinding | None:
    """A convergence condition of a unit-argument sum: value must be
    strictly positive."""
    if value > 0:
        return None
    return AdmissibilityFinding(
        parameter_expr=expr,
        index=0,
        value=value,
        detail=f"convergence condition {expr} > 0 fails ({expr} = {format_rational(value)})",
    )


class CoefficientMismatch(NamedTuple):
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


class FloatResidual(NamedTuple):
    """Relative disagreement of the two float evaluations at one point.

    ``terms`` is the number of series terms a float-sum verdict summed;
    it is None for the cross-checks of series identities. JSON has no
    non-finite floats, so ``to_json_dict`` writes them as null.
    """

    x: float
    relative_error: float
    lhs: float
    rhs: float
    converged: bool = True
    terms: int | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "x": self.x,
            "relative_error": _finite_or_none(self.relative_error),
            "lhs": _finite_or_none(self.lhs),
            "rhs": _finite_or_none(self.rhs),
            "converged": self.converged,
        }
        if self.terms is not None:
            doc["terms"] = self.terms
        return doc


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def relative_error(lhs: float, rhs: float, scale: float = 0.0) -> float:
    """``|lhs - rhs|`` over the largest of ``|lhs|``, ``|rhs|`` and ``scale``.

    ``scale`` is the magnitude the values were computed from, such as
    ``sum |t_k|`` of a summed series; near a zero of the sum it keeps the
    residual meaningful. The result is 0.0 when every scale is 0. Exact
    (``Fraction``) values give an exact result.
    """
    scale = max(abs(lhs), abs(rhs), scale)
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def compare_series(lhs: TruncatedSeries, rhs: TruncatedSeries) -> tuple[CoefficientMismatch, ...]:
    """Exact coefficient diff up to the smaller cap, in degree order.

    Equal series are equal in canonical form, so a match costs one tuple
    comparison. Otherwise each degree is compared by cross-multiplying the
    integer numerators, and fractions are built only where they differ.
    """
    if lhs == rhs:
        return ()
    a, da, b, db = lhs.nums, lhs.den, rhs.nums, rhs.den
    return tuple(
        CoefficientMismatch(k, Fraction(a[k], da), Fraction(b[k], db))
        for k in range(min(lhs.cap, rhs.cap) + 1)
        if a[k] * db != b[k] * da
    )


# the point's fields a CSV row carries, from IdentityParams.to_json_dict; a
# field the entry does not use stays empty
_PARAM_COLUMNS = ("alpha", "beta", "gamma", "i", "j")

CSV_HEADER = (
    "identity",
    *_PARAM_COLUMNS,
    "cap",
    "status",
    "mismatch_count",
    "first_mismatch_degree",
    "max_float_residual",
    "elapsed_seconds",
)


class VerifyReport(NamedTuple):
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
            "params": self.params.to_json_dict(self.identity),
            "cap": self.cap,
            "status": self.status,
            "mismatches": [m.to_json_dict() for m in self.mismatches],
            "float_residuals": [r.to_json_dict() for r in self.float_residuals],
            "findings": [f.to_json_dict() for f in self.findings],
            "notes": list(self.notes),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def csv_row(self) -> list[str]:
        params = self.params.to_json_dict(self.identity)
        return [
            self.identity,
            *("" if params.get(name) is None else str(params[name]) for name in _PARAM_COLUMNS),
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
        return f"{self.identity} {self.params.describe(self.identity)}: {self.status}{suffix}"

    def render_text(self) -> str:
        lines = [
            f"identity: {self.identity}",
            f"params:   {self.params.describe(self.identity)}",
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
            terms = "" if r.terms is None else f", {r.terms} terms"
            conv = "" if r.converged else " [did not converge]"
            lines.append(
                f"float:    x = {r.x:g}: lhs {r.lhs:.15g}, rhs {r.rhs:.15g}, "
                f"rel {r.relative_error:.3e}{terms}{conv}"
            )
        for note in self.notes:
            lines.append(f"note:     {note}")
        lines.append(f"elapsed:  {self.elapsed_seconds:.3f}s")
        return "\n".join(lines)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a header row and data rows as one CSV document."""
    import csv  # only CSV output needs it, so `import hypident.cli` does not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: list[VerifyReport] | tuple[VerifyReport, ...]) -> str:
    """Render reports as a CSV document, one row per report."""
    return csv_text(CSV_HEADER, (report.csv_row() for report in reports))
