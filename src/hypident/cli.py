"""Command-line interface: list, verify, sweep, expand, and eval.

Machine-readable output (one JSON document or one CSV table per run) goes
to stdout; human diagnostics go to stderr. Exit status 0 means everything
requested passed, 1 means some check did not pass, 2 means the request
itself was bad.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable

from .identities import IdentityParams, catalog, get
from .rationals import parse_rational
from .reports import CSV_HEADER, csv_text
from .verify import check_admissible, float_residuals, sweep, sweep_axes, verify_identity

__all__ = ["MAX_DEGREE", "MAX_RATIONAL_BITS", "MAX_SHIFT", "MAX_SWEEP_POINTS", "build_parser", "main", "run"]

#: Request size limits. Exact work grows steeply with the cap, the shifts
#: and the bits of each parameter's reduced numerator and denominator, so
#: larger requests are refused up front rather than run unbounded.
MAX_DEGREE = 512
MAX_RATIONAL_BITS = 64
MAX_SHIFT = 64
MAX_SWEEP_POINTS = 10_000


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``hypident`` command line, the caller's own.

    ``run`` does not call this per request: it parses with one private
    parser per process, built by this function on first use.
    """
    parser = argparse.ArgumentParser(
        prog="hypident",
        description="Verify confluent hypergeometric product identities in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json", "csv"), default="text",
                       help="rendering for stdout (default text)")

    def add_point_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--identity", required=True, help="catalog tag, e.g. 2.1 (see: hypident list)")
        p.add_argument("--alpha", required=True, help="rational as p or p/q; a negative one as --alpha=-3/2")
        p.add_argument("--beta", help="rational as p or p/q, for identities that use it; a negative one as --beta=-3/2")
        p.add_argument("--gamma", help="rational as p or p/q, third parameter of the unit-argument sum; a negative one as --gamma=-3/2")
        p.add_argument("--i", type=int, default=0, help="first shift (nonnegative, default 0)")
        p.add_argument("--j", type=int, default=0, help="second shift (nonnegative, default 0)")
        p.add_argument("--degree", type=int, default=None,
                       help="truncation cap (default 2*(i+j)+16)")
        p.add_argument("--printed-form", action="store_true",
                       help="mixed variant only: use the transcription whose second "
                            "shift factor is indexed by m instead of n")

    p_list = sub.add_parser("list", help="print the identity catalog")
    add_output(p_list)

    p_verify = sub.add_parser("verify", help="verify one identity at one parameter point")
    add_point_args(p_verify)
    add_output(p_verify)

    p_sweep = sub.add_parser("sweep", help="verify identities over a parameter grid")
    p_sweep.add_argument("--identity", required=True,
                         help="comma-separated catalog tags, e.g. 2.1,2.2,2.3; reports come in tag order")
    p_sweep.add_argument("--alpha", required=True,
                         help="comma-separated rationals, e.g. 3/7,2/5; with a negative first one as --alpha=-1/2,3/7")
    p_sweep.add_argument("--beta", help="comma-separated rationals; with a negative first one as --beta=-1/2,3/7")
    p_sweep.add_argument("--gamma", help="rational, fixed over the grid; a negative one as --gamma=-3/2")
    p_sweep.add_argument("--i", type=int, default=0, help="max first shift (grid runs 0..i)")
    p_sweep.add_argument("--j", type=int, default=0, help="max second shift (grid runs 0..j)")
    p_sweep.add_argument("--degree", type=int, default=None, help="truncation cap for every point")
    p_sweep.add_argument("--printed-form", action="store_true")
    add_output(p_sweep)

    p_expand = sub.add_parser("expand", help="print one side of an identity as an exact series")
    add_point_args(p_expand)
    p_expand.add_argument("--side", choices=("lhs", "rhs"), default="rhs",
                          help="which construction to expand (default rhs)")
    add_output(p_expand)

    p_eval = sub.add_parser("eval", help="evaluate both sides numerically")
    add_point_args(p_eval)
    p_eval.add_argument("--x", type=float, default=None,
                        help="evaluation point, required for series identities; a scalar one "
                             "(1.3, 1.4, 1.8) has its fixed argument and refuses --x")
    add_output(p_eval)

    return parser


def _check_size(args: argparse.Namespace) -> None:
    """Refuse a cap outside 0..MAX_DEGREE or a shift outside 0..MAX_SHIFT
    before any series work."""
    for name, limit in (("degree", MAX_DEGREE), ("i", MAX_SHIFT), ("j", MAX_SHIFT)):
        value = getattr(args, name)
        if value is not None and value > limit:
            raise ValueError(f"--{name} {value} exceeds the limit of {limit}")
        if value is not None and value < 0:
            raise ValueError(f"--{name} {value} is below the limit of 0")


def _parse_bounded(text: str, option: str) -> Fraction:
    value = parse_rational(text)
    if max(abs(value.numerator), value.denominator).bit_length() > MAX_RATIONAL_BITS:
        raise ValueError(f"--{option}: a numerator or denominator exceeds the limit of {MAX_RATIONAL_BITS} bits")
    return value


def _parse_params(args: argparse.Namespace) -> IdentityParams:
    _check_size(args)
    return IdentityParams(
        alpha=_parse_bounded(args.alpha, "alpha"),
        beta=_parse_bounded(args.beta, "beta") if args.beta else None,
        gamma=_parse_bounded(args.gamma, "gamma") if args.gamma else None,
        i=args.i,
        j=args.j,
        cap=args.degree,
        printed_form=args.printed_form,
    )


def _parse_rational_list(text: str, option: str) -> list[Fraction]:
    return [_parse_bounded(part, option) for part in text.split(",") if part.strip()]


def _write(output: str, doc: Callable[[], object], table: Callable[[], tuple], text: Callable[[], str]) -> None:
    """Write the requested rendering, and only build that one: ``doc()`` as
    JSON, ``table()`` as a ``(header, rows)`` CSV table, or ``text()``. If
    the reader closes stdout early, the rest goes to the null device and the
    command keeps its exit status."""
    if output == "json":
        import json  # only JSON output needs it, so `import hypident.cli` does not load it

        payload = json.dumps(doc(), indent=2) + "\n"
    elif output == "csv":
        payload = csv_text(*table())
    else:
        payload = text() + "\n"
    try:
        sys.stdout.write(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush succeed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_list(args: argparse.Namespace) -> int:
    entries = catalog()
    header = ["identity", "name", "kind", "uses", "summary"]
    width = max(len(d.name) for d in entries)
    _write(
        args.output,
        lambda: [dict(zip(header, (d.tag, d.name, d.kind, list(d.uses), d.summary))) for d in entries],
        lambda: (header, [[d.tag, d.name, d.kind, " ".join(d.uses), d.summary] for d in entries]),
        lambda: "\n".join(
            f"{d.tag:>5}  {d.name:<{width}}  [{d.kind}; uses {','.join(d.uses)}]\n       {d.summary}" for d in entries
        ),
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    report = verify_identity(args.identity, params)
    _write(args.output, report.to_json_dict, lambda: (CSV_HEADER, [report.csv_row()]), report.render_text)
    if report.findings:
        print(f"hypident: inadmissible: {report.findings[0].detail}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import statistics  # only a sweep needs it, so `import hypident.cli` does not load it

    _check_size(args)
    alphas = _parse_rational_list(args.alpha, "alpha")
    betas = _parse_rational_list(args.beta, "beta") if args.beta else []
    gamma = _parse_bounded(args.gamma, "gamma") if args.gamma else None
    defines = [get(tag) for tag in args.identity.split(",")]
    for n, define in enumerate(defines):
        if define in defines[:n]:
            raise ValueError(f"--identity {args.identity} names identity {define.tag} more than once")
    for shift in ("i", "j"):
        value = getattr(args, shift)
        if value and not any(shift in define.uses for define in defines):
            raise ValueError(f"--{shift} {value}: none of the identities {args.identity} takes shift {shift}")
    if args.degree is not None and not any(define.kind == "series" for define in defines):
        raise ValueError(f"--degree {args.degree}: none of the identities {args.identity} is a series entry")
    points = 0
    for define in defines:
        axes = sweep_axes(define.id, alphas, betas, args.i, args.j)
        size = math.prod(len(axis) for axis in axes)
        if size == 0:
            uses = ", ".join(f"--{name}" for name in define.uses if name in ("alpha", "beta"))
            raise ValueError(f"sweep grid is empty: identity {define.tag} needs at least one value of {uses}")
        points += size
        # every tag's request errors come before the first point runs
        alpha, beta, i, j = (axis[0] for axis in axes)
        define.validate_params(IdentityParams(alpha, beta, i, j, gamma=gamma, printed_form=args.printed_form))
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {points} points exceeds the limit of {MAX_SWEEP_POINTS}")
    start = time.perf_counter()
    reports = [
        report
        for define in defines
        for report in sweep(define.id, alphas, betas, args.i, args.j, gamma=gamma,
                            cap=args.degree if define.kind == "series" else None, printed_form=args.printed_form)
    ]
    wall = time.perf_counter() - start
    _write(
        args.output,
        lambda: [r.to_json_dict() for r in reports],
        lambda: (CSV_HEADER, [r.csv_row() for r in reports]),
        lambda: "\n".join(r.summary_line() for r in reports),
    )
    passed = sum(1 for r in reports if r.passed)
    print(f"hypident: {passed}/{len(reports)} points passed", file=sys.stderr)
    per_point = [r.elapsed_seconds * 1000 for r in reports]
    # inclusive, so p95 never exceeds max; before Python 3.13 quantiles needs two points
    p95 = statistics.quantiles(per_point, n=20, method="inclusive")[18] if len(per_point) > 1 else per_point[0]
    print(f"timing: {len(reports)} points in {wall:.3f} s; per point p50 {statistics.median(per_point):.3f} ms, "
          f"p95 {p95:.3f} ms, max {max(per_point):.3f} ms", file=sys.stderr)
    return 0 if passed == len(reports) else 1


def _cmd_expand(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    define = get(args.identity)
    define.validate_params(params)
    if define.kind != "series":
        raise ValueError(f"identity {define.tag} is a scalar check, it has no series side")
    builder = define.build_lhs if args.side == "lhs" else define.build_rhs
    series = builder(params)
    _write(
        args.output,
        lambda: {
            "identity": define.tag,
            "side": args.side,
            "params": params.to_json_dict(define.tag),
            "cap": series.cap,
            "coefficients": series.coefficient_strings(),
        },
        lambda: (["degree", "coefficient"], enumerate(series.coefficient_strings())),
        lambda: f"{define.tag} {args.side} at {params.describe(define.tag)}:\n{series.to_text()}",
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.x is not None and not math.isfinite(args.x):
        raise ValueError(f"--x must be a finite number, got {args.x}")
    params = _parse_params(args)
    define = get(args.identity)
    # the gate verify asks: no float work at a point where the identity is not claimed
    findings = check_admissible(define.id, params)
    if findings:
        raise ValueError(f"inadmissible: {findings[0].detail}")
    if define.kind == "series" and args.x is None:
        raise ValueError(f"identity {define.tag} needs --x to evaluate")
    (residual,) = float_residuals(define.id, params, () if args.x is None else (args.x,))
    # JSON has no token for a non-finite side, and no residual is meaningful
    if define.kind == "series" and not (math.isfinite(residual.lhs) and math.isfinite(residual.rhs)):
        raise ValueError(f"a float side of identity {define.tag} overflows at --x {args.x:g}")
    fields = ("x", "lhs", "rhs", "relative_error", "converged")

    def doc() -> dict:
        values = residual.to_json_dict()
        return {"identity": define.tag, "params": params.to_json_dict(define.tag), **{key: values[key] for key in fields}}

    # the csv module writes each float as its repr, as the table always showed
    _write(
        args.output,
        doc,
        lambda: (["identity", *fields], [[define.tag, *(getattr(residual, key) for key in fields)]]),
        lambda: (
            f"{define.tag} at x = {residual.x:g}, {params.describe(define.tag)}:\n  lhs = {residual.lhs!r}\n"
            f"  rhs = {residual.rhs!r}\n  rel = {residual.relative_error:.3e}"
            + ("" if residual.converged else "  [did not converge]")
        ),
    )
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "expand": _cmd_expand,
    "eval": _cmd_eval,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser ``run`` reuses. Parsing leaves no state on it: each
    ``parse_args`` call fills a new ``Namespace``."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ZeroDivisionError, ValueError) as exc:
        print(f"hypident: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
