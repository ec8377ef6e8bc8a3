"""Command-line interface: list, verify, sweep, expand, and eval.

Machine-readable output (one JSON document or one CSV table per run) goes
to stdout; human diagnostics go to stderr. Exit status 0 means everything
requested passed, 1 means some check did not pass, 2 means the request
itself was bad.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .hyper import DegenerateParameterError
from .identities import IdentityParams, catalog, get
from .rationals import RationalParseError, parse_rational
from .reports import csv_text, relative_error, reports_to_csv
from .verify import DEFAULT_FLOAT_TOL, sweep, verify_identity

__all__ = ["MAX_DEGREE", "MAX_SHIFT", "MAX_SWEEP_POINTS", "build_parser", "main", "run"]

#: Request size limits. Exact work grows steeply with the cap and the
#: shifts, so larger requests are refused up front rather than run unbounded.
MAX_DEGREE = 512
MAX_SHIFT = 64
MAX_SWEEP_POINTS = 10_000


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--alpha", required=True, help="rational as p or p/q")
        p.add_argument("--beta", help="rational as p or p/q, for identities that use it")
        p.add_argument("--gamma", help="rational as p or p/q, third parameter of the unit-argument sum")
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
    p_verify.add_argument("--tol", type=float, default=DEFAULT_FLOAT_TOL,
                          help="relative tolerance for float checks (default 1e-10)")
    add_output(p_verify)

    p_sweep = sub.add_parser("sweep", help="verify one identity over a parameter grid")
    p_sweep.add_argument("--identity", required=True, help="catalog tag")
    p_sweep.add_argument("--alpha", required=True,
                         help="comma-separated rationals, e.g. 3/7,2/5")
    p_sweep.add_argument("--beta", help="comma-separated rationals")
    p_sweep.add_argument("--gamma", help="rational, fixed over the grid")
    p_sweep.add_argument("--i", type=int, default=0, help="max first shift (grid runs 0..i)")
    p_sweep.add_argument("--j", type=int, default=0, help="max second shift (grid runs 0..j)")
    p_sweep.add_argument("--degree", type=int, default=None, help="truncation cap for every point")
    p_sweep.add_argument("--tol", type=float, default=DEFAULT_FLOAT_TOL)
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
                        help="evaluation point (required for series identities)")
    add_output(p_eval)

    return parser


def _check_size(args: argparse.Namespace) -> None:
    """Refuse a cap or shift above its limit before any series work."""
    if args.degree is not None and args.degree > MAX_DEGREE:
        raise ValueError(f"--degree {args.degree} exceeds the limit of {MAX_DEGREE}")
    for name in ("i", "j"):
        value = getattr(args, name)
        if value > MAX_SHIFT:
            raise ValueError(f"--{name} {value} exceeds the limit of {MAX_SHIFT}")


def _parse_params(args: argparse.Namespace) -> IdentityParams:
    _check_size(args)
    return IdentityParams(
        alpha=parse_rational(args.alpha),
        beta=parse_rational(args.beta) if args.beta else None,
        gamma=parse_rational(args.gamma) if args.gamma else None,
        i=args.i,
        j=args.j,
        cap=args.degree,
        printed_form=args.printed_form,
    )


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def _cmd_list(args: argparse.Namespace) -> int:
    entries = catalog()
    if args.output == "json":
        doc = [
            {
                "identity": d.tag,
                "name": d.name,
                "kind": d.kind,
                "uses": list(d.uses),
                "summary": d.summary,
            }
            for d in entries
        ]
        print(json.dumps(doc, indent=2))
    elif args.output == "csv":
        rows = [[d.tag, d.name, d.kind, " ".join(d.uses), d.summary] for d in entries]
        sys.stdout.write(csv_text(["identity", "name", "kind", "uses", "summary"], rows))
    else:
        width = max(len(d.name) for d in entries)
        for d in entries:
            uses = ",".join(d.uses)
            print(f"{d.tag:>5}  {d.name:<{width}}  [{d.kind}; uses {uses}]")
            print(f"       {d.summary}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    report = verify_identity(args.identity, params, tol=args.tol)
    if args.output == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.output == "csv":
        sys.stdout.write(reports_to_csv([report]))
    else:
        print(report.render_text())
    if report.findings:
        print(f"hypident: inadmissible: {report.findings[0].detail}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_size(args)
    alphas = _parse_rational_list(args.alpha)
    betas = _parse_rational_list(args.beta) if args.beta else []
    define = get(args.identity)
    # the grid sweep() visits: distinct values of each parameter the entry uses
    points = len(set(alphas))
    if "beta" in define.uses:
        points *= len(set(betas))
    if "i" in define.uses:
        points *= max(args.i + 1, 0)
    if "j" in define.uses:
        points *= max(args.j + 1, 0)
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {points} points exceeds the limit of {MAX_SWEEP_POINTS}")
    reports = sweep(
        args.identity,
        alpha_set=alphas,
        beta_set=betas,
        i_max=args.i,
        j_max=args.j,
        cap=args.degree,
        tol=args.tol,
        gamma=parse_rational(args.gamma) if args.gamma else None,
        printed_form=args.printed_form,
    )
    if args.output == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.output == "csv":
        sys.stdout.write(reports_to_csv(reports))
    else:
        for report in reports:
            print(report.summary_line())
    passed = sum(1 for r in reports if r.passed)
    print(f"hypident: {passed}/{len(reports)} points passed", file=sys.stderr)
    return 0 if passed == len(reports) else 1


def _cmd_expand(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    define = get(args.identity)
    if define.kind != "series":
        raise ValueError(f"identity {define.tag} is a scalar check, it has no series side")
    define.validate_params(params)
    builder = define.build_lhs if args.side == "lhs" else define.build_rhs
    series = builder(params)
    if args.output == "json":
        doc = {
            "identity": define.tag,
            "side": args.side,
            "params": params.to_json_dict(),
            "cap": series.cap,
            "coefficients": series.coefficient_strings(),
        }
        print(json.dumps(doc, indent=2))
    elif args.output == "csv":
        rows = enumerate(series.coefficient_strings())
        sys.stdout.write(csv_text(["degree", "coefficient"], rows))
    else:
        print(f"{define.tag} {args.side} at {params.describe()}:")
        print(series.to_text())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    define = get(args.identity)
    define.validate_params(params)
    scale = 0.0  # sum |t_k| of a float sum, see verify._scalar_float_check
    if define.kind == "series":
        if args.x is None:
            raise ValueError(f"identity {define.tag} needs --x to evaluate")
        lhs, lhs_ok = define.lhs_float(params, args.x)
        rhs, rhs_ok = define.rhs_float(params, args.x)
        x = args.x
        converged = lhs_ok and rhs_ok
    elif define.kind == "exact_sum":
        exact_lhs, exact_rhs = define.scalar_exact(params)
        lhs, rhs = float(exact_lhs), float(exact_rhs)
        x = 1.0
        converged = True
    else:
        lhs, rhs, lhs_sum = define.scalar_float(params)
        x = define.fixed_argument
        converged = lhs_sum.converged
        scale = lhs_sum.abs_sum
    rel = relative_error(lhs, rhs, scale)
    if args.output == "json":
        doc = {
            "identity": define.tag,
            "params": params.to_json_dict(),
            "x": x,
            "lhs": lhs,
            "rhs": rhs,
            "relative_error": rel,
            "converged": converged,
        }
        print(json.dumps(doc, indent=2))
    elif args.output == "csv":
        header = ["identity", "x", "lhs", "rhs", "relative_error", "converged"]
        row = [define.tag, x, repr(lhs), repr(rhs), repr(rel), converged]
        sys.stdout.write(csv_text(header, [row]))
    else:
        print(f"{define.tag} at x = {x:g}, {params.describe()}:")
        print(f"  lhs = {lhs!r}")
        print(f"  rhs = {rhs!r}")
        print(f"  rel = {rel:.3e}" + ("" if converged else "  [did not converge]"))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "expand": _cmd_expand,
    "eval": _cmd_eval,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RationalParseError, ZeroDivisionError, DegenerateParameterError, ValueError) as exc:
        print(f"hypident: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
