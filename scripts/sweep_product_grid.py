#!/usr/bin/env python3
"""Sweep the three product-expansion variants over a shift grid.

Verifies tags 2.1, 2.2, and 2.3 in exact arithmetic for every
(i, j) in {0..i_max} x {0..j_max} at the given rational parameters,
then writes one CSV and one JSON report bundle. A grid the command-line
sweep would refuse (a negative or oversized shift or cap, or more points
than its limit) exits 2 with a one-line message before any work. After a
run, one line on stderr gives the point count, the wall time and the p50,
p95 and largest per-point ``elapsed_seconds``.

Usage:
    python3 scripts/sweep_product_grid.py --alpha 3/7 --beta 2/5 \
        --i-max 4 --j-max 4 --out-dir results
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypident.cli import MAX_DEGREE, MAX_SHIFT, MAX_SWEEP_POINTS  # noqa: E402
from hypident.rationals import parse_rational  # noqa: E402
from hypident.reports import reports_to_csv  # noqa: E402
from hypident.verify import DEFAULT_FLOAT_POINTS, sweep  # noqa: E402

PRODUCT_TAGS = ("2.1", "2.2", "2.3")


def _check_grid(args: argparse.Namespace) -> None:
    """Refuse, before any work, a grid that ``hypident sweep`` would refuse."""
    for name, value in (("--i-max", args.i_max), ("--j-max", args.j_max)):
        if value < 0:
            raise ValueError(f"{name} {value} must be nonnegative")
        if value > MAX_SHIFT:
            raise ValueError(f"{name} {value} exceeds the limit of {MAX_SHIFT}")
    if args.degree is not None and not 0 <= args.degree <= MAX_DEGREE:
        raise ValueError(f"--degree {args.degree} must be in 0..{MAX_DEGREE}")
    points = len(PRODUCT_TAGS) * (args.i_max + 1) * (args.j_max + 1)
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid of {points} points exceeds the limit of {MAX_SWEEP_POINTS}")


def _timing_line(reports: list, wall: float) -> str:
    """Point count, wall time, and the per-point time distribution."""
    per_point = [r.elapsed_seconds * 1000 for r in reports]  # one per tag at least, as quantiles needs two
    return (
        f"timing: {len(per_point)} points in {wall:.3f} s; per point p50 "
        f"{statistics.median(per_point):.3f} ms, p95 {statistics.quantiles(per_point, n=20)[18]:.3f} ms, "
        f"max {max(per_point):.3f} ms"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", default="3/7", help="first rational parameter")
    parser.add_argument("--beta", default="2/5", help="second rational parameter")
    parser.add_argument("--i-max", type=int, default=4, help="largest first shift")
    parser.add_argument("--j-max", type=int, default=4, help="largest second shift")
    parser.add_argument("--degree", type=int, default=None,
                        help="truncation cap (default 2*(i+j)+16 per point)")
    parser.add_argument("--with-floats", action="store_true",
                        help="also cross-check each point at the default float samples")
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for grid.csv and grid.json (default results/)")
    args = parser.parse_args()

    try:
        _check_grid(args)
        alpha = parse_rational(args.alpha)
        beta = parse_rational(args.beta)
    except (ZeroDivisionError, ValueError) as exc:  # ValueError covers RationalParseError
        print(f"sweep_product_grid: error: {exc}", file=sys.stderr)
        return 2
    float_points = DEFAULT_FLOAT_POINTS if args.with_floats else ()

    start = time.perf_counter()
    reports = []
    for tag in PRODUCT_TAGS:
        grid = sweep(tag, [alpha], [beta], args.i_max, args.j_max, cap=args.degree, float_points=float_points)
        for report in grid:
            print(report.summary_line())
        reports.extend(grid)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "grid.csv"
    json_path = args.out_dir / "grid.json"
    csv_path.write_text(reports_to_csv(reports))
    json_path.write_text(json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")

    passed = sum(1 for r in reports if r.passed)
    print(f"{passed}/{len(reports)} grid points passed")
    print(f"wrote {csv_path} and {json_path}")
    print(_timing_line(reports, time.perf_counter() - start), file=sys.stderr)
    return 0 if passed == len(reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
