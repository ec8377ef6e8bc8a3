#!/usr/bin/env python3
"""Run the acceptance criteria outside pytest and print the scoreboard.

Usage:
    python3 scripts/run_acceptance.py           # run everything
    python3 scripts/run_acceptance.py 1 7 10    # run a subset by number

Exit status is 0 when every requested criterion passes, 1 otherwise.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_acceptance import CRITERIA  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "numbers", nargs="*", type=int,
        help="criterion numbers to run (default: all)",
    )
    args = parser.parse_args()

    selected = [c for c in CRITERIA if not args.numbers or c[0] in args.numbers]
    unknown = set(args.numbers) - {c[0] for c in CRITERIA}
    if unknown:
        parser.error(f"no such criterion: {sorted(unknown)}")

    failed = 0
    for number, label, fn in selected:
        start = time.perf_counter()
        failures = fn()
        elapsed = time.perf_counter() - start
        verdict = "PASS" if not failures else "FAIL"
        print(f"criterion {number:02d} ({label}): {verdict}  [{elapsed:.2f}s]")
        for line in failures:
            print(f"    {line}")
        failed += bool(failures)

    print(f"{len(selected) - failed}/{len(selected)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
