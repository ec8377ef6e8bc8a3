#!/usr/bin/env python3
"""Compare every series side of this checkout with those of another one.

    python3 scripts/compare_sides.py OTHER_CHECKOUT [--quick]

Both ``src/hypident`` trees are loaded into one process, each as a package
under a name of its own, so neither is shadowed by an installed
``hypident``. For every series entry of the catalog, over a grid of points,
``build_lhs`` and ``build_rhs`` run in both trees and their ``(cap, den,
nums)`` are compared; where a build raises, the exception's type name,
message, ``expr``, ``value`` and ``index`` are compared instead. At the
default cap ``lhs_float`` and ``rhs_float`` at the default float points
are compared too, bit for bit (by ``repr``, which round-trips a double).

The grid takes ten alphas, among them 0, -1, -1/2 and -7/4; betas 2/5,
-13/5 and ``beta = alpha`` for an entry that uses beta; shifts i, j <= 3
for an entry that uses them; caps 0, 1, 2, the default and 96; and the
printed-form reading for 2.3 and 3.3. ``--quick`` takes two alphas, shifts
up to 1 and caps 0 and the default.

Prints the number of cases compared, the number that differ and the first
differences. Exit status is 1 on any difference, 0 otherwise. Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
F = Fraction
ALPHAS = (F(3, 7), F(0), F(-1), F(-1, 2), F(-7, 4), F(1, 2), F(1), F(7, 3), F(-5, 11), F(5, 2))
BETAS = (F(2, 5), F(-13, 5), None)  # None: beta = alpha
CAPS = (0, 1, 2, None, 96)
PRINTED_FORM_TAGS = ("2.3", "3.3")
SHOWN = 10


def load(src: Path, name: str) -> ModuleType:
    """The package at ``src/hypident``, imported as ``name``."""
    init = src / "hypident" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def outcome(call) -> tuple:
    """What a build or float call gives, in a form that compares across trees."""
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        fields = (getattr(error, key, None) for key in ("expr", "value", "index"))
        return ("raises", type(error).__name__, str(error), *fields)
    if isinstance(result, list):
        return ("floats", repr(result))
    return ("series", result.cap, result.den, result.nums)


def points(define, quick: bool):
    """Keyword arguments of every grid point of one catalog entry: the
    fields it uses, the cap, and the printed form where it reads one."""
    alphas = ALPHAS[:1] + ALPHAS[3:4] if quick else ALPHAS
    shifts = range(2 if quick else 4)
    caps = (0, None) if quick else CAPS
    for alpha in alphas:
        for beta in BETAS if "beta" in define.uses else (False,):
            for i in shifts if "i" in define.uses else (False,):
                for j in shifts if "j" in define.uses else (False,):
                    for printed in (False, True) if define.tag in PRINTED_FORM_TAGS else (False,):
                        for cap in caps:
                            point = dict(alpha=alpha, beta=alpha if beta is None else beta, i=i, j=j,
                                         cap=cap, printed_form=printed)
                            yield {key: value for key, value in point.items() if value is not False}


def cases(trees: list[ModuleType], quick: bool):
    """``(label, outcome in each tree)`` for every side, series and float."""
    modules = [(importlib.import_module(f"{t.__name__}.identities"), importlib.import_module(f"{t.__name__}.verify"))
               for t in trees]
    for define in modules[0][0].catalog():
        if define.kind != "series":
            continue
        for point in points(define, quick):
            label = " ".join([define.tag, *(f"{key}={'default' if v is None else v}" for key, v in point.items())])
            builds = [(identities.get(define.tag), identities.IdentityParams(**point), verify.DEFAULT_FLOAT_POINTS)
                      for identities, verify in modules]
            for side in ("lhs", "rhs"):
                yield f"{label} build_{side}", [outcome(lambda: getattr(d, f"build_{side}")(p)) for d, p, _ in builds]
                if point["cap"] is None:  # a float side has no cap
                    floats = [outcome(lambda: getattr(d, f"{side}_float")(p, xs)) for d, p, xs in builds]
                    yield f"{label} {side}_float", floats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--quick", action="store_true", help="a small grid, for a smoke test")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "hypident" / "__init__.py").is_file():
        parser.error(f"no src/hypident package under {args.other}")
    trees = [load(ROOT / "src", "hypident_this"), load(args.other / "src", "hypident_other")]
    total, differ = 0, []
    for label, (this, other) in cases(trees, args.quick):
        total += 1
        if this != other:
            differ.append((label, this, other))
    print(f"compared {total} cases: {len(differ)} differ")
    for label, this, other in differ[:SHOWN]:
        print(f"  {label}\n    this:  {str(this)[:200]}\n    other: {str(other)[:200]}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
