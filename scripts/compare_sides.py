#!/usr/bin/env python3
"""Compare every side and every admissibility check of this checkout with
those of another one.

    python3 scripts/compare_sides.py OTHER_CHECKOUT [--quick]

Both ``src/hypident`` trees are loaded into one process, each as a package
under a name of its own, so neither is shadowed by an installed
``hypident``. For every series entry of the catalog, over a grid of points,
``build_lhs`` and ``build_rhs`` run in both trees and their ``(cap, den,
nums)`` are compared; where a build raises, the exception's type name,
message, ``expr``, ``value`` and ``index`` are compared instead. At the
default cap ``lhs_float`` and ``rhs_float`` at the default float points
are compared too, bit for bit (by ``repr``, which round-trips a double).
At every series point the ``verdict`` of ``verify_identity`` is compared
as well: its status, first mismatch degree, findings and notes, or what it
raises, but not its mismatch counts or values. So a change that restates
the sides on purpose shows in the ``build_*`` and ``*_float`` kinds while
``verdict`` reads 0.
The scalar entries are compared by the ``repr`` of what they give:
``scalar_exact`` of 1.3 (both exact sides), and ``scalar_float`` of 1.4
and 1.8 (lhs, rhs and every ``FloatSum`` field). At every point of every
entry the ``verify.check_admissible`` findings are compared too, as their
``to_json_dict()``.

The series grid takes ten alphas, among them 0, -1, -1/2 and -7/4; betas
2/5, -13/5 and ``beta = alpha`` for an entry that uses beta; shifts i,
j <= 3 for an entry that uses them; caps 0, 1, 2, the default and 96; and
the printed-form reading for 2.3 and 3.3. The scalar grid takes fourteen
values each of alpha, beta and gamma, as each entry uses them, and n = i
in 0, 1, 4, 9 for 1.3. They hold terminating ``a = -n`` points with n odd
and even, Gamma poles, ``2*gamma`` at 0 and below, low and high excess
``gamma - (alpha + beta)/2 + 1/2``, and the 1.4 and 1.8 points that
cancel catastrophically (alpha -300 and -301/3). A 1.8 sum that does not
converge (``2*gamma - alpha - beta + 1 <= 0`` with no terminating
parameter) would spend its whole term budget, so there it is not summed.
``--quick`` takes two alphas, shifts up to 1 and caps 0 and the default,
and three scalar values of each parameter.

Prints the number of cases compared, the number that differ, the first
differences, and then the number of differing cases in each class, a class
being the entry's tag and the case's kind (``3.1 build_rhs: 12``), in the
order the classes first differ. Exit status is 1 on any difference, 0
otherwise. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
F = Fraction
ALPHAS = (F(3, 7), F(0), F(-1), F(-1, 2), F(-7, 4), F(1, 2), F(1), F(7, 3), F(-5, 11), F(5, 2))
BETAS = (F(2, 5), F(-13, 5), None)  # None: beta = alpha
CAPS = (0, 1, 2, None, 96)
PRINTED_FORM_TAGS = ("2.3", "3.3")
SCALAR_ALPHAS = (F(1, 3), F(-5), F(-4), F(-300), F(0), F(-1, 2), F(3, 7), F(-4, 7), F(7, 3), F(1), F(2), F(-301, 3),
                 F(5, 2), F(-7, 4))
SCALAR_BETAS = (F(2, 5), F(1, 3), F(-14), F(6, 11), F(-13, 5), F(0), F(-1), F(2), F(1, 2), F(-3, 2), F(9, 4), F(-5, 11),
                F(3), F(-2, 9))
SCALAR_GAMMAS = (F(1, 7), F(5), F(-1, 2), F(-1311, 11), F(43, 13), F(0), F(-1), F(-3, 2), F(1, 2), F(1), F(2, 9),
                 F(3, 4), F(-5, 3), F(11, 6))
SCALAR_SHIFTS = (0, 1, 4, 9)
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
    """What a call gives, in a form that compares across trees: a series by
    its integers, anything else by its ``repr``."""
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        fields = (getattr(error, key, None) for key in ("expr", "value", "index"))
        return ("raises", type(error).__name__, str(error), *fields)
    if hasattr(result, "nums"):
        return ("series", result.cap, result.den, result.nums)
    return ("value", repr(result))


def verdict(report) -> tuple:
    """A report's verdict: its status, first mismatch degree, findings and notes."""
    first = report.mismatches[0].degree if report.mismatches else None
    return report.status, first, [f.to_json_dict() for f in report.findings], report.notes


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


def scalar_points(define, quick: bool):
    """Keyword arguments of every scalar grid point of one catalog entry."""
    count = 3 if quick else len(SCALAR_ALPHAS)
    grid = {"alpha": SCALAR_ALPHAS[:count], "beta": SCALAR_BETAS[:count], "gamma": SCALAR_GAMMAS[:count],
            "i": SCALAR_SHIFTS[:2] if quick else SCALAR_SHIFTS}
    names = [name for name in grid if name in define.uses]
    for values in itertools.product(*(grid[name] for name in names)):
        yield dict(zip(names, values))


def converges(point: dict) -> bool:
    """Whether a unit-argument 1.8 sum at the point ends or converges."""
    a, b, c = point["alpha"], point["beta"], point["gamma"]
    return any(u.denominator == 1 and u <= 0 for u in (a, b, c)) or 2 * c - a - b + 1 > 0


def cases(trees: list[ModuleType], quick: bool):
    """``(label, outcome in each tree)`` for every side, series, float and
    scalar, every series verdict and every admissibility check."""
    modules = [(importlib.import_module(f"{t.__name__}.identities"), importlib.import_module(f"{t.__name__}.verify"))
               for t in trees]
    for define in modules[0][0].catalog():
        for point in points(define, quick) if define.kind == "series" else scalar_points(define, quick):
            label = " ".join([define.tag, *(f"{key}={'default' if v is None else v}" for key, v in point.items())])
            builds = [(identities.get(define.tag), identities.IdentityParams(**point), verify)
                      for identities, verify in modules]
            if point.get("cap") is None:  # admissibility does not read the cap
                yield f"{label} check_admissible", [
                    outcome(lambda: [f.to_json_dict() for f in v.check_admissible(d.tag, p)]) for d, p, v in builds]
            if define.kind != "series":
                field = "scalar_exact" if define.kind == "exact_sum" else "scalar_float"
                if define.tag != "1.8" or converges(point):
                    yield f"{label} {field}", [outcome(lambda: getattr(d, field)(p)) for d, p, _ in builds]
                continue
            yield f"{label} verdict", [outcome(lambda: verdict(v.verify_identity(d.tag, p, ()))) for d, p, v in builds]
            for side in ("lhs", "rhs"):
                yield f"{label} build_{side}", [outcome(lambda: getattr(d, f"build_{side}")(p)) for d, p, _ in builds]
                if point["cap"] is None:  # a float side has no cap
                    floats = [outcome(lambda: getattr(d, f"{side}_float")(p, v.DEFAULT_FLOAT_POINTS))
                              for d, p, v in builds]
                    yield f"{label} {side}_float", floats


def case_class(label: str) -> str:
    """A case's class: the first and last words of its label, the entry's tag and the case's kind."""
    words = label.split()
    return f"{words[0]} {words[-1]}"


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
    for name, count in Counter(case_class(label) for label, *_ in differ).items():
        print(f"{name}: {count}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
