#!/usr/bin/env python3
"""Time the side builders of this checkout against those of another one,
call by call in one process.

    python3 scripts/bench_layers.py OTHER_CHECKOUT [--rounds N] [--quick] [--out BENCH.json]

Both ``src/hypident`` trees are loaded as packages of their own with
``compare_sides.py``'s loader. Every case is one builder, ``build_lhs`` or
``build_rhs``, one float side, ``lhs_float`` or ``rhs_float`` at the
default float points, or one ``verify_identity`` with its default cap and
float points, of one catalog entry at one point; it runs in both
trees, interleaved, the other tree first in even rounds and this one first
in odd rounds. A round times a batch of calls in each tree, sized once so that a
batch takes about a millisecond in the other tree. For each case the output
gives both trees' minimum over the rounds (seconds a call), the median over
the rounds of the ratio ``other / this`` (above 1: this checkout is faster),
and the number of rounds this checkout was faster. A case that a tree cannot
build is reported as missing.

The ladder: ``build_rhs`` of every single-series entry with an exponential
(1.5, 1.9, 1.10, 1.12, 1.13) and ``build_lhs`` of 1.10 at caps 16, 96 and
512; ``build_rhs`` of 1.7 at the same caps; ``verify_identity`` of the
five exponential entries at their defaults and of 1.8 at gamma 5, a
non-terminating unit-argument sum; ``build_rhs`` of 3.1 at
i = j in 2, 8 and 20, at the default cap, and of 2.1 at i = j = 2;
``build_lhs`` of 1.6 at cap 512; ``lhs_float`` and ``rhs_float`` of 1.10,
of 1.17 at i = 8, and of 2.1 and 3.1 at i = j = 8. The point is alpha 3/7,
beta 2/5. Then come the record constructors that the hot paths call per
point: a ``FloatSum``, a ``1F1`` ``HypSpec``, an ``IdentityParams``, and
``tuple(ProductSide.terms)`` of 3.1's right side at i = j = 8, which
built its 81 ``Term`` and ``HypSpec`` records and is missing in a tree
without that view. Then come the per-point layers: ``_float_terms`` of
the same side, which lists those blocks for the float route, and
``verify.check_admissible`` of 1.8 at gamma 5 and of 2.1 at i = j = 8,
each on a fresh ``IdentityParams`` as a request makes one. Then comes one
whole request, ``cli.run`` of ``verify`` at that 1.8 point with ``--output=json``,
its stdout kept in memory. Last comes the import case, ``python3 -c "import hypident.cli"`` with only the tree's ``src``
on ``PYTHONPATH``: the wall time of one fresh process a batch, as the
benchmark's ``setup_s`` takes it. Both trees are byte-compiled first, as ``bench_pairs.py`` does,
since a fresh process may not write its own cache; a tree that cannot
import it is reported as missing. ``--quick`` takes two builders
at cap 16, one float side, the constructors, the per-point layers, the
request and the import case, for a smoke test.

The result is printed as a table and, with ``--out``, written under the
``layers`` key of that JSON file; an existing file is updated, not
replaced. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_sides import ROOT, load  # noqa: E402

POINT = dict(alpha=Fraction(3, 7), beta=Fraction(2, 5))
EXPONENTIAL_RIGHT_SIDES = ("1.5", "1.9", "1.10", "1.12", "1.13")
FLOAT_SIDES = (("1.10", {}), ("1.17", dict(i=8)), ("2.1", dict(i=8, j=8)), ("3.1", dict(i=8, j=8)))
BATCH_SECONDS = 1e-3
CONSTRUCTORS = ("FloatSum", "HypSpec 1F1", "IdentityParams", "3.1 tuple(ProductSide.terms) i=8 j=8")
LAYERS = ("3.1 _float_terms i=8 j=8", "check_admissible 1.8 gamma=5", "check_admissible 2.1 i=8 j=8")
IMPORT_CASE = "import hypident.cli"
WATSON_POINT = dict(gamma=Fraction(5))
REQUEST = ["verify", "--identity=1.8", "--alpha=3/7", "--beta=2/5", "--gamma=5", "--output=json"]
REQUEST_CASE = "cli.run verify 1.8 --output=json"


def ladder(quick: bool) -> list[tuple[str, str, dict]]:
    """``(tag, builder, point)`` of every case."""
    if quick:
        return [("1.10", "build_rhs", dict(cap=16)), ("1.10", "build_lhs", dict(cap=16)), ("1.10", "rhs_float", {})]
    cases = []
    for cap in (16, 96, 512):
        cases += [(tag, "build_rhs", dict(cap=cap)) for tag in (*EXPONENTIAL_RIGHT_SIDES, "1.7")]
        cases.append(("1.10", "build_lhs", dict(cap=cap)))
    cases += [(tag, "verify_identity", {}) for tag in EXPONENTIAL_RIGHT_SIDES]
    cases.append(("1.8", "verify_identity", WATSON_POINT))
    cases += [("3.1", "build_rhs", dict(i=n, j=n)) for n in (2, 8, 20)]
    cases.append(("2.1", "build_rhs", dict(i=2, j=2)))
    cases.append(("1.6", "build_lhs", dict(cap=512)))
    cases += [(tag, side, point) for tag, point in FLOAT_SIDES for side in ("lhs_float", "rhs_float")]
    return cases


def label(tag: str, builder: str, point: dict) -> str:
    return " ".join([tag, builder, *(f"{key}={value}" for key, value in point.items())])


def call_of(tree, tag: str, builder: str, point: dict):
    """A no-argument call of the builder in one tree, a float side at the
    tree's default float points, ``verify_identity`` of the entry, or None
    if the tree cannot build the case."""
    identities = sys.modules[f"{tree.__name__}.identities"]
    try:
        args = [identities.IdentityParams(**POINT, **point)]
        if builder == "verify_identity":
            build = sys.modules[f"{tree.__name__}.verify"].verify_identity
            args.insert(0, tag)
        else:
            build = getattr(identities.get(tag), builder)
        if builder.endswith("_float"):
            args.append(sys.modules[f"{tree.__name__}.verify"].DEFAULT_FLOAT_POINTS)
        build(*args)
    except Exception:  # noqa: BLE001 - a case a tree cannot run is missing
        return None
    return lambda: build(*args)


def constructor_call(tree, name: str):
    """A no-argument call of one of ``CONSTRUCTORS`` in one tree, at the
    ladder's point, or None if the tree cannot make it."""
    hyper, identities = (sys.modules[f"{tree.__name__}.{module}"] for module in ("hyper", "identities"))
    alpha, beta = POINT["alpha"], POINT["beta"]
    lower = 2 * alpha
    try:
        side = identities._equal_param_rhs((True, True), identities.IdentityParams(**POINT, i=8, j=8), False)
        call = {
            "FloatSum": lambda: hyper.FloatSum(0.5, True, 40, 1.5, 1e-16),
            "HypSpec 1F1": lambda: hyper.HypSpec((alpha,), (lower,)),
            "IdentityParams": lambda: identities.IdentityParams(alpha=alpha, beta=beta, i=8, j=8),
            "3.1 tuple(ProductSide.terms) i=8 j=8": lambda: tuple(side.terms),
        }[name]
        call()
    except Exception:  # noqa: BLE001 - a case a tree cannot run is missing
        return None
    return call


def layer_call(tree, name: str):
    """A no-argument call of one of ``LAYERS`` in one tree, at the ladder's
    point, or None if the tree cannot make it."""
    identities = sys.modules[f"{tree.__name__}.identities"]
    check_admissible = sys.modules[f"{tree.__name__}.verify"].check_admissible
    params = identities.IdentityParams
    try:
        side = identities._equal_param_rhs((True, True), params(**POINT, i=8, j=8), False)
        call = {
            "3.1 _float_terms i=8 j=8": lambda: identities._float_terms(side),
            "check_admissible 1.8 gamma=5": lambda: check_admissible("1.8", params(**POINT, **WATSON_POINT)),
            "check_admissible 2.1 i=8 j=8": lambda: check_admissible("2.1", params(**POINT, i=8, j=8)),
        }[name]
        call()
    except Exception:  # noqa: BLE001 - a case a tree cannot run is missing
        return None
    return call


def request_call(tree):
    """A no-argument ``cli.run`` of ``REQUEST`` in one tree, its stdout kept
    in memory, or None if the tree's request does not exit 0."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return run(REQUEST)

    try:
        run = importlib.import_module(f"{tree.__name__}.cli").run
        return call if call() == 0 else None
    except (Exception, SystemExit):  # noqa: BLE001 - a case a tree cannot run is missing
        return None


def import_call(src: Path):
    """A no-argument run of ``python3 -c "import hypident.cli"`` in a fresh
    process with only ``src`` on the path, or None if the tree cannot import
    it. The tree is byte-compiled first: with ``PYTHONDONTWRITEBYTECODE``
    set, every import would otherwise compile the sources again."""
    compileall.compile_dir(src / "hypident", quiet=1)
    command, env = [sys.executable, "-c", IMPORT_CASE], {**os.environ, "PYTHONPATH": str(src)}

    def call():
        subprocess.run(command, cwd=src.parent, env=env, capture_output=True, check=True, timeout=120)

    try:
        call()
    except subprocess.CalledProcessError:
        return None
    return call


def cases_of(quick: bool, trees, srcs):
    """``(name, [this call, other call])`` of every case, each built as it
    is reached."""
    for case in ladder(quick):
        yield label(*case), [call_of(tree, *case) for tree in trees]
    for name in CONSTRUCTORS:
        yield name, [constructor_call(tree, name) for tree in trees]
    for name in LAYERS:
        yield name, [layer_call(tree, name) for tree in trees]
    yield REQUEST_CASE, [request_call(tree) for tree in trees]
    yield IMPORT_CASE, [import_call(src) for src in srcs]


def batch_time(call, number: int) -> float:
    """Seconds a call, over one batch of ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def measure(this, other, rounds: int) -> dict:
    """Both trees' minimum, the median ratio other / this, and the rounds
    this tree won."""
    number = max(1, round(BATCH_SECONDS / batch_time(other, 1)))
    times = {"this": [], "other": []}
    for round_ in range(rounds):
        for name in ("other", "this") if round_ % 2 == 0 else ("this", "other"):
            times[name].append(batch_time(this if name == "this" else other, number))
    ratios = [o / t for o, t in zip(times["other"], times["this"])]
    return {
        "other_min_s": min(times["other"]),
        "this_min_s": min(times["this"]),
        "median_ratio": round(statistics.median(ratios), 3),
        "this_won": sum(ratio > 1 for ratio in ratios),
        "rounds": rounds,
        "calls_a_batch": number,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--quick", action="store_true",
                        help="two builders at cap 16, one float side, the constructors, the per-point layers, "
                             "the request and the import case, for a smoke test")
    parser.add_argument("--out", type=Path, help="JSON file whose 'layers' key to create or update")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "hypident" / "__init__.py").is_file():
        parser.error(f"no src/hypident package under {args.other}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = ROOT / "src", args.other.resolve() / "src"
    trees = load(srcs[0], "hypident_this"), load(srcs[1], "hypident_other")
    cases = {}
    gc.disable()
    try:
        for name, calls in cases_of(args.quick, trees, srcs):
            if None in calls:
                cases[name] = {"missing": [tree for tree, call in zip(("this", "other"), calls) if call is None]}
            else:
                cases[name] = measure(*calls, args.rounds)
                gc.collect()
            row = cases[name]
            print(name, "missing in " + ", ".join(row["missing"]) if "missing" in row else
                  f"other {row['other_min_s'] * 1e3:.3f} ms, this {row['this_min_s'] * 1e3:.3f} ms, "
                  f"ratio {row['median_ratio']}, this won {row['this_won']}/{row['rounds']}", flush=True)
    finally:
        gc.enable()
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["layers"] = {
            "command": "python3 scripts/bench_layers.py OTHER_CHECKOUT",
            "how": " ".join(__doc__.split("\n\n")[2:4]).replace("\n", " "),
            "python": sys.version.split()[0],
            "cases": cases,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
