#!/usr/bin/env python3
"""Time the side builders and layers of this checkout against those of
another one, call by call in one process.

    python3 scripts/bench_layers.py OTHER_CHECKOUT [--rounds N] [--quick] [--out BENCH.json]

Both ``src/hypident`` trees are loaded as packages of their own with
``compare_sides.py``'s loader. Each case is a name and a ``make(tree, src)``
that returns its no-argument call in one tree; the call runs in both trees,
interleaved, the other tree first in even rounds and this one first in odd
rounds. A round times a batch of calls in each tree, sized once so that a
batch takes about a millisecond in the other tree. For each case the output
gives both trees' minimum over the rounds (seconds a call), the median over
the rounds of the ratio ``other / this`` (above 1: this checkout is faster),
and the number of rounds this checkout was faster. A case is missing in a tree
where making its call or its first run raises, ``SystemExit`` included; the
request raises when it exits nonzero.

The ladder, at alpha 3/7, beta 2/5: ``build_rhs`` of every single-series entry
with an exponential (1.5, 1.9, 1.10, 1.12, 1.13) and ``build_lhs`` of 1.10 at
caps 16, 96 and 512; ``build_rhs`` of 1.7 at the same caps;
``verify_identity`` at their defaults of the five exponential entries, then
of 1.6, 1.7 and 1.11, and of 1.8 at gamma 5, a non-terminating unit-argument
sum; ``build_rhs`` of 3.1 at i = j in 2, 8 and 20, at the default cap, of 3.3
in its printed form at i = j = 8, and of 2.1 at i = j = 2 and 8;
``build_lhs`` of 1.6 at cap 512; ``lhs_float`` and ``rhs_float`` at the
default float points of 1.10, of 1.17 at i = 8, and of 2.1 and 3.1 at
i = j = 8. Then come layers on their own, with the arguments that
``verify_identity`` of the entry first passes them: ``pfq_eval_float`` of 1.4
(x = 1/2) and of 1.8 (x = 1) at gamma 5 and 1/2, in the ``float_sums``
workload's high and low excess windows (excess 5.09 and 0.59), and
``right._bailey_double_sum`` of 2.1 at i = j = 8, then
``left._raw_product_series`` of 2.1's left side at i = j = 0 and 8 (caps
16 and 48). Each of these repeats one call: in a tree that keeps shift
tables and span quotients between calls, the 2.1 ``build_rhs`` and
``_bailey_double_sum`` rows time warm ones, and in a tree that keeps float sums
between calls, the float sides and ``verify_identity`` rows time kept sums.
The rows marked "memos cleared" call ``_clear_memos``, where the tree has
it, at the start of each call, so a batch times what a call pays from
cold. First of them comes one grid, ``verify.sweep`` of 2.1's 81 points at
i, j <= 8; then each float side above; then the default
``verify_identity`` of 2.1, 2.2, 2.3 and 3.1 at i = j = 8 and 20, whose
blocks are all distinct within a point, and ``build_rhs`` of 2.1 at i = j =
8, the cold twin of its warm row; then one catalog point,
``verify_identity`` at cap 96 of 1.1, 1.2, 1.5-1.7 and 1.9-1.13 at alpha
and beta and of 1.17 and 1.18 at i = 0..2, as a ``deep_series`` block
verifies them at one (alpha, beta), and, in the full ladder, the product-grid
sweep the benchmark's north star names, ``verify.sweep`` of 2.1, 2.2 and
2.3 at i, j <= 4, 8 and 12, one row each. Then come the record
constructors that the hot paths call per point: a ``FloatSum``, a ``1F1``
``HypSpec``, an ``IdentityParams``, and ``tuple(ProductSide.terms)`` of 3.1's
right side at i = j = 8, which built its 81 ``Term`` and ``HypSpec`` records
and is missing in a tree without that view. Then come the per-point layers:
``_float_terms`` of the same side, which lists those blocks for the float
route, and ``verify.check_admissible`` of 1.7, whose findings a tree may
read off its side declarations, of 1.8 at gamma 5 and of 2.1 at i = j = 8,
each on a fresh ``IdentityParams`` as a request makes one; in the full
ladder the 2.1 gate follows from cleared memos, at i = j = 8 and at the
command line's largest shift, i = j = 64, so that each derives its two
factors from cold. Then comes one whole request, ``cli.run`` of
``verify`` at that 1.8 point with ``--output=json``, its stdout kept in
memory. Last come the fresh processes, each with
only the tree's ``src`` on ``PYTHONPATH`` and timed by its wall time, one
process a batch: the import case, ``python3 -c "import hypident.cli"``, as
the benchmark's ``setup_s`` takes it, and, in the full ladder, one cold
``python3 -m hypident.cli verify`` of 2.1 at i = j = 8 with ``--output
json``. Each tree is byte-compiled first, since a fresh process may not
write its own cache. ``--quick`` takes two
builders at cap 16, one float side warm and cold, the constructors, the
per-point layers, the request and the import case, for a smoke test; the
grids, the cold gates and the cold ``verify`` process are in the full
ladder only.

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
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_sides import ROOT, load  # noqa: E402

POINT = dict(alpha=Fraction(3, 7), beta=Fraction(2, 5))
EXPONENTIAL_RIGHT_SIDES = ("1.5", "1.9", "1.10", "1.12", "1.13")
FLOAT_SIDES = (("1.10", {}), ("1.17", dict(i=8)), ("2.1", dict(i=8, j=8)), ("3.1", dict(i=8, j=8)))
BATCH_SECONDS = 1e-3
IMPORT_CASE = "import hypident.cli"
WATSON_POINT = dict(gamma=Fraction(5))
# each layer a ladder case may name, by the module whose binding of it the catalog's routes call
CALLED_LAYERS = {"pfq_eval_float": "identities", "_bailey_double_sum": "right", "_raw_product_series": "identities"}
REQUEST = ["verify", "--identity=1.8", "--alpha=3/7", "--beta=2/5", "--gamma=5", "--output=json"]
REQUEST_CASE = "cli.run verify 1.8 --output=json"
COLD = "memos cleared"
GRID_CASE = f"2.1 sweep i<=8 j<=8 {COLD}"
# the entries that deep_series verifies at alpha and beta; 1.17 and 1.18 follow at i = 0..2
PAIR_TAGS = ("1.1", "1.2", "1.5", "1.6", "1.7", "1.9", "1.10", "1.11", "1.12", "1.13")
CATALOG_POINT_CASE = f"catalog point verify_identity cap=96 {COLD}"
MAX_SHIFT = 64  # the command line's largest shift, cli.MAX_SHIFT
COLD_GATES = {f"check_admissible 2.1 i={n} j={n} {COLD}": dict(i=n, j=n) for n in (8, MAX_SHIFT)}
PRODUCT_TAGS = ("2.1", "2.2", "2.3")
PRODUCT_GRIDS = {f"2.1-2.3 sweep i<={n} j<={n} {COLD}": n for n in (4, 8, 12)}
VERIFY_PROCESS = ["verify", "--identity", "2.1", "--alpha", "3/7", "--beta", "2/5", "--i", "8", "--j", "8", "--output", "json"]
VERIFY_PROCESS_CASE = "python3 -m hypident.cli verify 2.1 i=8 j=8 --output json"


def cold_ladder(quick: bool) -> list[tuple[str, str, dict]]:
    """``(tag, builder, point)`` of every entry case that runs with every memo cleared."""
    if quick:
        return [("1.10", "rhs_float", {})]
    cases = [(tag, side, point) for tag, point in FLOAT_SIDES for side in ("lhs_float", "rhs_float")]
    cases += [(tag, "verify_identity", dict(i=n, j=n)) for n in (8, 20) for tag in ("2.1", "2.2", "2.3", "3.1")]
    return cases + [("2.1", "build_rhs", dict(i=8, j=8))]


def ladder(quick: bool) -> list[tuple[str, str, dict]]:
    """``(tag, builder, point)`` of every entry case: a field of the entry, ``verify_identity`` or a layer."""
    if quick:
        return [("1.10", "build_rhs", dict(cap=16)), ("1.10", "build_lhs", dict(cap=16)), ("1.10", "rhs_float", {})]
    cases = []
    for cap in (16, 96, 512):
        cases += [(tag, "build_rhs", dict(cap=cap)) for tag in (*EXPONENTIAL_RIGHT_SIDES, "1.7")]
        cases.append(("1.10", "build_lhs", dict(cap=cap)))
    # every series entry from 1.5 to 1.13 but the float sum 1.8
    cases += [(tag, "verify_identity", {}) for tag in (*EXPONENTIAL_RIGHT_SIDES, "1.6", "1.7", "1.11")]
    cases.append(("1.8", "verify_identity", WATSON_POINT))
    cases += [("3.1", "build_rhs", dict(i=n, j=n)) for n in (2, 8, 20)]
    cases.append(("3.3", "build_rhs", dict(printed_form=True, i=8, j=8)))
    cases += [("2.1", "build_rhs", dict(i=n, j=n)) for n in (2, 8)]
    cases.append(("1.6", "build_lhs", dict(cap=512)))
    cases += [(tag, side, point) for tag, point in FLOAT_SIDES for side in ("lhs_float", "rhs_float")]
    cases += [("1.4", "pfq_eval_float", {}), ("1.8", "pfq_eval_float", WATSON_POINT),
              ("1.8", "pfq_eval_float", dict(gamma=Fraction(1, 2))), ("2.1", "_bailey_double_sum", dict(i=8, j=8))]
    cases += [("2.1", "_raw_product_series", dict(i=n, j=n)) for n in (0, 8)]
    return cases


def label(tag: str, builder: str, point: dict) -> str:
    """The case's name: a set flag is its bare name, any other field ``key=value``."""
    return " ".join([tag, builder, *(key if value is True else f"{key}={value}" for key, value in point.items())])


def entry_case(tag: str, builder: str, point: dict):
    """``make`` of a ladder case: the builder or float side (at the tree's
    default float points) of the entry, ``verify_identity`` of it, or one of
    ``CALLED_LAYERS`` with the arguments that verifying the entry first passes it."""

    def make(tree, src):
        params = tree.identities.IdentityParams(**POINT, **point)
        verify = partial(tree.verify.verify_identity, tag, params)
        if builder == "verify_identity":
            return verify
        if builder in CALLED_LAYERS:
            return first_call(getattr(tree, CALLED_LAYERS[builder]), builder, verify)
        floats = (tree.verify.DEFAULT_FLOAT_POINTS,) if builder.endswith("_float") else ()
        return partial(getattr(tree.identities.get(tag), builder), params, *floats)

    return make


def first_call(module, name: str, run):
    """``module.name`` with the arguments that ``run()`` first passes it."""
    layer, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return layer(*args, **kwargs)

    setattr(module, name, spy)
    try:
        run()
    finally:
        setattr(module, name, layer)
    args, kwargs = calls[0]
    return partial(layer, *args, **kwargs)


def cleared(make):
    """``make`` of the case whose call first runs ``_clear_memos``, where the
    tree has it, so that a batch times what a call pays from cold."""

    def make_cold(tree, src):
        clear, run = getattr(tree.identities, "_clear_memos", lambda: None), make(tree, src)

        def call():
            clear()
            return run()

        return call

    return make_cold


def grid(tree, src):
    """2.1's 81 points at i, j <= 8."""
    return partial(tree.verify.sweep, "2.1", [POINT["alpha"]], [POINT["beta"]], 8, 8)


def product_grid(n: int):
    """``make`` of the sweep of ``PRODUCT_TAGS`` at i, j <= n."""

    def make(tree, src):
        sweep = partial(tree.verify.sweep, alpha_set=[POINT["alpha"]], beta_set=[POINT["beta"]], i_max=n, j_max=n)
        return lambda: [sweep(tag) for tag in PRODUCT_TAGS]

    return make


def catalog_point(tree, src):
    """``CATALOG_POINT_CASE``: deep_series' block at ``POINT``, ``verify_identity``
    at cap 96 of ``PAIR_TAGS`` at alpha and beta, then of 1.17 and 1.18 at
    alpha and i = 0..2."""
    params = partial(tree.identities.IdentityParams, POINT["alpha"], cap=96)
    points = [(tag, params(beta=POINT["beta"])) for tag in PAIR_TAGS]
    points += [(tag, params(i=i)) for tag in ("1.17", "1.18") for i in range(3)]
    return lambda: [tree.verify.verify_identity(tag, p) for tag, p in points]


def deep_side(tree):
    """3.1's right side at i = j = 8, 81 blocks."""
    identities = tree.identities
    return identities._equal_param_rhs((True, True), identities.IdentityParams(**POINT, i=8, j=8))


def admissible(tree, tag: str, point: dict):
    """``check_admissible`` of one entry on a fresh ``IdentityParams``, as a request makes one."""
    check, params = tree.verify.check_admissible, tree.identities.IdentityParams
    return lambda: check(tag, params(**POINT, **point))


def request(tree, src):
    """``cli.run`` of ``REQUEST``, its stdout kept in memory."""
    run = importlib.import_module(f"{tree.__name__}.cli").run

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return run(REQUEST)

    if call() != 0:
        raise RuntimeError(f"{REQUEST_CASE} does not exit 0")
    return call


def fresh_process(*args: str):
    """``make`` of ``python3 *args`` in a fresh process with only ``src`` on
    the path, which must exit 0. The tree is byte-compiled first: with
    ``PYTHONDONTWRITEBYTECODE`` set, every import would otherwise compile
    the sources again."""

    def make(tree, src: Path):
        compileall.compile_dir(src / "hypident", quiet=1)
        env = {**os.environ, "PYTHONPATH": str(src)}
        return partial(subprocess.run, [sys.executable, *args], cwd=src.parent, env=env,
                       capture_output=True, check=True, timeout=120)

    return make


def table(quick: bool) -> dict:
    """Every case's ``make(tree, src)`` by name, in the order the cases run."""
    return {
        **{label(*case): entry_case(*case) for case in ladder(quick)},
        **({} if quick else {GRID_CASE: cleared(grid)}),
        **{f"{label(*case)} {COLD}": cleared(entry_case(*case)) for case in cold_ladder(quick)},
        **({} if quick else {CATALOG_POINT_CASE: cleared(catalog_point)}),
        **({} if quick else {name: cleared(product_grid(n)) for name, n in PRODUCT_GRIDS.items()}),
        "FloatSum": lambda tree, src: partial(tree.hyper.FloatSum, 0.5, True, 40, 1.5, 1e-16),
        "HypSpec 1F1": lambda tree, src: partial(tree.hyper.HypSpec, (POINT["alpha"],), (2 * POINT["alpha"],)),
        "IdentityParams": lambda tree, src: partial(tree.identities.IdentityParams, **POINT, i=8, j=8),
        "3.1 tuple(ProductSide.terms) i=8 j=8":
            lambda tree, src: partial(lambda side: tuple(side.terms), deep_side(tree)),
        "3.1 _float_terms i=8 j=8": lambda tree, src: partial(tree.identities._float_terms, deep_side(tree)),
        "check_admissible 1.7": lambda tree, src: admissible(tree, "1.7", {}),
        "check_admissible 1.8 gamma=5": lambda tree, src: admissible(tree, "1.8", WATSON_POINT),
        "check_admissible 2.1 i=8 j=8": lambda tree, src: admissible(tree, "2.1", dict(i=8, j=8)),
        **({} if quick else {name: cleared(lambda tree, src, point=point: admissible(tree, "2.1", point))
                             for name, point in COLD_GATES.items()}),
        REQUEST_CASE: request,
        IMPORT_CASE: fresh_process("-c", IMPORT_CASE),
        **({} if quick else {VERIFY_PROCESS_CASE: fresh_process("-m", "hypident.cli", *VERIFY_PROCESS)}),
    }


def made(make, tree, src: Path):
    """``make(tree, src)``, run once, or None where either raises: the case is missing."""
    try:
        call = make(tree, src)
        call()
    except (Exception, SystemExit):  # noqa: BLE001 - a case a tree cannot run is missing
        return None
    return call


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
                        help="two builders at cap 16, one float side warm and cold, the constructors, the per-point layers, "
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
        for name, make in table(args.quick).items():
            calls = [made(make, tree, src) for tree, src in zip(trees, srcs)]
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
