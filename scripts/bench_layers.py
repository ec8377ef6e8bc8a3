#!/usr/bin/env python3
"""Time the side builders and layers of this checkout against those of
another one, call by call in one process.

    python3 scripts/bench_layers.py OTHER_CHECKOUT [--rounds N] [--quick] [--counts] [--out BENCH.json]

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
the paper states with ``e**x`` (1.5, 1.9, 1.10, 1.12, 1.13, checked with
``e**(-x)`` on the left) and ``build_lhs`` of 1.10 at caps 16, 96 and 512;
``build_rhs`` of 1.7 at the same caps; ``verify_identity`` at their
defaults of those five entries, then
of 1.6, 1.7 and 1.11, and of 1.8 at gamma 5, a non-terminating unit-argument
sum; ``build_rhs`` of 3.1 at i = j in 2, 8 and 20, at the default cap, of 3.3
in its printed form at i = j = 8, and of 2.1 at i = j = 2 and 8;
``build_lhs`` of 1.6 at cap 512; ``lhs_float`` and ``rhs_float`` at the
default float points of 1.10, of 1.17 at i = 8, and of 2.1 and 3.1 at
i = j = 8; ``verify_identity``, ``lhs_float`` and ``rhs_float`` of 1.17 at
i = 2 and cap 96, one point of a ``deep_series`` block. Then come layers on their own, with the arguments that
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
cold. First of them come the grids of 81 points at i, j <= 8, ``verify.sweep``
of 2.1, and, in the full ladder, of 3.1 and of 2.3 in its printed form; then
each float side above; then the default
``verify_identity`` of 2.1, 2.2, 2.3 and 3.1 at i = j = 8 and 20, whose
blocks are all distinct within a point, ``build_rhs`` of 2.1 at i = j =
8, the cold twin of its warm row, and the three 1.17 rows at i = 2 and cap
96; then one catalog point,
``verify_identity`` at cap 96 of 1.1, 1.2, 1.5-1.7 and 1.9-1.13 at alpha
and beta and of 1.17 and 1.18 at i = 0..2, as a ``deep_series`` block
verifies them at one (alpha, beta), and, in the full ladder, the product-grid
sweep the benchmark's north star names, ``verify.sweep`` of 2.1, 2.2 and
2.3 at i, j <= 4, 8 and 12, one row each, and the sweep of 1.17 and 1.18
at alpha 3/7 and 2/5, i <= 20, at the one degree 96, whose sides share
their ``0F1`` blocks from one i to the next, then ``KEPT.cache_info()``
once the 2.1-2.3 sweep at i, j <= 8 has filled the store from cleared
memos, the read that gives a report its memo stats. Then come the record
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
factors from cold. Then come the steps of a request around its check, on
a median-class ``verify`` of 1.4: ``cli._parse_params`` of its parsed
arguments, ``IdentityParams.to_json_dict`` and ``VerifyReport.to_json_dict``
of its point and report. Then come whole requests, each ``cli.run`` with its
stdout and stderr kept in memory: ``verify`` at that 1.8 point with
``--output=json``, and in the full ladder ``verify`` of 1.4 at alpha and
beta, a ``sweep`` of 1.4 over 100 points and ``expand`` of 1.11 at
degree 512, each with ``--output=json``. Last come the fresh processes, each with
only the tree's ``src`` on ``PYTHONPATH`` and timed by its wall time, one
process a batch: the import case, ``python3 -c "import hypident.cli"``, as
the benchmark's ``setup_s`` takes it, and, in the full ladder, one cold
``python3 -m hypident.cli verify`` of 2.1 at i = j = 8 with ``--output
json``. These run uncompiled, as the benchmark runs a fresh checkout and
as ``bench_pairs.py`` runs its trees: each tree's ``src/**/__pycache__`` is
removed first, since a process reads the bytecode it finds, and each
process has ``PYTHONDONTWRITEBYTECODE=1``. The script writes no bytecode
either, so it leaves no ``__pycache__`` in either tree.
``--quick`` takes two
builders at cap 16, one float side warm and cold, the constructors, the
per-point layers, the request steps, the 1.8 request and the import case,
for a smoke test; the grids, the cold gates, the other requests and the
cold ``verify`` process are in the full ladder only.

``--counts`` also reports, for each case made in process and each tree,
the case's work: ``cpu_s``, the CPU time (``time.process_time``) a call
over one batch, warm as the case is timed; and from one call each, made
after ``_clear_memos``, ``tracemalloc_peak_bytes``, the peak of the memory
Python allocates, and ``python_calls`` and ``bytecodes``, the Python frames
entered (a generator's every resume is one) and the bytecodes they execute,
counted by a ``sys.settrace`` function with ``f_trace_opcodes`` on. The
last three repeat exactly from run to run, where a time on a shared host
does not. They miss work inside one bytecode: big-integer and ``Fraction``
arithmetic on longer operands, C functions such as ``json``'s encoders,
``re`` and ``math``, and the garbage collector, which is off while the
cases run. So a change that only shortens operands shows in ``cpu_s`` and
not in ``bytecodes``. The fresh processes have no counts.

The result is printed as a table and, with ``--out``, written under the
``layers`` key of that JSON file, the counts under ``counts``; an existing
file is updated, not replaced. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_sides import ROOT, load  # noqa: E402

POINT = dict(alpha=Fraction(3, 7), beta=Fraction(2, 5))
EXPONENTIAL_RIGHT_SIDES = ("1.5", "1.9", "1.10", "1.12", "1.13")
FLOAT_SIDES = (("1.10", {}), ("1.17", dict(i=8)), ("2.1", dict(i=8, j=8)), ("3.1", dict(i=8, j=8)))
# one deep_series expansion point: its verify and float sides, warm and from cold
DEEP_EXPANSION = [("1.17", builder, dict(i=2, cap=96)) for builder in ("verify_identity", "lhs_float", "rhs_float")]
BATCH_SECONDS = 1e-3
IMPORT_CASE = "import hypident.cli"
WATSON_POINT = dict(gamma=Fraction(5))
# each layer a ladder case may name, by the module whose binding of it the catalog's routes call
CALLED_LAYERS = {"pfq_eval_float": "identities", "_bailey_double_sum": "right", "_raw_product_series": "identities"}
REQUEST = ["verify", "--identity=1.8", "--alpha=3/7", "--beta=2/5", "--gamma=5", "--output=json"]
REQUEST_CASE = "cli.run verify 1.8 --output=json"
# a median-class request of the float_sums workload, and the steps around its check
MEDIAN_REQUEST = ["verify", "--identity=1.4", "--alpha=3/7", "--beta=2/5", "--output=json"]
REQUEST_STEPS = ("cli._parse_params verify 1.4", "IdentityParams.to_json_dict 1.4", "VerifyReport.to_json_dict 1.4")
SCALAR_SWEEP_VALUES = ",".join(f"{n}/{n + 7}" for n in range(1, 11))
FULL_REQUESTS = {
    "cli.run verify 1.4 --output=json": MEDIAN_REQUEST,
    "cli.run sweep 1.4 100 points --output=json": ["sweep", "--identity=1.4", f"--alpha={SCALAR_SWEEP_VALUES}",
                                                   f"--beta={SCALAR_SWEEP_VALUES}", "--output=json"],
    "cli.run expand 1.11 degree=512 --output=json": ["expand", "--identity=1.11", "--alpha=3/7", "--beta=2/5",
                                                     "--degree=512", "--output=json"],
}
COLD = "memos cleared"
GRID_CASE = f"2.1 sweep i<=8 j<=8 {COLD}"
# the full ladder's other grids at i, j <= 8: the 3.x double sum and the printed-form weights
FULL_GRIDS = {f"3.1 sweep i<=8 j<=8 {COLD}": ("3.1", {}), f"2.3 printed sweep i<=8 j<=8 {COLD}": ("2.3", dict(printed_form=True))}
# the entries that deep_series verifies at alpha and beta; 1.17 and 1.18 follow at i = 0..2
PAIR_TAGS = ("1.1", "1.2", "1.5", "1.6", "1.7", "1.9", "1.10", "1.11", "1.12", "1.13")
CATALOG_POINT_CASE = f"catalog point verify_identity cap=96 {COLD}"
MAX_SHIFT = 64  # the command line's largest shift, cli.MAX_SHIFT
COLD_GATES = {f"check_admissible 2.1 i={n} j={n} {COLD}": dict(i=n, j=n) for n in (8, MAX_SHIFT)}
PRODUCT_TAGS = ("2.1", "2.2", "2.3")
PRODUCT_GRIDS = {f"2.1-2.3 sweep i<={n} j<={n} {COLD}": n for n in (4, 8, 12)}
EXPANSION_TAGS = ("1.17", "1.18")
FIXED_DEGREE_SWEEP_CASE = f"1.17,1.18 sweep alpha=3/7,2/5 i<=20 cap=96 {COLD}"
KEPT_INFO_CASE = "KEPT.cache_info after 2.1-2.3 sweep i<=8 j<=8"
VERIFY_PROCESS = ["verify", "--identity", "2.1", "--alpha", "3/7", "--beta", "2/5", "--i", "8", "--j", "8", "--output", "json"]
VERIFY_PROCESS_CASE = "python3 -m hypident.cli verify 2.1 i=8 j=8 --output json"


def cold_ladder(quick: bool) -> list[tuple[str, str, dict]]:
    """``(tag, builder, point)`` of every entry case that runs with every memo cleared."""
    if quick:
        return [("1.10", "rhs_float", {})]
    cases = [(tag, side, point) for tag, point in FLOAT_SIDES for side in ("lhs_float", "rhs_float")]
    cases += [(tag, "verify_identity", dict(i=n, j=n)) for n in (8, 20) for tag in ("2.1", "2.2", "2.3", "3.1")]
    return cases + [("2.1", "build_rhs", dict(i=8, j=8)), *DEEP_EXPANSION]


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
    cases += DEEP_EXPANSION
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


def grid(tag: str, options: dict):
    """``make`` of the sweep of ``tag``'s 81 points at i, j <= 8 with ``options``."""

    def make(tree, src):
        return partial(tree.verify.sweep, tag, [POINT["alpha"]], [POINT["beta"]], 8, 8, **options)

    return make


def product_grid(n: int):
    """``make`` of the sweep of ``PRODUCT_TAGS`` at i, j <= n."""

    def make(tree, src):
        sweep = partial(tree.verify.sweep, alpha_set=[POINT["alpha"]], beta_set=[POINT["beta"]], i_max=n, j_max=n)
        return lambda: [sweep(tag) for tag in PRODUCT_TAGS]

    return make


def fixed_degree_sweep(tree, src):
    """``FIXED_DEGREE_SWEEP_CASE``: ``sweep --identity 1.17,1.18 --alpha
    3/7,2/5 --i 20 --degree 96`` without the command line."""
    sweep = partial(tree.verify.sweep, alpha_set=[POINT["alpha"], POINT["beta"]], i_max=20, cap=96)
    return lambda: [sweep(tag) for tag in EXPANSION_TAGS]


def kept_info(tree, src):
    """``KEPT_INFO_CASE``: the store's ``cache_info`` once the sweep of
    ``PRODUCT_TAGS`` at i, j <= 8 has filled it from cleared memos."""
    tree.identities._clear_memos()
    product_grid(8)(tree, src)()
    return tree.hyper.KEPT.cache_info


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


def request(argv: list[str]):
    """``make`` of ``cli.run(argv)``, its stdout and stderr kept in memory,
    which must exit 0."""

    def make(tree, src):
        run = importlib.import_module(f"{tree.__name__}.cli").run

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return run(argv)

        if call() != 0:
            raise RuntimeError(f"cli.run {' '.join(argv)} does not exit 0")
        return call

    return make


def request_step(step: int):
    """``make`` of step ``step`` of ``REQUEST_STEPS``, on what
    ``MEDIAN_REQUEST`` gives it: its parsed arguments, its point or its report."""

    def make(tree, src):
        cli = importlib.import_module(f"{tree.__name__}.cli")
        args, _ = cli.build_parser().commands["verify"].parse_known_args(MEDIAN_REQUEST[1:])
        params = cli._parse_params(args)
        report = tree.verify.verify_identity(args.identity, params)
        return (partial(cli._parse_params, args), partial(params.to_json_dict, args.identity), report.to_json_dict)[step]

    return make


def fresh_process(*args: str):
    """``make`` of ``python3 *args`` in a fresh process with only ``src`` on
    the path, which must exit 0. Each process compiles the package at
    import, as a fresh checkout does, and writes no bytecode."""

    def make(tree, src: Path):
        for cache in src.rglob("__pycache__"):
            shutil.rmtree(cache)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        return partial(subprocess.run, [sys.executable, *args], cwd=src.parent, env=env,
                       capture_output=True, check=True, timeout=120)

    return make


def table(quick: bool) -> dict:
    """Every case's ``make(tree, src)`` by name, in the order the cases run."""
    return {
        **{label(*case): entry_case(*case) for case in ladder(quick)},
        **({} if quick else {name: cleared(grid(*case)) for name, case in {GRID_CASE: ("2.1", {}), **FULL_GRIDS}.items()}),
        **{f"{label(*case)} {COLD}": cleared(entry_case(*case)) for case in cold_ladder(quick)},
        **({} if quick else {CATALOG_POINT_CASE: cleared(catalog_point)}),
        **({} if quick else {name: cleared(product_grid(n)) for name, n in PRODUCT_GRIDS.items()}),
        **({} if quick else {FIXED_DEGREE_SWEEP_CASE: cleared(fixed_degree_sweep), KEPT_INFO_CASE: kept_info}),
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
        **{name: request_step(step) for step, name in enumerate(REQUEST_STEPS)},
        REQUEST_CASE: request(REQUEST),
        **({} if quick else {name: request(argv) for name, argv in FULL_REQUESTS.items()}),
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


def work_counts(call, clear, number: int) -> dict:
    """``--counts`` of one case in one tree: the CPU time a call over a
    batch of ``number`` calls, then, from one call each after ``clear()``,
    the ``tracemalloc`` peak, and the Python calls and bytecodes."""
    start = time.process_time()
    for _ in range(number):
        call()
    cpu_s = (time.process_time() - start) / number
    clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = [0, 0]

    def trace(frame, event, arg):
        if event == "opcode":
            counted[1] += 1
        elif event == "call":
            counted[0] += 1
            frame.f_trace_opcodes = True
        return trace

    clear()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return {"cpu_s": cpu_s, "tracemalloc_peak_bytes": peak, "python_calls": counted[0], "bytecodes": counted[1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--quick", action="store_true",
                        help="two builders at cap 16, one float side warm and cold, the constructors, the per-point layers, "
                             "the request and the import case, for a smoke test")
    parser.add_argument("--counts", action="store_true",
                        help="also report each case's CPU time, tracemalloc peak, Python calls and bytecodes")
    parser.add_argument("--out", type=Path, help="JSON file whose 'layers' (and 'counts') key to create or update")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "hypident" / "__init__.py").is_file():
        parser.error(f"no src/hypident package under {args.other}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = ROOT / "src", args.other.resolve() / "src"
    trees = load(srcs[0], "hypident_this"), load(srcs[1], "hypident_other")
    clears = [getattr(tree.identities, "_clear_memos", lambda: None) for tree in trees]
    cases, counts = {}, {}
    gc.disable()
    try:
        for name, make in table(args.quick).items():
            calls = [made(make, tree, src) for tree, src in zip(trees, srcs)]
            if None in calls:
                cases[name] = {"missing": [tree for tree, call in zip(("this", "other"), calls) if call is None]}
            else:
                cases[name] = measure(*calls, args.rounds)
                if args.counts and name not in (IMPORT_CASE, VERIFY_PROCESS_CASE):
                    counts[name] = {tree: work_counts(call, clear, cases[name]["calls_a_batch"])
                                    for tree, call, clear in zip(("this", "other"), calls, clears)}
                gc.collect()
            row = cases[name]
            print(name, "missing in " + ", ".join(row["missing"]) if "missing" in row else
                  f"other {row['other_min_s'] * 1e3:.3f} ms, this {row['this_min_s'] * 1e3:.3f} ms, "
                  f"ratio {row['median_ratio']}, this won {row['this_won']}/{row['rounds']}", flush=True)
            if name in counts:
                print("  counts " + "; ".join(f"{tree} {row['cpu_s'] * 1e3:.3f} ms cpu, {row['tracemalloc_peak_bytes']} B peak, "
                                              f"{row['python_calls']} calls, {row['bytecodes']} bytecodes"
                                              for tree, row in counts[name].items()), flush=True)
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
        if args.counts:
            doc["counts"] = {
                "command": "python3 scripts/bench_layers.py OTHER_CHECKOUT --counts",
                "how": " ".join(__doc__.split("\n\n")[4].split()),
                "cases": counts,
            }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
