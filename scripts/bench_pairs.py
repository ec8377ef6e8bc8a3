#!/usr/bin/env python3
"""Alternating A/B runs of one benchmark workload on two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload product_grid \\
        --seed 1 --pairs 10 --seconds 20 --out BENCH.json

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` once in each tree, from that tree's root; even pairs run the
parent first and odd pairs the change first. The trees run uncompiled, as
the benchmark runs a fresh checkout: before the first pair each tree's
``src/**/__pycache__`` is removed, and every run has
``PYTHONDONTWRITEBYTECODE=1``, so no run writes or reads bytecode of the
package. A byte-compiled tree starts about a third faster (``setup_s``
about 0.058 s against 0.084 s) and peaks about 2 MB lower in RSS than one
that compiles its modules at import, so pairs of compiled trees measure
neither figure as a fresh checkout shows it. Every run's end-to-end
metrics are kept with its ``correct`` and
``failed`` fields. For each metric the output holds the per-run values, the
medians, the quartiles (inclusive method), ``change_better_pairs``, the
number of pairs in which the change was strictly better, and a verdict, in
the direction and against the bound that the change tree's
``BENCHMARK.json`` gives (see :func:`summarize`). The verdicts are printed
after the last pair.

The result goes under ``workloads["<W>_seed_<N>"]`` of ``--out``. An
existing file is updated, not replaced, so one file can collect several
workloads and seeds, and keys written by hand beside them are kept. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = "alternating: pairs numbered from 0, even pairs parent first, odd pairs change first"


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``tree``: its last stdout line, parsed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {tree}: run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Per-run values, medians, quartiles, pairs won by the change, and a
    verdict, checked in this order:

    * ``better``: the change wins at least 9 in 10 of the pairs, ties
      counting for neither, and its median beats the parent's by more than
      the parent's interquartile range (IQR);
    * ``worse``: the change's median is past the parent's by more than
      ``bound`` times the parent's median;
    * ``unresolved``: the parent's own IQR is wider than that bound, so the
      runs cannot tell a change within it from none;
    * ``within_bound``: any other case.
    """
    runs = {"parent": parent, "change": change}
    median = {name: statistics.median(values) for name, values in runs.items()}
    quartiles = {name: statistics.quantiles(values, n=4, method="inclusive") for name, values in runs.items()}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (median["change"] - median["parent"])
    spread = quartiles["parent"][2] - quartiles["parent"][0]
    limit = bound * abs(median["parent"])
    if 10 * wins >= 9 * len(parent) and gain > spread:
        verdict = "better"
    elif -gain > limit:
        verdict = "worse"
    elif spread > limit:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        **runs,
        "median": {name: round(value, 4) for name, value in median.items()},
        "quartiles": {name: [round(v, 4) for v in values] for name, values in quartiles.items()},
        "change_better_pairs": wins,
        "verdict": verdict,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for cache in (tree / "src").glob("**/__pycache__"):
            shutil.rmtree(cache)
    metrics = {m["name"]: m for m in json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for name in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = run_once(trees[name], args.workload, args.seed, args.seconds)
            runs[name].append(result)
            values = {m: round(v["value"], 4) for m, v in result["metrics"].items() if m in metrics}
            print(f"pair {pair} {name}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    entry = {"seconds": args.seconds, "pairs": args.pairs}
    for metric, spec in metrics.items():
        values = {name: [round(r["metrics"][metric]["value"], 4) for r in rs] for name, rs in runs.items()}
        entry[metric] = summarize(values["parent"], values["change"], spec["better"], spec["bound"])
        median = entry[metric]["median"]
        print(f"{metric}: {entry[metric]['verdict']} (median {median['parent']} -> {median['change']}, "
              f"{entry[metric]['change_better_pairs']}/{args.pairs} pairs won)")
    for field in ("correct", "failed"):
        entry[field] = {name: [r[field] for r in rs] for name, rs in runs.items()}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0")
    doc["python"] = platform.python_version()
    doc.setdefault("machine", f"{platform.machine()}, {os.cpu_count()} CPUs; parent and change each run from its own copy")
    doc["order"] = ORDER
    doc.setdefault("workloads", {})[f"{args.workload}_seed_{args.seed}"] = entry
    doc["every_run_correct_with_0_failed"] = all(
        all(w["correct"][name]) and not any(w["failed"][name]) for w in doc["workloads"].values() for name in runs
    )
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
