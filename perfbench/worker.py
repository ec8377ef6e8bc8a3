"""Run one workload in this (fresh) process and print its measurements as JSON.

Started by ``run.py``, one process per workload run, never directly by a
user. It puts the checkout's ``src/`` on ``sys.path`` itself (the package is
not installed), imports ``hypident``, optionally installs the tracing
wrappers, runs the seeded blocks, checks every verdict against the
generator's known answer and prints one JSON object as its last line.

    python3 perfbench/worker.py --workload W --seed N --blocks B [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import SpeedClock
from workloads import WORKLOADS, Point, blocks

ROOT = Path(__file__).resolve().parent.parent
PASSING = ("exact_match", "float_only_pass")
REGISTRY_REPEATS = 9


def _p50(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _p95(values: list[float]) -> float | None:
    return statistics.quantiles(values, n=20)[18] if len(values) >= 2 else None


def _rational_arg(value) -> str:
    return f"{value.numerator}/{value.denominator}"


class Runner:
    """Runs points through the program and tallies verdicts against known answers."""

    def __init__(self, modules) -> None:
        self.m = modules
        self.clock = SpeedClock()
        self.latencies: list[tuple[int, float]] = []  # (clock stretch, raw seconds)
        self.by_category: dict[str, list[int]] = {}
        self.wrong: list[str] = []
        self.wrong_tags: set[str] = set()
        self.errors: list[str] = []
        self.problems: list[str] = []
        self._digest = hashlib.sha256()

    def _params(self, p: Point):
        return self.m.identities.IdentityParams(
            alpha=p.alpha, beta=p.beta, gamma=p.gamma, i=p.i, j=p.j, cap=p.cap
        )

    def _record(self, p: Point, status: str) -> None:
        tally = self.by_category.setdefault(p.category, [0, 0])
        tally[0] += 1
        self._digest.update(f"{p.describe()}={status};".encode())
        if status != p.expected:
            tally[1] += 1
            self.wrong_tags.add(p.tag)
            if len(self.wrong) < 5:
                self.wrong.append(f"{p.describe()}: {status}, expected {p.expected}")

    def _error(self, p: Point, exc: BaseException) -> None:
        self._record(p, "error")
        self.errors.append(f"{p.describe()}: {type(exc).__name__}: {exc}")

    def verify_block(self, points: list[Point], float_points=None, render: bool = False) -> None:
        """``verify_identity`` per point; optionally render the block's reports to CSV and JSON."""
        kwargs = {} if float_points is None else {"float_points": float_points}
        verify = self.m.verify
        reports = []
        for p in points:
            params = self._params(p)
            self.clock.tick()
            start = perf_counter()
            try:
                report = verify.verify_identity(p.tag, params, **kwargs)
            except Exception as exc:  # a crash is a failed point, not a crashed run
                self._error(p, exc)
                continue
            self.latencies.append((self.clock.stretch(), perf_counter() - start))
            reports.append((p, report))
        if render:
            csv_text = self.m.reports.reports_to_csv([r for _, r in reports])
            json_text = json.dumps([r.to_json_dict() for _, r in reports])
        for p, report in reports:
            self._record(p, report.status)
        if render:
            self._check_rendered([r for _, r in reports], csv_text, json_text)

    def _check_rendered(self, reports, csv_text: str, json_text: str) -> None:
        statuses = [r.status for r in reports]
        rows = csv_text.splitlines()
        column = rows[0].split(",").index("status") if rows else -1
        if column < 0 or [row.split(",")[column] for row in rows[1:]] != statuses:
            self.problems.append("CSV rendering does not list the reports' statuses")
        if [doc["status"] for doc in json.loads(json_text)] != statuses:
            self.problems.append("JSON rendering does not list the reports' statuses")

    def cli_block(self, points: list[Point]) -> None:
        """``cli.run(["verify", ..., "--output", "json"])`` per point, stdout parsed."""
        cli = self.m.cli
        outcomes = []
        for p in points:
            # --name=value, since argparse reads a bare "-1/3" as an option
            argv = ["verify", f"--identity={p.tag}", f"--alpha={_rational_arg(p.alpha)}"]
            if p.beta is not None:
                argv.append(f"--beta={_rational_arg(p.beta)}")
            if p.gamma is not None:
                argv.append(f"--gamma={_rational_arg(p.gamma)}")
            if p.i:
                argv.append(f"--i={p.i}")
            if p.cap is not None:
                argv.append(f"--degree={p.cap}")
            argv.append("--output=json")
            out, err = io.StringIO(), io.StringIO()
            self.clock.tick()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                doc = json.loads(out.getvalue())
            except (Exception, SystemExit) as exc:  # argparse exits; stdout may not be JSON
                self._error(p, exc)
                continue
            self.latencies.append((self.clock.stretch(), perf_counter() - start))
            outcomes.append((p, code, doc, err.getvalue()))
        for p, code, doc, err_text in outcomes:
            status = doc.get("status", "missing")
            self._record(p, status)
            if code != (0 if status in PASSING else 1) or doc.get("identity") != p.tag:
                self.problems.append(f"{p.describe()}: exit {code} with status {status}")
            if err_text:
                self.problems.append(f"{p.describe()}: unexpected stderr {err_text.strip()!r}")

    def summary(self) -> dict:
        """Call once, after the last point: closes the clock's final stretch."""
        self.clock.finish()
        raw = [d for _, d in self.latencies]
        corrected = [d * self.clock.factor(k) for k, d in self.latencies]
        return {
            "points": sum(t[0] for t in self.by_category.values()),
            "timed_points": len(raw),
            "wall_s": self.clock.corrected_s(),
            "raw_wall_s": self.clock.raw_s(),
            "latency_p50_s": _p50(corrected),
            "latency_p95_s": _p95(corrected),
            "raw_latency_p50_s": _p50(raw),
            "raw_latency_p95_s": _p95(raw),
            "speed_probes": len(self.clock.probes),
            "median_probe_s": statistics.median(self.clock.probes),
            "by_category": self.by_category,
            "wrong_verdicts": sum(t[1] for t in self.by_category.values()),
            "wrong_tags": sorted(self.wrong_tags),
            "wrong_examples": self.wrong,
            "errors": len(self.errors),
            "error_examples": self.errors[:5],
            "problems": self.problems[:10],
            "verdict_digest": self._digest.hexdigest(),
        }


def _run(workload: str, runner: Runner, work: list[list[Point]]) -> None:
    for block in work:
        if workload == "product_grid":
            runner.verify_block(block, float_points=(), render=True)
        elif workload == "deep_series":
            runner.verify_block(block)
        else:
            runner.cli_block(block)


def _layers(tracer, wall_s: float) -> dict:
    layers = {
        name: {
            "self_s": tracer.self_s[name],
            "total_s": tracer.total_s[name],
            "calls": tracer.calls[name],
        }
        for name in sorted(tracer.calls)
    }
    return {
        "layers": layers,
        "counts": dict(tracer.counts),
        "max_coeff_bits": tracer.max_coeff_bits,
        "outside_layers_s": wall_s - sum(v["self_s"] for v in layers.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import hypident.cli  # noqa: F401  (first import: module load plus registry build)

    import_s = perf_counter() - start
    from hypident import cli, identities, reports, verify

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        registry_s = []
        for _ in range(REGISTRY_REPEATS):
            start = perf_counter()
            identities._build_registry()
            registry_s.append(perf_counter() - start)
        tracer = Tracer()
        install(tracer)

    work = blocks(args.workload, args.seed, args.blocks)
    runner = Runner(SimpleNamespace(cli=cli, identities=identities, reports=reports, verify=verify))
    _run(args.workload, runner, work)

    result = runner.summary()
    result.update(
        workload=args.workload,
        seed=args.seed,
        blocks=args.blocks,
        import_s=import_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.finish()
        result["build_registry_s"] = statistics.median(registry_s)
        result["trace"] = _layers(tracer, result["raw_wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
