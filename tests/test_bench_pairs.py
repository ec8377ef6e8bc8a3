"""The verdicts of ``scripts/bench_pairs.py``'s ``summarize`` on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # median 100, IQR 1.75


@pytest.mark.parametrize(
    "change, better, bound, verdict",
    [
        # wins 10/10 by 8%, far past the IQR of 1.75
        ([v + 8 for v in PARENT], "higher", 0.15, "better"),
        # a lower-is-better metric: the same runs, read the other way
        ([v - 8 for v in PARENT], "lower", 0.15, "better"),
        # wins 9/10 with a median gain past the IQR
        ([v + 8 for v in PARENT[:9]] + [PARENT[9] - 1], "higher", 0.15, "better"),
        # wins only 8/10: a gain is not shown, and no bound is crossed
        ([v + 8 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], "higher", 0.15, "within_bound"),
        # wins every pair, but by less than the parent's own IQR
        ([v + 1.5 for v in PARENT], "higher", 0.15, "within_bound"),
        # the median falls by 20% against a 15% bound
        ([v * 0.8 for v in PARENT], "higher", 0.15, "worse"),
        ([v * 1.3 for v in PARENT], "lower", 0.25, "worse"),
        # the parent's IQR (1.75) is wider than a 1% bound (1)
        ([v * 0.995 for v in PARENT], "higher", 0.01, "unresolved"),
        # unchanged runs within a bound wider than the spread
        (list(PARENT), "higher", 0.15, "within_bound"),
    ],
)
def test_verdict(change, better, bound, verdict):
    summary = bench_pairs.summarize(PARENT, change, better, bound)
    assert summary["verdict"] == verdict
    assert summary["median"]["parent"] == 100.0
    assert summary["quartiles"]["parent"] == [99.25, 100.0, 101.0]


def test_counts_pairs_won_and_keeps_the_runs():
    change = [v + 8 for v in PARENT[:9]] + [PARENT[9]]  # a tie counts for neither side
    summary = bench_pairs.summarize(PARENT, change, "higher", 0.15)
    assert summary["change_better_pairs"] == 9
    assert (summary["parent"], summary["change"]) == (PARENT, change)
    assert summary["median"]["change"] == 108.0


def test_the_aa_pair_keeps_both_values_and_their_relative_difference():
    first = {"throughput_pts_per_s": 2500.0, "latency_p50_ms": 0.4, "verdict_accuracy": 1.0, "setup_s": 0.0}
    second = {"throughput_pts_per_s": 2400.0, "latency_p50_ms": 0.5, "verdict_accuracy": 1.0, "setup_s": 0.1}
    aa = bench_pairs.summarize_aa(first, second)
    assert list(aa) == list(first)
    assert aa["throughput_pts_per_s"] == {"values": [2500.0, 2400.0], "relative_difference": -0.04}
    assert aa["latency_p50_ms"] == {"values": [0.4, 0.5], "relative_difference": 0.25}
    assert aa["verdict_accuracy"]["relative_difference"] == 0.0
    # no relative difference from a first value of 0
    assert aa["setup_s"] == {"values": [0.0, 0.1], "relative_difference": None}
