"""Smoke test of ``scripts/compare_sides.py`` on its small grid."""

import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from hypident.identities import catalog

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_sides.py"
SERIES_TAGS = [d.tag for d in catalog() if d.kind == "series"]


def compare(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(other), "--quick"],
                          capture_output=True, text=True, timeout=60)


def class_counts(stdout: str) -> dict[str, int]:
    """The per-class lines after the first differences, ``tag kind: count``,
    each checked to add up to the summary's count of differing cases."""
    summary, *lines = stdout.splitlines()
    counts = {}
    for line in lines:
        if match := re.fullmatch(r"(\S+ \S+): (\d+)", line):
            counts[match[1]] = int(match[2])
    differ = int(re.fullmatch(r"compared \d+ cases: (\d+) differ", summary)[1])
    assert sum(counts.values()) == differ and lines[-len(counts):] == [f"{k}: {v}" for k, v in counts.items()]
    return counts


def test_a_checkout_matches_itself():
    done = compare(ROOT)
    assert done.returncode == 0, done.stderr
    [summary] = done.stdout.splitlines()
    assert summary.startswith("compared ") and summary.endswith(" cases: 0 differ")


def test_a_changed_default_cap_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    identities = tmp_path / "src" / "hypident" / "identities.py"
    text = identities.read_text()
    assert "return 2 * (i + j) + 16" in text
    identities.write_text(text.replace("return 2 * (i + j) + 16", "return 2 * (i + j) + 17"))
    done = compare(tmp_path)
    assert done.returncode == 1, done.stderr
    summary, first, this, other, *_ = done.stdout.splitlines()
    assert " differ" in summary and " 0 differ" not in summary
    assert first.strip().endswith("build_lhs")
    assert this.split()[:3] == ["this:", "('series',", "16,"]
    assert other.split()[:3] == ["other:", "('series',", "17,"]
    # the default cap of every series entry changed, so each of its sides differs there
    counts = class_counts(done.stdout)
    assert {name.split()[1] for name in counts} == {"build_lhs", "build_rhs"}
    assert [name.split()[0] for name in counts if name.endswith("build_lhs")] == SERIES_TAGS
    assert counts["1.1 build_lhs"] == 6  # two alphas and three betas, at the default cap only


def test_a_shifted_gamma_argument_of_the_watson_sum_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    identities = tmp_path / "src" / "hypident" / "identities.py"
    text = identities.read_text()
    numerator = '"gamma - beta/2 + 1/2": Fraction(2 * c - b + scale, half),'
    assert text.count(numerator) == 1
    identities.write_text(text.replace(numerator, '"gamma - beta/2 + 1/2": Fraction(2 * c - b + 3 * scale, half),'))
    done = compare(tmp_path)
    assert done.returncode == 1, done.stderr
    summary, first, this, other, *_ = done.stdout.splitlines()
    assert " differ" in summary and " 0 differ" not in summary
    assert first.split()[0] == "1.8" and first.strip().endswith("scalar_float")
    # the sum is the same; the Gamma ratio, the second float, is not
    this_lhs, this_rhs = this.split()[2:4]
    other_lhs, other_rhs = other.split()[2:4]
    assert this_lhs == other_lhs and this_rhs != other_rhs
    assert list(class_counts(done.stdout)) == ["1.8 scalar_float"]


def test_a_mutated_closed_form_is_reported_as_a_verdict(tmp_path):
    """A wrong 1.7/1.10 block, ``beta + 1`` for ``beta``, changes the
    verdicts of both entries, not only their right sides; the quick grid
    with its verdicts stays within the 60 s timeout of :func:`compare`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    identities = tmp_path / "src" / "hypident" / "identities.py"
    text = identities.read_text()
    block = "bailey_product_spec(p.alpha + HALF, p.beta + HALF), _SQ4"
    assert text.count(block) == 1
    identities.write_text(text.replace(block, "bailey_product_spec(p.alpha + HALF, p.beta + 1 + HALF), _SQ4"))
    start = time.perf_counter()
    done = compare(tmp_path)
    assert time.perf_counter() - start < 60
    assert done.returncode == 1, done.stderr
    counts = class_counts(done.stdout)
    assert {name.split()[0] for name in counts} == {"1.7", "1.10"}
    assert counts["1.7 verdict"] > 0 and counts["1.10 verdict"] > 0
