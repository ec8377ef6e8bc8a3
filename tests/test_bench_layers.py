"""Smoke test of ``scripts/bench_layers.py`` on its small ladder."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_layers.py"
IMPORT_CASE = "import hypident.cli"
CONSTRUCTORS = {"FloatSum", "HypSpec 1F1", "IdentityParams", "3.1 tuple(ProductSide.terms) i=8 j=8"}
QUICK_CASES = {"1.10 build_rhs cap=16", "1.10 build_lhs cap=16", "1.10 rhs_float", *CONSTRUCTORS, IMPORT_CASE}


def bench(other: Path, out: Path) -> dict:
    done = subprocess.run([sys.executable, str(SCRIPT), str(other), "--quick", "--rounds", "5", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == len(QUICK_CASES)
    return json.loads(out.read_text())["layers"]["cases"]


def test_a_checkout_runs_even_with_itself(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"kept": 1}))
    cases = bench(ROOT, out)
    assert json.loads(out.read_text())["kept"] == 1
    assert set(cases) == QUICK_CASES
    for case in cases.values():
        assert case["rounds"] == 5 and 0 <= case["this_won"] <= 5
        # timings on a shared machine are noisy: ask only for a real ratio
        assert math.isfinite(case["median_ratio"]) and case["median_ratio"] > 0, case
    # the import case is one fresh process a batch
    assert cases[IMPORT_CASE]["calls_a_batch"] == 1


def test_a_case_the_other_tree_cannot_build_is_missing(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    identities = tmp_path / "src" / "hypident" / "identities.py"
    text = identities.read_text()
    build = "build_rhs=lambda p: _side_series(rhs(p), p.effective_cap),"
    floats = "rhs_float=lambda p, xs: _side_floats(rhs(p), xs),"
    assert text.count(build) == text.count(floats) == 1
    identities.write_text(text.replace(build, "build_rhs=lambda p: 1 / 0,").replace(floats, "rhs_float=lambda p, xs: 1 / 0,"))
    # the package does not import its command line, so only the import case breaks
    cli = tmp_path / "src" / "hypident" / "cli.py"
    cli.write_text(cli.read_text() + "\nraise ImportError('no command line')\n")
    cases = bench(tmp_path, tmp_path / "bench.json")
    assert cases["1.10 build_rhs cap=16"] == {"missing": ["other"]}
    assert cases["1.10 rhs_float"] == {"missing": ["other"]}
    assert cases[IMPORT_CASE] == {"missing": ["other"]}
    assert "median_ratio" in cases["1.10 build_lhs cap=16"]
    # the records are still made in the broken tree
    assert all("median_ratio" in cases[name] for name in CONSTRUCTORS)


def test_the_full_ladder_times_float_sides_and_a_deep_left_side():
    # the cases' structure only: the full ladder is too slow for tier-1
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_layers)
    labels = [bench_layers.label(*case) for case in bench_layers.ladder(quick=False)]
    assert len(labels) == len(set(labels))
    assert "1.6 build_lhs cap=512" in labels
    assert [label for label in labels if "verify" in label] == [
        f"{tag} verify_identity" for tag in ("1.5", "1.9", "1.10", "1.12", "1.13")]
    floats = [label for label in labels if "_float" in label]
    assert floats == [f"{tag} {side}{point}" for tag, point in
                      (("1.10", ""), ("1.17", " i=8"), ("2.1", " i=8 j=8"), ("3.1", " i=8 j=8"))
                      for side in ("lhs_float", "rhs_float")]
