"""Smoke test of ``scripts/bench_layers.py`` on its small ladder."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from hypident.cli import MAX_SHIFT

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_layers.py"
IMPORT_CASE = "import hypident.cli"
REQUEST_CASE = "cli.run verify 1.8 --output=json"
# the view the float route once read; the package no longer has it, so the
# ladder keeps the case and reports it missing
TERMS_VIEW = "3.1 tuple(ProductSide.terms) i=8 j=8"
CONSTRUCTORS = {"FloatSum", "HypSpec 1F1", "IdentityParams", TERMS_VIEW}
LAYERS = {"3.1 _float_terms i=8 j=8", "check_admissible 1.7", "check_admissible 1.8 gamma=5",
          "check_admissible 2.1 i=8 j=8"}
COLD_FLOAT = "1.10 rhs_float memos cleared"
QUICK_CASES = {"1.10 build_rhs cap=16", "1.10 build_lhs cap=16", "1.10 rhs_float", COLD_FLOAT, *CONSTRUCTORS, *LAYERS,
               REQUEST_CASE, IMPORT_CASE}


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
    assert cases.pop(TERMS_VIEW) == {"missing": ["this", "other"]}
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
    # the package does not import its command line, so only the request and import cases break
    cli = tmp_path / "src" / "hypident" / "cli.py"
    cli.write_text(cli.read_text() + "\nraise ImportError('no command line')\n")
    cases = bench(tmp_path, tmp_path / "bench.json")
    assert cases["1.10 build_rhs cap=16"] == {"missing": ["other"]}
    assert cases["1.10 rhs_float"] == cases[COLD_FLOAT] == {"missing": ["other"]}
    assert cases[IMPORT_CASE] == cases[REQUEST_CASE] == {"missing": ["other"]}
    assert "median_ratio" in cases["1.10 build_lhs cap=16"]
    # the records and the per-point layers are still made in the broken tree
    assert all("median_ratio" in cases[name] for name in (CONSTRUCTORS - {TERMS_VIEW}) | LAYERS)
    assert cases[TERMS_VIEW] == {"missing": ["this", "other"]}


def test_the_full_ladder_times_float_sides_and_a_deep_left_side():
    # the cases' structure only: the full ladder is too slow for tier-1
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_layers)
    labels = [bench_layers.label(*case) for case in bench_layers.ladder(quick=False)]
    assert len(labels) == len(set(labels))
    assert "1.6 build_lhs cap=512" in labels
    assert [label for label in labels if label.split()[:2] == ["3.3", "build_rhs"]] == ["3.3 build_rhs printed_form i=8 j=8"]
    # every series entry from 1.5 to 1.13 at its defaults, the exponential ones first, then the float sum 1.8
    defaults = [f"{tag} verify_identity" for tag in ("1.5", "1.9", "1.10", "1.12", "1.13", "1.6", "1.7", "1.11")]
    assert [label for label in labels if "verify" in label] == [*defaults, "1.8 verify_identity gamma=5"]
    assert bench_layers.REQUEST_CASE == REQUEST_CASE and "--identity=1.8" in bench_layers.REQUEST
    floats = [label for label in labels if label.split()[1] in ("lhs_float", "rhs_float")]
    assert floats == [f"{tag} {side}{point}" for tag, point in
                      (("1.10", ""), ("1.17", " i=8"), ("2.1", " i=8 j=8"), ("3.1", " i=8 j=8"))
                      for side in ("lhs_float", "rhs_float")]
    # the float_sums specs (1.8 at high and low excess) and 2.1's double sum, each made in this tree
    layers = ["1.4 pfq_eval_float", "1.8 pfq_eval_float gamma=5", "1.8 pfq_eval_float gamma=1/2",
              "2.1 _bailey_double_sum i=8 j=8", "2.1 _raw_product_series i=0 j=0", "2.1 _raw_product_series i=8 j=8"]
    assert labels[-len(layers):] == layers
    table, src = bench_layers.table(quick=False), ROOT / "src"
    tree = bench_layers.load(src, "hypident_ladder")
    assert all(bench_layers.made(table[name], tree, src)().status == "exact_match" for name in defaults)
    assert all(bench_layers.made(table[name], tree, src) for name in layers)
    # 2.1's left side at its default caps, 16 and 48
    assert [bench_layers.made(table[name], tree, src)().cap for name in layers[-2:]] == [16, 48]
    # 2.1's right side at i = j = 8 warm, after the one at 2, and from cleared memos after the cold verifies
    assert [label for label in labels if label.startswith("2.1 build_rhs")] == ["2.1 build_rhs i=2 j=2", "2.1 build_rhs i=8 j=8"]
    # the 2.1 grid at i, j <= 8 from cleared memos, after the ladder and in the full table only
    names = list(table)
    assert names[names.index(layers[-1]) + 1] == bench_layers.GRID_CASE
    assert bench_layers.GRID_CASE not in bench_layers.table(quick=True)
    grid = bench_layers.made(table[bench_layers.GRID_CASE], tree, src)
    assert [report.status for report in grid()] == ["exact_match"] * 81
    # after the grid, every float side and the 2.x and 3.1 default verifies from cleared memos, then one catalog point
    cold = names[names.index(bench_layers.GRID_CASE) + 1:names.index(bench_layers.CATALOG_POINT_CASE) + 1]
    assert cold == [*(f"{label} memos cleared" for label in floats),
                    *(f"{tag} verify_identity i={n} j={n} memos cleared" for n in (8, 20) for tag in ("2.1", "2.2", "2.3", "3.1")),
                    "2.1 build_rhs i=8 j=8 memos cleared", "catalog point verify_identity cap=96 memos cleared"]
    point = bench_layers.made(table[bench_layers.CATALOG_POINT_CASE], tree, src)
    assert [report.identity for report in point()] == [*bench_layers.PAIR_TAGS, *["1.17"] * 3, *["1.18"] * 3]
    assert {report.status for report in point()} == {"exact_match"}
    # then the product-grid sweeps of 2.1-2.3 from cleared memos, in the full table only
    start = names.index(bench_layers.CATALOG_POINT_CASE) + 1
    sweeps = [f"2.1-2.3 sweep i<={n} j<={n} memos cleared" for n in (4, 8, 12)]
    assert names[start:start + 3] == sweeps and not set(sweeps) & set(bench_layers.table(quick=True))
    grids = bench_layers.made(table[sweeps[0]], tree, src)()
    assert [{(report.identity, report.status) for report in grid} for grid in grids] == [
        {(tag, "exact_match")} for tag in ("2.1", "2.2", "2.3")]
    assert [len(grid) for grid in grids] == [25] * 3
    # the 2.1 gate from cleared memos, after the per-point layers, at the benchmark's shifts and the largest one
    assert bench_layers.MAX_SHIFT == MAX_SHIFT
    gates = ["check_admissible 2.1 i=8 j=8 memos cleared", f"check_admissible 2.1 i={MAX_SHIFT} j={MAX_SHIFT} memos cleared"]
    start = names.index("check_admissible 2.1 i=8 j=8") + 1
    assert names[start:start + 2] == gates and not set(gates) & set(bench_layers.table(quick=True))
    assert all(bench_layers.made(table[name], tree, src)() == [] for name in gates)
    # last, the fresh processes: the import, then one cold verify of 2.1 at i = j = 8, in the full table only
    process = "python3 -m hypident.cli verify 2.1 i=8 j=8 --output json"
    assert names[-2:] == [IMPORT_CASE, process] and process not in bench_layers.table(quick=True)
    assert bench_layers.VERIFY_PROCESS[:2] == ["verify", "--identity"] and bench_layers.VERIFY_PROCESS[-2:] == ["--output", "json"]
    done = bench_layers.made(table[process], tree, src)()
    assert done.returncode == 0 and json.loads(done.stdout)["status"] == "exact_match"
