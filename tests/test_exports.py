"""Every exported name resolves, so a stale ``__all__`` entry fails here,
and every name the benchmark's tracer patches still exists."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypident

MODULES = ["hypident"] + [f"hypident.{info.name}" for info in pkgutil.iter_modules(hypident.__path__)]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("home, name", [("hyper", "pfq_series"), ("hyper", "bailey_product_series"),
                                        ("series", "exp_series"), ("reports", "reports_to_csv")])
def test_oracle_only_names_are_not_exported(home, name):
    # the package calls none of them; they stay defined for perfbench (its
    # tracer patches them, its worker renders CSV with reports_to_csv) and
    # for the tests to use as oracles
    module = importlib.import_module(f"hypident.{home}")
    assert name not in hypident.__all__ and name not in module.__all__
    assert callable(getattr(module, name))


def test_benchmark_tracer_installs():
    # perfbench/tracing.py looks each patched name up with getattr, so
    # deleting one breaks `perfbench/run.py --trace 1`; it wraps the
    # catalog's float fields as they are called, so a wrapper that no
    # longer fits them breaks a traced verify of a series or a float sum.
    # It rewrites the one registry in place, so that ``get`` by tag string
    # and by enum member both return its wrapped entries
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "from hypident.identities import IdentityId, get; plain = get('1.8'); "
        "import tracing; tracer = tracing.Tracer(); tracing.install(tracer); "
        "from hypident import verify; from hypident.identities import IdentityParams; "
        "verify.verify_identity('2.1', IdentityParams(alpha='3/7', beta='2/5', i=2, j=1)); "
        "verify.verify_identity('1.4', IdentityParams(alpha='1/3', beta='2/5')); "
        "watson = get('1.8'), get(IdentityId.WATSON_UNIT); "
        "print(([tracer.calls[layer] for layer in "
        "('identities.float_sides', 'identities.build_rhs', 'hyper.pfq_eval_float')], "
        "[define is not plain and define.scalar_float.__wrapped__ is plain.scalar_float for define in watson]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, wrapped = ast.literal_eval(proc.stdout.strip())
    assert len(calls) == 3 and all(calls), calls
    assert wrapped == [True, True]
