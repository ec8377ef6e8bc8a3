"""The value types' contract: equal fields make equal, equally hashed,
immutable values, every way to one validates, and a series stays no tuple.

The records are ``typing.NamedTuple`` classes (with a validating
``__new__`` where construction checks or normalises), ``TruncatedSeries``
is a ``__slots__`` class, and ``IdentityDef`` is the one dataclass left.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hypident.hyper import DegenerateParameterError, FloatSum, HypSpec
from hypident.identities import Arg, IdentityParams, ProductSide, RawProduct, Side, Term
from hypident.reports import AdmissibilityFinding, CoefficientMismatch, FloatResidual, VerifyReport
from hypident.series import TruncatedSeries

ROOT = Path(__file__).resolve().parent.parent

_SPEC = HypSpec((F(1, 3),), (F(2, 3),))
_TERM = Term(((_SPEC, Arg()),), F(1, 2), 1)

# each a fresh value at every call, from the same fields
VALUES = {
    "FloatSum": lambda: FloatSum(1.0, True, 3, 1.5, 1e-16),
    "FloatResidual": lambda: FloatResidual(0.5, 1e-17, 1.0, 1.0),
    "CoefficientMismatch": lambda: CoefficientMismatch(2, F(1, 3), F(1, 2)),
    "AdmissibilityFinding": lambda: AdmissibilityFinding("2*alpha", 1, F(-1), "a zero factor"),
    "Arg": lambda: Arg(4, squared=True),
    "Term": lambda: Term(((HypSpec((F(1, 3),), (F(2, 3),)), Arg()),), F(1, 2), 1),
    "Side": lambda: Side((_TERM,), F(-1)),
    "ProductSide": lambda: ProductSide((F(1, 2), (F(1),)), (F(3, 2), (F(1), F(1, 4)))),
    "VerifyReport": lambda: VerifyReport("1.1", IdentityParams(alpha=F(3, 7)), 16, "exact_match"),
    "HypSpec": lambda: HypSpec((1, F(1, 3)), (2,)),
    "IdentityParams": lambda: IdentityParams(alpha=F(3, 7), beta=2, i=1, cap=20),
    "RawProduct": lambda: RawProduct(((HypSpec((F(1, 3),), (F(2, 3),)), Arg(-1)),), exp=-1),
    "TruncatedSeries": lambda: TruncatedSeries(2, [1, F(1, 2), 0]),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_with_one_hash(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert type(a).__name__ == name


@pytest.mark.parametrize("name", VALUES)
def test_assigning_a_field_raises(name):
    value = VALUES[name]()
    field = "cap" if name == "TruncatedSeries" else value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, value)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", VALUES)
def test_a_copy_and_a_pickle_are_equal_values(name):
    value = VALUES[name]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_field_order_defaults_and_class_attributes():
    assert IdentityParams._fields == ("alpha", "beta", "i", "j", "cap", "gamma", "printed_form")
    assert IdentityParams(alpha=1) == IdentityParams(1, None, 0, 0, None, None, False)
    assert HypSpec._fields == ("upper", "lower") and RawProduct._fields == ("factors", "exp")
    assert FloatSum._fields == ("value", "converged", "terms", "abs_sum", "error_bound")
    assert FloatResidual(1.0, 0.0, 1.0, 1.0)[4:] == (True, None)
    assert VerifyReport._fields[-1] == "elapsed_seconds"
    # class attributes, not fields
    assert "severity" not in AdmissibilityFinding._fields and VALUES["AdmissibilityFinding"]().severity == "fatal"
    assert "exp" not in ProductSide._fields and VALUES["ProductSide"]().exp == 1
    assert Side((_TERM,)).exp == 0 and Arg() == Arg(1, False)


def test_ints_are_normalised_to_fractions():
    spec = VALUES["HypSpec"]()
    assert all(type(p) is F for p in spec.upper + spec.lower)
    params = IdentityParams(alpha=3, beta=2, gamma=-1)
    assert all(type(p) is F for p in (params.alpha, params.beta, params.gamma))
    assert all(type(c) is F for c in VALUES["TruncatedSeries"]().coeffs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IdentityParams(alpha=0.5),
        lambda: IdentityParams(alpha=F(1, 2))._replace(alpha=0.5),
        lambda: IdentityParams._make([0.5]),
        lambda: IdentityParams(alpha=F(1, 2))._replace(i=-1),
        lambda: IdentityParams(alpha=F(1, 2), cap=-1),
        lambda: HypSpec((0.1,), (1,)),
        lambda: HypSpec((1,), (2,))._replace(upper=(0.1,)),
        lambda: HypSpec._make([(), (0.1,)]),
        lambda: HypSpec((1,), (2,))._replace(lower=(-2,)),
        lambda: RawProduct(((_SPEC, Arg(4, squared=True)),)),
        lambda: VALUES["RawProduct"]()._replace(factors=((_SPEC, Arg()),) * 3),
        lambda: RawProduct._make([((HypSpec((1, 2), (3,)), Arg()),)]),
        lambda: TruncatedSeries(0, [0.1]),
        lambda: TruncatedSeries(1, [1]),
    ],
    ids=["params", "params_replace", "params_make", "params_shift", "params_cap",
         "spec", "spec_replace", "spec_make", "spec_degenerate", "raw_squared", "raw_replace", "raw_make",
         "series_float", "series_length"],
)
def test_every_construction_path_validates(build):
    with pytest.raises(ValueError):
        build()


def test_a_degenerate_lower_parameter_names_itself():
    with pytest.raises(DegenerateParameterError, match=r"lower\[0\] = -2"):
        HypSpec((1,), (2,))._replace(lower=(-2,))


def test_a_series_gains_no_tuple_operations():
    series = VALUES["TruncatedSeries"]()
    with pytest.raises(TypeError):
        3 * series
    with pytest.raises(TypeError):
        (1,) + series
    with pytest.raises(TypeError):
        series[0]
    with pytest.raises(TypeError):
        len(series)
    assert series != (2, 2, (2, 1, 0)) and series == TruncatedSeries.from_integers(2, 2, [2, 1, 0])
    assert repr(series) == "TruncatedSeries(cap=2, den=2, nums=(2, 1, 0))"


def test_identity_def_is_the_only_dataclass_on_the_import_path():
    """A fresh ``import hypident.cli``: of the classes in hypident's
    modules, only ``IdentityDef`` is a dataclass."""
    script = (
        "import sys, hypident.cli\n"
        "print(sorted({c.__name__ for name, m in list(sys.modules.items()) if name.startswith('hypident')\n"
        "    for c in vars(m).values() if isinstance(c, type) and c.__module__ == name\n"
        "    and '__dataclass_fields__' in vars(c)}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["['IdentityDef']"]
