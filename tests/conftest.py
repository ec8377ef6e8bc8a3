import pytest
from hypothesis import settings

from hypident import identities

# big-rational arithmetic is bursty; wall-clock deadlines just add flakes
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from cleared memos, so a test that patches what a
    memoized derivation calls leaves none of its results to later tests."""
    identities._clear_memos()


@pytest.fixture
def float_budget_of_ten(monkeypatch):
    """Run every float sum of the catalog with a budget of ten terms."""
    real = identities.pfq_eval_float

    def limited(spec, x, tol, max_terms):
        return real(spec, x, tol=tol, max_terms=10)

    monkeypatch.setattr(identities, "pfq_eval_float", limited)


@pytest.fixture
def horner():
    """Horner evaluation of a truncated series in double precision, from its
    integer numerators: the float oracle the pFq sums are checked against."""

    def evaluate(series, x):
        acc = 0.0
        for n in reversed(series.nums):
            acc = acc * x + n / series.den
        return acc

    return evaluate
