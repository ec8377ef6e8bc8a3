import pytest
from hypothesis import settings

from hypident import identities

# big-rational arithmetic is bursty; wall-clock deadlines just add flakes
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def float_budget_of_ten(monkeypatch):
    """Run every float sum of the catalog with a budget of ten terms."""
    real = identities.pfq_eval_float

    def limited(spec, x, tol, max_terms):
        return real(spec, x, tol=tol, max_terms=10)

    monkeypatch.setattr(identities, "pfq_eval_float", limited)
