"""Every exported name resolves, so a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import hypident

MODULES = ["hypident"] + [f"hypident.{info.name}" for info in pkgutil.iter_modules(hypident.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
