"""The package's exports: every name a module lists in `__all__` exists."""

import importlib
import pkgutil

import pytest

import direlieff

MODULES = ["direlieff"] + [f"direlieff.{m.name}" for m in pkgutil.iter_modules(direlieff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
