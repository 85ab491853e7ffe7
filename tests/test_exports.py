"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import sparselab


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(sparselab.__path__)))
def test_exports_resolve(name):
    module = importlib.import_module(f"sparselab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
