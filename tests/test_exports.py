"""Every name a module exports through ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import mpnnkit

MODULES = [name for name in ["mpnnkit"] + sorted(
    f"mpnnkit.{m.name}" for m in pkgutil.iter_modules(mpnnkit.__path__))
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists missing names {missing}"
