"""Every name a module exports through ``__all__`` exists in it, and every
name the benchmark's traced run wraps resolves."""

import importlib
import pathlib
import pkgutil
import sys

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


def test_benchmark_span_targets_resolve():
    # The traced benchmark run wraps each of these names; deleting one of
    # them must fail here rather than crash the traced run.
    root = pathlib.Path(__file__).resolve().parents[1]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from perfbench.tracing import span_targets

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in span_targets() if not hasattr(owner, attr)]
    assert not missing, f"benchmark spans name missing callables {missing}"
