"""Every name a module exports through ``__all__`` exists in it, every
name the benchmark's traced run wraps resolves, and every name the
benchmark's code reads from the package exists."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys

import pytest

import mpnnkit

MODULES = [name for name in ["mpnnkit"] + sorted(
    f"mpnnkit.{m.name}" for m in pkgutil.iter_modules(mpnnkit.__path__))
    if hasattr(importlib.import_module(name), "__all__")]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists missing names {missing}"


def test_tensor_exports_index_plans():
    # gather_rows, scatter_sum_rows and segment_softmax take only a plan,
    # so a caller needs the names that build and type one
    tensor = importlib.import_module("mpnnkit.tensor")
    assert {"segments", "Segments"} <= set(tensor.__all__)


def test_benchmark_span_targets_resolve():
    # The traced benchmark run wraps each of these names; deleting one of
    # them must fail here rather than crash the traced run.
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.tracing import span_targets

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in span_targets() if not hasattr(owner, attr)]
    assert not missing, f"benchmark spans name missing callables {missing}"


BENCHMARK_FILES = ("harness.py", "tracing.py", "workloads.py")


def _resolve(module: str, chain: list[str]):
    """The object ``module.a.b...`` names, or None if a link is missing
    (``MODULES`` has imported every submodule, so each is an attribute)."""
    owner = importlib.import_module(module)
    for attr in chain:
        if not hasattr(owner, attr):
            return None
        owner = getattr(owner, attr)
    return owner


def _benchmark_uses() -> list[tuple[str, str, list[str], list[str]]]:
    """What perfbench's code takes from the package, found by parsing it:
    (dotted name, module, attribute chain, keywords) for every ``from
    mpnnkit... import name`` and every attribute chain rooted at a name so
    imported, such as ``training.TargetStats.from_matrix``. The keywords
    are those passed in a call through the chain."""
    uses = []
    for file in BENCHMARK_FILES:
        tree = ast.parse((ROOT / "perfbench" / file).read_text())
        bound = {}  # local name -> (module, chain)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module.split(".")[0] == "mpnnkit"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, [alias.name])
        uses += [(f"{m}.{c[0]}", m, c, []) for m, c in bound.values()]
        for node in ast.walk(tree):
            expr = node.func if isinstance(node, ast.Call) else node
            if isinstance(node, ast.Name) or not isinstance(expr, (ast.Name, ast.Attribute)):
                continue
            chain = []
            while isinstance(expr, ast.Attribute):
                chain.insert(0, expr.attr)
                expr = expr.value
            if isinstance(expr, ast.Name) and expr.id in bound:
                module, head = bound[expr.id]
                chain = head + chain
                keywords = ([k.arg for k in node.keywords if k.arg]
                            if isinstance(node, ast.Call) else [])
                uses.append((".".join([module] + chain), module, chain, keywords))
    return uses


def test_benchmark_names_resolve():
    # perfbench's own tests are not in this suite: deleting or renaming a
    # name the benchmark reads from the package, or a keyword it passes to
    # one, must fail here
    uses = _benchmark_uses()
    # the scan sees both kinds of read, so an empty scan cannot pass
    assert {"mpnnkit.training.TargetStats.from_matrix", "mpnnkit.checks.permute_graph",
            "mpnnkit.engine.ModelConfig"} <= {name for name, *_ in uses}
    missing, refused = set(), set()
    for name, module, chain, keywords in uses:
        target = _resolve(module, chain)
        if target is None:
            missing.add(name)
        elif keywords:
            params = inspect.signature(target).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                refused |= {f"{name}({k}=)" for k in keywords if k not in params}
    assert not missing, f"the benchmark reads missing names {sorted(missing)}"
    assert not refused, f"the benchmark passes unknown keywords {sorted(refused)}"
