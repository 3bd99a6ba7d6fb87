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


def test_benchmark_graph_attribute_is_the_directed_edge_count():
    # perfbench sorts its training graphs into batch bands by each
    # graph's ``n_edges``, an attribute the scan above cannot see: it must
    # stay, and count the directed edges, two per undirected pair, which
    # the graphs' layout as one graph sends along
    from mpnnkit.engine import ModelConfig, layout
    from mpnnkit.molgraph import encode
    from mpnnkit.synthetic import generate_synthetic

    assert "].n_edges" in (ROOT / "perfbench" / "harness.py").read_text()
    egs = [encode(g, "chemical") for g in generate_synthetic(5, seed=0)]
    for eg in egs:
        assert type(eg.n_edges) is int and eg.n_edges == 2 * eg.pair_i.size > 0
    lay = layout(egs, ModelConfig(message_fn="matmul"))
    assert lay.dst.index.size == sum(eg.n_edges for eg in egs)


def _tensor_reads_in_src() -> set[str]:
    """The names of ``mpnnkit.tensor`` that the package's code reads: an
    attribute of the module (``tt.name``), a name imported from it, or, in
    ``tensor.py`` itself, a bare name that the file never binds to a local
    value, outside that name's own top-level definition. Importing a name
    is not reading it."""
    reads = set()
    for path in sorted((ROOT / "src" / "mpnnkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules, imported = set(), set()
        local = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        local |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {a.asname or a.name for a in node.names}
                if node.module is None:
                    modules |= {a.asname or a.name for a in node.names if a.name == "tensor"}
                elif node.module == "tensor":
                    imported |= names
        for top in tree.body:
            own = getattr(top, "name", None) if path.name == "tensor.py" else None
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    reads.add(node.attr)
                elif (isinstance(node, ast.Name) and node.id != own
                      and (node.id in imported
                           or path.name == "tensor.py" and node.id not in local)):
                    reads.add(node.id)
    return reads


def test_every_tensor_export_is_used():
    # an op that nothing calls any more must leave the autodiff core, not
    # linger in its exports: every name is read by the package's code, or
    # wrapped or read by the benchmark
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.tracing import TENSOR_OPS

    tensor = importlib.import_module("mpnnkit.tensor")
    reads = _tensor_reads_in_src()
    assert {"matmul", "segments", "Segments", "ContractError"} <= reads
    bench = set(TENSOR_OPS) | {chain[1] for _, module, chain, _ in _benchmark_uses()
                               if module == "mpnnkit" and chain[0] == "tensor" and len(chain) > 1}
    unused = sorted(set(tensor.__all__) - reads - bench)
    assert not unused, f"mpnnkit.tensor exports names nothing uses: {unused}"


def test_only_result_makes_a_tensor_without_its_check():
    # ``Tensor()`` checks its values for NaN/Inf; ``tensor._result`` is the
    # one place that makes a tensor without that check, through
    # ``Tensor.__new__``, so no op hand-builds an unchecked tensor
    calls = []
    for path in sorted((ROOT / "src" / "mpnnkit").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [(path.name, getattr(top, "name", None), ast.unparse(node.value))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert calls == [("tensor.py", "_result", "Tensor")], calls


def test_exact_json_types_are_checked_in_one_place():
    # what a valid JSON list is, item types exact so that a boolean is not
    # an int, is written once, in ``tensor._list_of``; every reader takes
    # its checks from there rather than spelling ``map(type, ...)`` again
    calls = []
    for path in sorted((ROOT / "src" / "mpnnkit").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [(path.name, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "map" and node.args
                      and isinstance(node.args[0], ast.Name) and node.args[0].id == "type"]
    assert calls == [("tensor.py", "_list_of")], calls
