"""Self-verification suites: finite-difference gradient checks, permutation
invariance sweeps, the batching oracle, and towers cost instrumentation.

These run from the CLI (`mpnnkit verify`, `mpnnkit bench-towers`) and back
the acceptance tests. The finite-difference oracle here is deliberately
independent of the autodiff tape: it only calls the forward pass.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import tensor as tt
from .engine import ModelConfig, init_params, propagate
from .model import UNION_EDGE_BUDGET, model_forward, predict_batch
from .molgraph import EncodedGraph
from .spectral import run_spectral_checks
from .tensor import MultiplyCounter, Tensor

__all__ = [
    "GRADIENT_TOLERANCE",
    "INVARIANCE_TOLERANCE",
    "BATCH_TOLERANCE",
    "random_graph",
    "permute_graph",
    "run_gradient_checks",
    "run_invariance_checks",
    "run_batch_checks",
    "bench_towers",
    "run_spectral_checks",
]

FD_STEP = 1e-3
GRADIENT_TOLERANCE = 1e-4
GRADIENT_ABS_FLOOR = 1e-8
INVARIANCE_TOLERANCE = 1e-9
BATCH_TOLERANCE = 1e-12
BENCH_REPEATS = 7


def random_graph(rng: np.random.Generator, n: int, cfg: ModelConfig,
                 edge_prob: float = 0.5) -> EncodedGraph:
    """A connected random graph encoded for the given model config."""
    pairs = [(i, i + 1) for i in range(n - 1)]  # path keeps it connected
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < edge_prob:
                pairs.append((i, j))
    src, dst = [], []
    for i, j in pairs:
        src += [i, j]
        dst += [j, i]
    m = len(src)
    if cfg.edge_repr == "raw_distance":
        edge_features = np.zeros((m, 5))
        for k in range(0, m, 2):
            vec = np.concatenate(([rng.uniform(0.8, 6.0)], rng.uniform(size=4)))
            edge_features[k] = edge_features[k + 1] = vec
    else:
        edge_features = np.zeros(m, dtype=np.int64)
        for k in range(0, m, 2):
            edge_features[k] = edge_features[k + 1] = rng.integers(0, cfg.alphabet)
    return EncodedGraph(node_features=rng.normal(size=(n, cfg.d)),
                        edge_src=np.array(src), edge_dst=np.array(dst),
                        edge_features=edge_features,
                        representation=cfg.edge_repr)


def permute_graph(eg: EncodedGraph, perm: np.ndarray) -> EncodedGraph:
    """Relabel nodes: old node i becomes new node perm[i]."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))  # inv[j] = old id of new node j
    return EncodedGraph(node_features=eg.node_features[inv],
                        edge_src=perm[eg.edge_src], edge_dst=perm[eg.edge_dst],
                        edge_features=eg.edge_features,
                        representation=eg.representation)


def _jitter_biases(params: dict[str, Tensor], rng: np.random.Generator) -> None:
    # zero-initialized biases leave ReLU layers dead at the linearization
    # point, which makes gradient checks vacuously pass or trip on kinks
    for name, p in params.items():
        if name.endswith(("_b1", "_b2")) or name == "mix_b":
            p.data[...] = rng.normal(scale=0.3, size=p.data.shape)


def _fd_max_rel_err(build_loss, params: dict[str, Tensor]) -> float:
    loss = build_loss()
    tt.backward(loss)
    analytic = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()
    worst = 0.0
    with tt.no_grad():
        for k, p in params.items():
            flat = p.data.reshape(-1)
            grads = analytic[k].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + FD_STEP
                up = build_loss().item()
                flat[idx] = orig - FD_STEP
                down = build_loss().item()
                flat[idx] = orig
                numeric = (up - down) / (2.0 * FD_STEP)
                err = abs(grads[idx] - numeric)
                if err > GRADIENT_ABS_FLOOR:
                    worst = max(worst, err / max(abs(grads[idx]), abs(numeric)))
    return worst


# one config per message function plus one per readout; the GRU update is
# exercised by all of them
GRADIENT_CONFIGS = (
    ("matmul+ggnn", dict(message_fn="matmul", readout="ggnn",
                         edge_repr="chemical")),
    ("edge_network+set2set", dict(message_fn="edge_network", readout="set2set",
                                  edge_repr="raw_distance")),
    ("pair_message+dtnn_sum", dict(message_fn="pair_message", readout="dtnn_sum",
                                   edge_repr="distance_bins")),
    ("dtnn+ggnn", dict(message_fn="dtnn", readout="ggnn",
                       edge_repr="distance_bins")),
)


def run_gradient_checks(seed: int = 0, n_nodes: int = 5) -> dict:
    """End-to-end FD check of every parameter for each config; returns the
    per-config and overall worst relative errors."""
    results = []
    for label, overrides in GRADIENT_CONFIGS:
        cfg = ModelConfig(T=2, d=4, n_targets=2, set2set_M=2, **overrides)
        rng = np.random.default_rng(seed)
        eg = random_graph(rng, n_nodes, cfg)
        params = init_params(cfg, seed=seed)
        _jitter_biases(params, rng)
        probe = Tensor(rng.normal(size=cfg.n_targets))

        def build_loss():
            out = model_forward(eg, params, cfg)
            return tt.add(tt.reduce_sum(tt.mul(out, probe)),
                          tt.reduce_sum(tt.mul(out, out)))

        n_entries = sum(p.data.size for p in params.values())
        err = _fd_max_rel_err(build_loss, params)
        results.append({"label": label, "max_rel_err": err,
                        "params_checked": n_entries})
    overall = max(r["max_rel_err"] for r in results)
    return {"checks": results, "max_rel_err": overall,
            "tolerance": GRADIENT_TOLERANCE,
            "passed": overall < GRADIENT_TOLERANCE}


INVARIANCE_MESSAGES = ("matmul", "edge_network", "pair_message", "dtnn")
INVARIANCE_READOUTS = ("ggnn", "set2set", "dtnn_sum")


def _sweep_configs():
    """Every combination of message function, readout, and towers k in {1, 4}."""
    for message_fn in INVARIANCE_MESSAGES:
        for readout in INVARIANCE_READOUTS:
            for k in (1, 4):
                yield ModelConfig(message_fn=message_fn, readout=readout,
                                  towers_k=k, T=2, d=8, n_targets=3,
                                  set2set_M=3, edge_repr="distance_bins")


def run_invariance_checks(seed: int = 0, n_graphs: int = 100) -> dict:
    """Graph outputs under random node relabelings, for every combination of
    message function, readout, and towers k in {1, 4}."""
    results = []
    for cfg in _sweep_configs():
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        worst = 0.0
        with tt.no_grad():
            for _ in range(n_graphs):
                n = int(rng.integers(2, 9))
                eg = random_graph(rng, n, cfg)
                perm = rng.permutation(n)
                out = model_forward(eg, params, cfg).data
                out_p = model_forward(permute_graph(eg, perm),
                                      params, cfg).data
                worst = max(worst, float(np.max(np.abs(out - out_p))))
        results.append({"message_fn": cfg.message_fn, "readout": cfg.readout,
                        "towers_k": cfg.towers_k, "max_deviation": worst})
    overall = max(r["max_deviation"] for r in results)
    return {"combos": results, "n_graphs": n_graphs,
            "max_deviation": overall, "tolerance": INVARIANCE_TOLERANCE,
            "passed": overall < INVARIANCE_TOLERANCE}


def run_batch_checks(seed: int = 0, n_graphs: int = 100) -> dict:
    """``predict_batch`` rows against one graph at a time, for every
    combination of message function, readout, and towers k in {1, 4}.

    The batch mixes graphs of 2 to 8 nodes with a zero-edge and a zero-atom
    graph, and holds more directed edges than ``UNION_EDGE_BUDGET``, so it
    runs as several unions.
    """
    results = []
    for cfg in _sweep_configs():
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        egs = [random_graph(rng, int(rng.integers(2, 9)), cfg, edge_prob=1.0)
               for _ in range(n_graphs)]
        egs[1:1] = [random_graph(rng, 1, cfg), random_graph(rng, 0, cfg)]
        while sum(eg.n_edges for eg in egs) <= UNION_EDGE_BUDGET:
            egs.append(random_graph(rng, 8, cfg, edge_prob=1.0))
        with tt.no_grad():
            batch = predict_batch(egs, params, cfg).data
            alone = np.stack([model_forward(eg, params, cfg).data for eg in egs])
        results.append({"message_fn": cfg.message_fn, "readout": cfg.readout,
                        "towers_k": cfg.towers_k, "graphs": len(egs),
                        "max_deviation": float(np.max(np.abs(batch - alone)))})
    overall = max(r["max_deviation"] for r in results)
    return {"combos": results, "max_deviation": overall,
            "tolerance": BATCH_TOLERANCE, "passed": overall < BATCH_TOLERANCE}


def bench_towers(d: int = 200, n: int = 9, k: int = 8, T: int = 1,
                 seed: int = 0) -> dict:
    """Message-phase multiply counts and wall clock for towers vs. none.

    Uses the matmul message on a complete graph, the regime where the
    k-way state split cuts the message cost by exactly 1/k. The message
    phase is what grows with the edges: the multiplies of a forward pass
    over the graph minus those over the same nodes with no edges. Updates
    and tower mixing do not depend on the edges, so they cancel. A master
    node's messages would cancel too; towers reject one. The wall clock is
    the median of ``BENCH_REPEATS`` whole forward passes per side, after
    one warm-up pass each, the two sides' passes taking turns so that a
    slow stretch of the machine falls on both.
    """
    counts: dict[int, int] = {}
    runs = {}
    for towers in (1, k):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=T, d=d,
                          towers_k=towers, n_targets=1, edge_repr="chemical")
        rng = np.random.default_rng(seed)
        eg = random_graph(rng, n, cfg, edge_prob=1.0)
        no_edges = dataclasses.replace(eg, edge_src=eg.edge_src[:0],
                                       edge_dst=eg.edge_dst[:0],
                                       edge_features=eg.edge_features[:0])
        params = init_params(cfg, seed=seed)
        with tt.no_grad():
            with tt.count_multiplies(MultiplyCounter()) as full:
                propagate(eg, params, cfg)
            with tt.count_multiplies(MultiplyCounter()) as bare:
                propagate(no_edges, params, cfg)
        counts[towers] = full.total - bare.total
        runs[towers] = (eg, params, cfg)
    times: dict[int, list[float]] = {towers: [] for towers in runs}
    with tt.no_grad():
        for repeat in range(BENCH_REPEATS + 1):
            for towers, (eg, params, cfg) in runs.items():
                start = time.perf_counter()
                propagate(eg, params, cfg)
                if repeat:  # the first pass warms up
                    times[towers].append(time.perf_counter() - start)
    seconds = {towers: float(np.median(t)) for towers, t in times.items()}
    return {"d": d, "n": n, "k": k, "T": T,
            "message_multiplies": counts,
            "multiply_ratio": counts[k] / counts[1],
            "seconds": seconds,
            "wall_clock_ratio": seconds[k] / seconds[1]}
