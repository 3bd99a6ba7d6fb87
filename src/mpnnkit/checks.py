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
from .engine import MESSAGE_FNS, READOUTS, ModelConfig, init_params, is_bias, propagate
from .model import model_forward, predict_batch, union_groups
from .molgraph import EncodedGraph
from .spectral import _check_graph_count, run_spectral_checks
from .tensor import ContractError, MultiplyCounter, Tensor

__all__ = [
    "GRADIENT_TOLERANCE",
    "GRADIENT_ABS_FLOOR",
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
BATCH_GROW_NODES = 24
BATCH_GROW_LIMIT = 64   # about twice what the sweep's d=8 configs need
GRADIENT_NODES = 5


def random_graph(rng: np.random.Generator, n: int, cfg: ModelConfig,
                 edge_prob: float = 0.5) -> EncodedGraph:
    """A connected random graph encoded for the given model config, each
    pair's features drawn once, in pair order."""
    pairs = [(i, i + 1) for i in range(n - 1)]  # path keeps it connected
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < edge_prob:
                pairs.append((i, j))
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    if cfg.edge_repr == "raw_distance":
        features = np.array([np.concatenate(([rng.uniform(0.8, 6.0)], rng.uniform(size=4)))
                             for _ in pairs]).reshape(-1, 5)
    else:
        features = np.array([rng.integers(0, cfg.alphabet) for _ in pairs], dtype=np.int64)
    return EncodedGraph(node_features=rng.normal(size=(n, cfg.d)), pair_i=i, pair_j=j,
                        pair_features=features, representation=cfg.edge_repr)


def permute_graph(eg: EncodedGraph, perm: np.ndarray) -> EncodedGraph:
    """Relabel nodes: old node i becomes new node perm[i]."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))  # inv[j] = old id of new node j
    return EncodedGraph(node_features=eg.node_features[inv],
                        pair_i=perm[eg.pair_i], pair_j=perm[eg.pair_j],
                        pair_features=eg.pair_features,
                        representation=eg.representation)


def _jitter_biases(params: dict[str, Tensor], rng: np.random.Generator) -> None:
    # zero-initialized biases leave ReLU layers dead at the linearization
    # point, which makes gradient checks vacuously pass or trip on kinks
    for name, p in params.items():
        if is_bias(name):
            p.data[...] = rng.normal(scale=0.3, size=p.data.shape)


def _fd_max_rel_err(build_loss, params: dict[str, Tensor]) -> tuple[float, int]:
    """The worst relative error of the analytic gradient against central
    differences, over the entries whose two values differ by more than
    ``GRADIENT_ABS_FLOOR``, and how many entries that is: with none, the
    error reads 0 and says nothing of the margin."""
    loss = build_loss()
    tt.backward(loss)
    analytic = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()
    worst, compared = 0.0, 0
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
                    compared += 1
                    worst = max(worst, err / max(abs(grads[idx]), abs(numeric)))
    return worst, compared


# one config per message function plus one per readout, and the edge
# network over both raw distances and labels, which it computes in two
# ways; the GRU update is exercised by all of them
GRADIENT_CONFIGS = (
    ("matmul+ggnn", dict(message_fn="matmul", readout="ggnn",
                         edge_repr="chemical")),
    ("edge_network+set2set", dict(message_fn="edge_network", readout="set2set",
                                  edge_repr="raw_distance")),
    ("edge_network_labels+ggnn", dict(message_fn="edge_network", readout="ggnn",
                                      edge_repr="chemical")),
    ("pair_message+dtnn_sum", dict(message_fn="pair_message", readout="dtnn_sum",
                                   edge_repr="distance_bins")),
    ("dtnn+ggnn", dict(message_fn="dtnn", readout="ggnn",
                       edge_repr="distance_bins")),
)


def run_gradient_checks(seed: int = 0) -> dict:
    """End-to-end FD check of every parameter for each config, on a random
    graph of ``GRADIENT_NODES`` nodes; returns the per-config and overall
    worst relative errors, and per config how many entries were compared
    above the floor (``above_floor``)."""
    results = []
    for label, overrides in GRADIENT_CONFIGS:
        cfg = ModelConfig(T=2, d=4, n_targets=2, set2set_M=2, **overrides)
        rng = np.random.default_rng(seed)
        eg = random_graph(rng, GRADIENT_NODES, cfg)
        params = init_params(cfg, seed=seed)
        _jitter_biases(params, rng)
        probe = Tensor(rng.normal(size=cfg.n_targets))

        def build_loss():
            out = model_forward(eg, params, cfg)
            return tt.add(tt.reduce_sum(tt.mul(out, probe)),
                          tt.reduce_sum(tt.mul(out, out)))

        n_entries = sum(p.data.size for p in params.values())
        err, compared = _fd_max_rel_err(build_loss, params)
        results.append({"label": label, "max_rel_err": err,
                        "params_checked": n_entries, "above_floor": compared})
    overall = max(r["max_rel_err"] for r in results)
    return {"checks": results, "max_rel_err": overall,
            "tolerance": GRADIENT_TOLERANCE,
            "passed": overall < GRADIENT_TOLERANCE}


def _sweep_configs():
    """Every combination of message function, readout, and towers k in {1, 4},
    over distance bins, and the edge network's combinations again over raw
    distances: it contracts those without building a matrix, and the two
    edge-network workloads run it so."""
    sweep = [(message_fn, "distance_bins") for message_fn in MESSAGE_FNS]
    sweep.append(("edge_network", "raw_distance"))
    for message_fn, edge_repr in sweep:
        for readout in READOUTS:
            for k in (1, 4):
                yield ModelConfig(message_fn=message_fn, readout=readout,
                                  towers_k=k, T=2, d=8, n_targets=3,
                                  set2set_M=3, edge_repr=edge_repr)


def run_invariance_checks(seed: int = 0, n_graphs: int = 100) -> dict:
    """Graph outputs under random node relabelings, for every combination of
    ``_sweep_configs``."""
    _check_graph_count(n_graphs)
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
        results.append({"message_fn": cfg.message_fn, "edge_repr": cfg.edge_repr,
                        "readout": cfg.readout, "towers_k": cfg.towers_k,
                        "max_deviation": worst})
    overall = max(r["max_deviation"] for r in results)
    return {"combos": results, "n_graphs": n_graphs,
            "max_deviation": overall, "tolerance": INVARIANCE_TOLERANCE,
            "passed": overall < INVARIANCE_TOLERANCE}


def run_batch_checks(seed: int = 0, n_graphs: int = 100) -> dict:
    """``predict_batch`` rows against one graph at a time, for every
    combination of ``_sweep_configs``.

    The batch mixes graphs of 2 to 8 nodes with a zero-edge and a zero-atom
    graph, and grows by complete graphs of ``BATCH_GROW_NODES`` nodes, at
    most ``BATCH_GROW_LIMIT`` of them, until ``union_groups`` cuts it in two
    at ``model.UNION_BYTES``. So it runs as several unions, their graphs in
    another order than the batch's. Each combo records its union count, and
    a combo that ran as one union fails the check. The batch is predicted
    twice, so the second call runs over the packing the first one kept
    (``model.KEPT_BYTES``), and both calls' rows are held to the tolerance.

    A towers combo also predicts the batch with features narrower than d,
    ``d_tower + 1`` columns, which fill the first two towers only, and its
    padded twin, the same features zero-padded to d. The narrow batch's
    first step runs only the towers its features fill, under a message
    linear in the far state, and the twin's all of them; the rows must be
    byte-equal (``twin_equal``, None without towers), or the check fails.
    """
    _check_graph_count(n_graphs)
    results = []
    for cfg in _sweep_configs():
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        egs = [random_graph(rng, int(rng.integers(2, 9)), cfg, edge_prob=1.0)
               for _ in range(n_graphs)]
        egs[1:1] = [random_graph(rng, 1, cfg), random_graph(rng, 0, cfg)]
        for _ in range(BATCH_GROW_LIMIT):
            if len(union_groups(egs, cfg)) > 1:
                break
            egs.append(random_graph(rng, BATCH_GROW_NODES, cfg, edge_prob=1.0))
        with tt.no_grad():
            batches = [predict_batch(egs, params, cfg).data for _ in range(2)]
            alone = np.stack([model_forward(eg, params, cfg).data for eg in egs])
            twin_equal = None
            if cfg.towers_k > 1:
                width = cfg.d_tower + 1
                narrow = [dataclasses.replace(eg, node_features=eg.node_features[:, :width])
                          for eg in egs]
                padded = [dataclasses.replace(eg, node_features=np.pad(
                    eg.node_features, ((0, 0), (0, cfg.d - width)))) for eg in narrow]
                twin_equal = (predict_batch(narrow, params, cfg).data.tobytes()
                              == predict_batch(padded, params, cfg).data.tobytes())
        results.append({"message_fn": cfg.message_fn, "edge_repr": cfg.edge_repr,
                        "readout": cfg.readout, "towers_k": cfg.towers_k,
                        "graphs": len(egs), "unions": len(union_groups(egs, cfg)),
                        "max_deviation": max(float(np.max(np.abs(batch - alone)))
                                             for batch in batches),
                        "twin_equal": twin_equal})
    overall = max(r["max_deviation"] for r in results)
    fewest = min(r["unions"] for r in results)
    twins = [r["twin_equal"] for r in results if r["twin_equal"] is not None]
    return {"combos": results, "max_deviation": overall, "fewest_unions": fewest,
            "twins_equal": sum(twins), "twins": len(twins), "tolerance": BATCH_TOLERANCE,
            "passed": overall < BATCH_TOLERANCE and fewest >= 2 and all(twins)}


def bench_towers(d: int = 200, n: int = 9, k: int = 8, T: int = 1,
                 seed: int = 0) -> dict:
    """Message-phase multiply counts and wall clock for towers vs. none.

    Uses the matmul message on a complete graph. The message phase is what
    the edges add: the multiplies of a forward pass over the graph minus
    those over the same nodes with no edges, which send no message. Per
    channel and step it is one product of a node's state with a label's
    matrix at each (far node, label) pair some edge reads, d_tower^2 per
    tower, so the k-way state split cuts it by exactly 1/k. Updates and
    tower mixing do not depend on the edges, so they cancel. A master
    node's messages would cancel too; towers reject one. The wall clock is
    the median of ``BENCH_REPEATS`` whole forward passes per side, after
    one warm-up pass each, the two sides' passes taking turns so that a
    slow stretch of the machine falls on both.
    """
    if n < 2:
        # with fewer than two nodes the graph has no edges and no message cost
        raise ContractError(f"bench_towers needs n >= 2 nodes for any edge, got n={n}")
    counts: dict[int, int] = {}
    runs = {}
    for towers in (1, k):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=T, d=d,
                          towers_k=towers, n_targets=1, edge_repr="chemical")
        rng = np.random.default_rng(seed)
        eg = random_graph(rng, n, cfg, edge_prob=1.0)
        no_edges = dataclasses.replace(eg, pair_i=eg.pair_i[:0], pair_j=eg.pair_j[:0],
                                       pair_features=eg.pair_features[:0])
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
