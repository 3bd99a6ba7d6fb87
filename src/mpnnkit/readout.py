"""Graph-level readouts: order-invariant maps from node states to outputs.

All three readouts consume the final and initial node states and return
an (n_graphs, n_targets) matrix, one row per graph, also for a lone graph.
Every sum and softmax runs per graph (segment ops over the node-to-graph
index). Each is invariant to node permutation: the gated and plain sums by
commutativity, the attention loop because its softmax weights travel with
their rows.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .engine import ModelConfig, NodeStates, _gru_params, mlp2
from .tensor import Tensor

__all__ = [
    "readout_ggnn",
    "readout_set2set",
    "readout_dtnn_sum",
    "apply_readout",
]


def _with_master_rows(states: NodeStates, cfg: ModelConfig
                      ) -> tuple[Tensor, Tensor, np.ndarray]:
    """Node states for the summing readouts, each master row appended to
    its own graph when ``cfg.master_in_readout``, plus the graph index of
    every row. ``ModelConfig`` admits a master in these sums only at width
    d."""
    h, h0, graph = states.h, states.h0, states.node_graph
    if states.master is not None and cfg.master_in_readout:
        h = tt.concat([h, states.master], axis=0)
        h0 = tt.concat([h0, states.master0], axis=0)
        graph = np.concatenate([graph, np.arange(states.n_graphs)])
    return h, h0, graph


def readout_ggnn(states: NodeStates, params: dict[str, Tensor],
                 cfg: ModelConfig) -> Tensor:
    """Gated sum: sigma(i(h_T, h_0)) * j(h_T), summed over each graph's nodes."""
    h, h0, graph = _with_master_rows(states, cfg)
    gates = tt.sigmoid(mlp2(tt.concat([h, h0], axis=1), params, "ro_i"))
    values = mlp2(h, params, "ro_j")
    return tt.scatter_sum_rows(tt.mul(gates, values), graph, states.n_graphs)


def readout_dtnn_sum(states: NodeStates, params: dict[str, Tensor],
                     cfg: ModelConfig) -> Tensor:
    """Sum of per-node MLP outputs over each graph's nodes."""
    h, _, graph = _with_master_rows(states, cfg)
    return tt.scatter_sum_rows(mlp2(h, params, "ro_nn"), graph, states.n_graphs)


def readout_set2set(states: NodeStates, params: dict[str, Tensor],
                    cfg: ModelConfig) -> Tensor:
    """Attention over projected (h_T, h_0) tuples, cfg.set2set_M refinement
    steps.

    Each step advances a query with a gated recurrent cell whose input is
    the previous concat(query, glimpse), attends over the projected tuples
    by dot product, and reads a new glimpse. The final concat runs through
    an output MLP. Every graph has its own query row, attends over its own
    tuples only (``segment_softmax``), and reads its glimpse as a per-graph
    weighted sum; a graph with no tuples reads a zero glimpse.
    Empty graphs need no special case: every op takes zero rows.
    """
    dq = cfg.d
    n_graphs = states.n_graphs
    graph = states.node_graph
    memories = tt.matmul(tt.concat([states.h, states.h0], axis=1),
                         params["s2s_proj"])
    if states.master is not None and cfg.master_in_readout:
        master_tuple = tt.concat([states.master, states.master0], axis=1)
        memories = tt.concat(
            [memories, tt.matmul(master_tuple, params["s2s_master_proj"])], axis=0)
        graph = np.concatenate([graph, np.arange(n_graphs)])
    q = Tensor(np.zeros((n_graphs, dq)))
    q_star = Tensor(np.zeros((n_graphs, 2 * dq)))
    gp = _gru_params(params, "s2s_gru")
    for _ in range(cfg.set2set_M):
        q = tt.gru_cell(q_star, q, gp)
        # one (1 x dq) matrix per memory row against its graph's query
        scores = tt.batched_matvec(memories, tt.gather_rows(q, graph))
        attn = tt.segment_softmax(scores, graph, n_graphs)
        # one (dq x 1) matrix per memory row scaled by its weight
        glimpse = tt.scatter_sum_rows(tt.batched_matvec(memories, attn),
                                      graph, n_graphs)
        q_star = tt.concat([q, glimpse], axis=1)
    return mlp2(q_star, params, "s2s_out")


def apply_readout(states: NodeStates, params: dict[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    if cfg.readout == "ggnn":
        return readout_ggnn(states, params, cfg)
    if cfg.readout == "set2set":
        return readout_set2set(states, params, cfg)
    return readout_dtnn_sum(states, params, cfg)
