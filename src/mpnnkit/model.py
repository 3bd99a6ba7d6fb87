"""End-to-end model: encoding, propagation, readout."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as tt
from .engine import ModelConfig, propagate
from .molgraph import EncodedGraph, MolecularGraph, disjoint_union, encode
from .readout import apply_readout
from .tensor import ContractError, Tensor

__all__ = ["UNION_EDGE_BUDGET", "prepare_graph", "model_forward",
           "predict_batch", "union_groups"]

# Most directed edges one union may hold. No message builds a matrix per
# edge or pair any more, so a union's largest arrays are per edge, E x k x
# a few d_tower (the edge network's hidden rows, the other messages'
# gathered rows), or per node: the edge network over raw distances keeps,
# per channel and step, each node's products with its d_tower + 1 unit
# matrices, n x (d_tower + 1) x d, and the zero-padded blocks of each
# node's edges, n x k x (largest degree) x (d_tower + 1). The budget bounds
# the first directly and the second through the node count: at d=32 a
# 1024-edge union of 181 implicit-H atoms keeps 1.5 MB of node products
# per step. Measured from 256 to 4096 at d=32, when the edge network still
# built a matrix per directed edge, eval was fastest at 512-1024; below
# 1024 a training batch of six explicit-H molecules splits into more unions
# and trains slower. The budget was not retuned since: that is its own
# measured change, and it moves prediction bits.
UNION_EDGE_BUDGET = 1024


def prepare_graph(g: MolecularGraph, cfg: ModelConfig) -> EncodedGraph:
    """Encode the molecule as the model config asks."""
    if g.explicit_hydrogens != cfg.explicit_hydrogens:
        raise ContractError(
            "graph hydrogen convention does not match the model config")
    return encode(g, cfg.edge_repr, cfg.include_partial_charge,
                  cfg.virtual_edges)


def model_forward(eg: EncodedGraph, params: dict[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    """One graph in, one output vector of width n_targets out.

    The same propagation and readouts as ``predict_batch``; a lone graph is
    a union of one, whose single output row is returned flat.
    """
    out = apply_readout(propagate(eg, params, cfg), params, cfg)
    return tt.reshape(out, (cfg.n_targets,))


def union_groups(egs: Sequence[EncodedGraph]) -> list[list[EncodedGraph]]:
    """Consecutive runs of graphs with at most ``UNION_EDGE_BUDGET``
    directed edges each; a graph with more edges is a run of its own."""
    groups: list[list[EncodedGraph]] = []
    edges = 0
    for eg in egs:
        if not groups or edges + eg.n_edges > UNION_EDGE_BUDGET:
            groups.append([])
            edges = 0
        groups[-1].append(eg)
        edges += eg.n_edges
    return groups


def predict_batch(egs: Sequence[EncodedGraph], params: dict[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    """Row i is the output for egs[i], as a (batch, n_targets) tensor.

    The graphs propagate and read out as disjoint unions, one per group of
    ``union_groups``, so the op count per batch does not grow with the
    number of graphs.
    """
    rows = [apply_readout(propagate(disjoint_union(group), params, cfg),
                          params, cfg)
            for group in union_groups(egs)]
    if not rows:
        return Tensor(np.zeros((0, cfg.n_targets)))
    return rows[0] if len(rows) == 1 else tt.concat(rows, axis=0)
