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

# Most directed edges one union may hold. The edge network materialises a
# d x d matrix per undirected pair and channel: one union of 64 explicit-H
# molecules (about 12.8k edges) evaluated at 0.6x the speed of one graph at
# a time and took 2.5x the peak memory. Measured from 256 to 4096 at d=32,
# when the matrices were still built per directed edge, eval was fastest at
# 512-1024; below 1024 a training batch of six explicit-H molecules splits
# into more unions and trains slower. A full union now keeps each per-pair
# array at 4 MB. The budget was not retuned for the smaller arrays: that is
# its own measured change.
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
