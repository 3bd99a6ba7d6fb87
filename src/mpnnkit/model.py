"""End-to-end model: encoding, propagation, readout."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as tt
from .engine import ModelConfig, propagate
from .molgraph import EncodedGraph, MolecularGraph, disjoint_union, encode
from .readout import apply_readout
from .tensor import ContractError, Tensor

__all__ = ["UNION_BYTES", "prepare_graph", "model_forward", "union_bytes",
           "predict_batch", "union_groups"]

# Most bytes a union's largest array may take (``union_bytes``). Over raw
# vectors the edge network's is each channel's edge blocks, padded to the
# union's largest degree: d x 8 bytes per atom and degree (256 at d=32),
# laid out once per forward and read by every step. Every other message's
# are its gathered rows, d x 8 bytes per directed edge, at least one row per
# atom. The node products of one ``tt.edge_message`` call, over raw vectors
# (d x (d_tower + 1) x 8 bytes per atom, 8448 at d=32) or over labels (one
# row per atom and label present), are written and read once inside the call
# and freed when it returns, so they are not counted, even where they are
# the larger: 348 atoms x 2 labels against 616 edges in a 64-molecule union
# of the CLI's default model (seed 7). One bound in bytes then sizes a union
# by what it holds: 4608 atom-degree cells at d=32 with the edge network
# over raw vectors (a whole 64-graph eval chunk of small-edgenet; 49 to 349
# atoms of complete explicit-H molecules) and 1152 edges for the towers
# config (d=128, k=8). Swept in one process over perfbench's held-out graphs
# (seed 7; eval graphs/s, median of 30 passes per point, the bounds
# alternating pass by pass, with unions per eval pass and the tracemalloc
# peak of the largest eval chunk in MB; the passes spread by up to a third,
# so only large gaps count):
#
#   bound (MiB)                 0.5   0.75    1.0  1.125    1.5    2.0
#   dense-explicit-h  graphs/s 1544   1640   1683   1662   1735   1721
#                     unions     14     10      8      8      6      6
#                     peak      4.2    5.6    7.0    8.3   10.9   12.9
#   small-edgenet     graphs/s 5383   6015   6101   5541   5695   5887
#                     unions      4      2      2      2      2      2
#                     peak      5.0    6.9    6.9    6.9    6.9    6.9
#   towers-matmul     graphs/s 4293   4982   4842   5285   5147   5118
#                     unions     10      6      6      4      4      4
#                     peak      2.1    2.8    3.5    3.7    4.7    5.9
#
# 1.125 MiB is the smallest bound tried that keeps the towers config's
# 64-graph chunks in 2 unions; small-edgenet's are one union from 0.75 MiB.
# Above it only dense-explicit-h cuts fewer unions, with no clear gain, and
# its eval peak would pass its train step's (about 9 MB) at 1.5 MiB. The edge
# blocks now hold d_tower + 1 units per tower, the last a unit 1 that weighs
# the bias; the count keeps d_tower, by which the bound and the sweep were set.
UNION_BYTES = 9 * 2**17


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


def _sized_by_blocks(cfg: ModelConfig) -> bool:
    # the edge network over raw vectors lays each channel's hidden rows out
    # in per-node blocks padded to the largest degree (``tt.segment_blocks``)
    return cfg.message_fn == "edge_network" and cfg.edge_repr == "raw_distance"


def union_bytes(cfg: ModelConfig, atoms: int, edges: int, degree: int) -> int:
    """Bytes of the largest array a union of ``atoms`` nodes and ``edges``
    directed edges, no node with more than ``degree`` edges in or out, holds
    through its propagation steps, per channel.

    The edge network over raw vectors lays each node's edges out in a block
    padded to the largest degree, n x max(D, 1) x k x d_tower, once per
    forward, and every step reads the blocks. (The blocks hold d_tower + 1
    units, the last a unit 1 that weighs the bias; the count keeps d_tower,
    by which ``UNION_BYTES`` was chosen.) Every other message gathers a
    row per edge, max(E, n) x k x d_tower: the far-end state, or over labels
    the far node's product with the edge's label matrix. Both count at least
    one row per atom, so a union of edgeless graphs stays bounded too.

    ``tt.edge_message``'s node products are not counted: over raw vectors
    each node's products with the r + 1 matrices of the last layer, n x k x
    (r + 1) x d_tower, and over labels each node's products with the L label
    matrices present, n x L x k x d_tower. Both are written and read once
    inside one call and freed when it returns. They can be the larger
    array: the CLI's default model (labels) puts 64 synthetic molecules
    (seed 7) in one union of 348 atoms x 2 labels against 616 edges.
    """
    k, q = cfg.towers_k, cfg.d_tower
    if _sized_by_blocks(cfg):
        return 8 * atoms * max(degree, 1) * k * q
    return 8 * max(edges, atoms) * k * q


def union_groups(egs: Sequence[EncodedGraph], cfg: ModelConfig) -> list[list[int]]:
    """Positions in ``egs`` of each union's graphs.

    The graphs are taken in order of atom count, ties in input order, and
    cut into runs whose ``union_bytes`` stays within ``UNION_BYTES``; a
    graph over the bound on its own is a run of its own. So each union
    holds graphs of about one size: over raw vectors the edge network's
    blocks, padded to the union's largest degree, hold few zero rows, and
    its unions grow until those blocks fill the bound. The groups depend
    on nothing but the graphs and the config.
    """
    groups: list[list[int]] = []
    n = m = top = 0
    for i in sorted(range(len(egs)), key=lambda i: egs[i].n_atoms):
        eg = egs[i]
        degree = eg.max_degree if _sized_by_blocks(cfg) else 0
        n, m, top = n + eg.n_atoms, m + eg.n_edges, max(top, degree)
        if not groups or union_bytes(cfg, n, m, top) > UNION_BYTES:
            groups.append([])
            n, m, top = eg.n_atoms, eg.n_edges, degree
        groups[-1].append(i)
    return groups


def predict_batch(egs: Sequence[EncodedGraph], params: dict[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    """Row i is the output for egs[i], as a (batch, n_targets) tensor.

    The graphs propagate and read out as disjoint unions, one per group of
    ``union_groups``, so the op count per batch does not grow with the
    number of graphs. The unions' rows come in atom-count order, and one
    ``tt.gather_rows`` puts them back in input order unless they already
    are.
    """
    groups = union_groups(egs, cfg)
    rows = [apply_readout(propagate(disjoint_union([egs[i] for i in group]),
                                    params, cfg), params, cfg)
            for group in groups]
    if not rows:
        return Tensor(np.zeros((0, cfg.n_targets)))
    out = rows[0] if len(rows) == 1 else tt.concat(rows, axis=0)
    order = np.concatenate(groups)
    if np.array_equal(order, np.arange(order.size)):
        return out
    # row i of the result is row argsort(order)[i], egs[i]'s place in order
    return tt.gather_rows(out, tt.segments(np.argsort(order), order.size))
