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

# Most bytes a union's largest per-step array may take (``union_bytes``).
# Over raw vectors the edge network's largest arrays are per node: its node
# products, d x (d_tower + 1) x 8 bytes per atom (8448 at d=32), and its
# edge blocks padded to the largest degree. Every other message's are the
# gathered rows, d x 8 bytes per directed edge. So one bound in bytes
# sizes a union by what it holds: 139 atoms at d=32 with the edge network
# over raw vectors (the old 1024-edge budget held about 70 atoms of
# complete explicit-H molecules), and 1152 edges for the towers config
# (d=128, k=8). Swept in one process over perfbench's held-out graphs
# (seed 7; eval graphs/s, median of 30 alternating passes per point; the
# passes spread by up to a third, so only large gaps count):
#
#   bound (MiB)         1.0   1.125   1.25    1.5    2.0   1024 edges
#   dense-explicit-h   1906    1903   1889   1993   2157   1532
#   small-edgenet      4440    4938   4777   4242   5079   4826
#   towers-matmul      5315    5604   5620   5572   5174   5374
#
# At 1 MiB small-edgenet's 64-graph eval chunks split into 4 unions, not
# 3, and its eval slowed; 1.125 MiB is about the smallest bound that keeps
# them at 3 and its 20-graph training batches (up to 126 atoms over the
# seeds tried) in one. Larger bounds raise the towers config's eval peak
# (tracemalloc 4.4 MB at 1 MiB, 4.7 at 1.125, 6.7 at 2), while the edge
# network's gains level off.
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


def _sized_by_nodes(cfg: ModelConfig) -> bool:
    # the edge network over raw vectors runs ``tt.edge_message``, whose
    # largest arrays are per node
    return cfg.message_fn == "edge_network" and cfg.edge_repr == "raw_distance"


def union_bytes(cfg: ModelConfig, atoms: int, edges: int, degree: int) -> int:
    """Bytes of the largest array one propagation step makes per channel
    for a union of ``atoms`` nodes and ``edges`` directed edges, no node
    with more than ``degree`` edges in or out.

    The edge network over raw vectors keeps each node's products with its
    r + 1 unit matrices, n x k x (r + 1) x p, and each node's edges in a
    block padded to the largest degree, n x k x D x r; r = p = d_tower.
    Every other message gathers a row per edge, E x k x d_tower: the
    far-end state, or over labels the far node's product with the edge's
    label matrix. Over labels the node products, n x k x L x d_tower for
    the L labels present, are as large as L rows per atom, and the bound
    counts only the edges. On perfbench's towers-matmul unions the edges
    bound both (247 atoms x 3 labels against 1114 edges on a seed-7
    held-out union), but on sparse chemical unions without virtual edges
    they do not: the CLI's default model puts 64 synthetic molecules
    (seed 7) in one union of 348 atoms x 2 labels against 616 edges.
    """
    k, q = cfg.towers_k, cfg.d_tower
    if _sized_by_nodes(cfg):
        return 8 * atoms * k * q * max(q + 1, degree)
    return 8 * edges * k * q


def union_groups(egs: Sequence[EncodedGraph], cfg: ModelConfig) -> list[list[int]]:
    """Positions in ``egs`` of each union's graphs.

    The graphs are taken in order of atom count, ties in input order, and
    cut into runs whose ``union_bytes`` stays within ``UNION_BYTES``; a
    graph over the bound on its own is a run of its own. So each union
    holds graphs of about one size, and the edge network pads few block
    rows. The groups depend on nothing but the graphs and the config.
    """
    groups: list[list[int]] = []
    n = m = top = 0
    for i in sorted(range(len(egs)), key=lambda i: egs[i].n_atoms):
        eg = egs[i]
        degree = (max(np.bincount(eg.edge_src).max(), np.bincount(eg.edge_dst).max())
                  if eg.n_edges and _sized_by_nodes(cfg) else 0)
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
