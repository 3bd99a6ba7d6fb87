"""End-to-end model: encoding, propagation, readout."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as tt
from .engine import Layout, ModelConfig, layout, propagate
from .molgraph import EncodedGraph, MolecularGraph, encode
from .readout import apply_readout
from .tensor import ContractError, Tensor

__all__ = ["UNION_BYTES", "KEPT_BYTES", "prepare_graph", "model_forward", "union_bytes",
           "predict_batch", "union_groups"]

# Most bytes a union's largest array may take (``union_bytes``). Over raw
# vectors the edge network's is each channel's edge blocks, padded to the
# union's largest degree: d x 8 bytes per atom and degree (256 at d=32),
# laid out once per forward and read by every step. Every other message's
# are its gathered rows, d x 8 bytes per directed edge, at least one row per
# atom. The node products that one message op's call makes and frees are
# not counted; ``union_bytes``' docstring says which and why. One bound in
# bytes then sizes a union by what it holds: 4608 atom-degree cells at d=32
# with the edge network over raw vectors (a whole 64-graph eval chunk of
# small-edgenet; 49 to 349 atoms of complete explicit-H molecules) and 1152
# edges for the towers config (d=128, k=8). Swept in one process over
# perfbench's held-out graphs (seed 7; eval graphs/s, median of 30 passes
# per point, the bounds alternating pass by pass, with unions per eval pass
# and the tracemalloc peak of the largest eval chunk in MB; the passes
# spread by up to a third, so only large gaps count):
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

# Most bytes the packings ``predict_batch`` keeps may hold together: their
# layouts and order plans, not the graphs given, which their callers hold.
# A packing over the bound alone is not kept, and the least recently used
# ones leave first to make room. A packing holds 2.3 to 3.5 times its
# graphs' own arrays. The bound keeps a 10k-molecule split (the paper's
# validation size; synthetic, seed 3) of chemical graphs: 16 MiB under the
# CLI's default model, 30 MiB under the towers config with virtual edges
# (d=128, k=8), whose packings took 12-16% and 8-9% of a fresh
# evaluation. It does not keep one of complete explicit-H graphs over raw
# distances: about 238 MiB (47.5 MiB for 2000 of them, packed in 7-10% of
# their evaluation).
KEPT_BYTES = 64 * 2**20


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

    The same propagation and readouts as ``predict_batch``: the graph is
    laid out as a batch of one, whose single output row is returned flat.
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
    padded to the largest degree, n x max(D, 1) x k x d_tower per channel,
    once per forward, and every step reads the blocks. (The blocks hold
    d_tower + 1 units, the last a unit 1 that weighs the bias; the count
    keeps d_tower, by which ``UNION_BYTES`` was chosen.) Every other
    message gathers a row per edge, max(E, n) x k x d_tower: the far-end
    state, or over labels the far node's product with the edge's label
    matrix. Both count at least one row per atom, so a union of edgeless
    graphs stays bounded too.

    The message ops' node products are not counted: ``tt.edge_message``'s
    over raw vectors, n x k x (r + 1) x d_tower per channel, one channel at
    a time (8448 bytes per atom at d = 32), and ``tt.label_message``'s over
    labels, n x L x k x 2 d_tower for the L labels present, both channels'
    side by side, each laid out as its op's docstring says. Both are
    written and read once inside one call and freed when it returns;
    ``tt.label_message`` makes its products and messages for a group of
    towers at a time, at most ``tt.LABEL_GROUP_BYTES`` at once. They can
    be the larger array, and are still not counted: the CLI's default model
    (labels) puts 64 synthetic molecules (seed 7) in one union of 348 atoms
    x 2 labels against 616 edges.
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


@dataclass(frozen=True, eq=False)
class _Packing:
    """A batch's unions, each laid out, and the plan that puts their rows
    back in input order (None when they already are); ``graphs`` holds the
    batch, so no graph of a kept packing's key dies and leaves its id to
    another."""

    graphs: tuple[EncodedGraph, ...]
    layouts: tuple[Layout, ...]
    order: Optional[tt.Segments]

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays the layouts and the order plan hold
        (a view counts its base once), the batch's own graphs not counted."""
        seen, total, todo = set(), 0, [self.layouts, self.order]
        while todo:
            obj = todo.pop()
            while isinstance(obj, np.ndarray) and isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                todo.append(obj.data)
            elif isinstance(obj, np.ndarray):
                total += obj.nbytes
            elif isinstance(obj, tuple):
                todo.extend(obj)
            elif hasattr(obj, "__dict__"):
                todo.extend(vars(obj).values())
        return total


def _pack(egs: Sequence[EncodedGraph], cfg: ModelConfig) -> _Packing:
    groups = union_groups(egs, cfg)
    layouts = tuple(layout([egs[i] for i in group], cfg) for group in groups)
    order = np.concatenate(groups)
    # row i of the result is row argsort(order)[i], egs[i]'s place in order
    plan = (None if np.array_equal(order, np.arange(order.size))
            else tt.segments(np.argsort(order), order.size))
    return _Packing(tuple(egs), layouts, plan)


_kept: OrderedDict[tuple, tuple[_Packing, int]] = OrderedDict()
_kept_lock = threading.Lock()


def _packing(egs: Sequence[EncodedGraph], cfg: ModelConfig) -> _Packing:
    """The batch's packing: a kept one if the same graphs, in the same
    order, were packed under the same config, else a new one, kept when
    nothing is taped and it fits ``KEPT_BYTES``."""
    key = (cfg, tuple(map(id, egs)))
    with _kept_lock:
        kept = _kept.get(key)
        if kept is not None:
            _kept.move_to_end(key)
            return kept[0]
    packing = _pack(egs, cfg)
    if not tt.grad_enabled():
        size = packing.nbytes
        if size <= KEPT_BYTES:
            with _kept_lock:
                _kept[key] = (packing, size)
                while sum(b for _, b in _kept.values()) > KEPT_BYTES:
                    _kept.popitem(last=False)
    return packing


def _forget(egs: Sequence[EncodedGraph], cfg: ModelConfig) -> None:
    """Drop the batch's kept packing, if there is one: its caller will not
    evaluate the same graphs again, so no later call could read it."""
    with _kept_lock:
        _kept.pop((cfg, tuple(map(id, egs))), None)


def predict_batch(egs: Sequence[EncodedGraph], params: dict[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    """Row i is the output for egs[i], as a (batch, n_targets) tensor.

    Each group of ``union_groups`` propagates and reads out as one graph,
    its members' ``engine.layout``, so the op count per batch does not grow
    with the number of graphs. The unions' rows come in atom-count order,
    and one ``tt.gather_rows`` puts them back in input order unless they
    already are.

    The packing, every union's layout and the order plan, depends only on
    the graphs and the config. An untaped call keeps it, keyed by the
    config and the identity of the graphs in order, so a repeated
    evaluation of the same graphs (a validation split, the same eval
    chunk) builds no layout or plan and runs no check of them: it runs only
    the weights. The graphs' arrays are read-only, so identity stands
    for content. A taped call reads kept packings but keeps none, since
    training batches are drawn at random. The kept packings hold at most
    ``KEPT_BYTES``, the least recently used leaving first; nothing kept
    depends on the weights.
    """
    if not egs:
        return Tensor(np.zeros((0, cfg.n_targets)))
    packing = _packing(egs, cfg)
    rows = [apply_readout(propagate(lay, params, cfg), params, cfg)
            for lay in packing.layouts]
    out = rows[0] if len(rows) == 1 else tt.concat(rows, axis=0)
    return out if packing.order is None else tt.gather_rows(out, packing.order)
