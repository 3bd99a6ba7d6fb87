"""Message passing over encoded molecular graphs.

One propagation step sends a message along every directed edge, sums the
arrivals per node and channel, and feeds the concatenated channels through
a gated update, the same weights at every step. Channels: for a node v,
the *in* channel collects messages computed from the states at the far end
of edges arriving at v, the *out* channel collects messages computed from
the far end of edges leaving v. Both orientations of each undirected edge
exist, so the update input has width 2d.

There is one path: node states are (n, k, d/k) row stacks through every
step, k the towers count, and each message function has a single
implementation over the whole edge list that gathers far-end rows,
computes one message per edge and scatter-sums the messages onto their
receiving nodes. A graph with no edges takes the same path: its zero
message rows sum to zeros.

Towers split the node state into k slices of width d/k, run an independent
message/update pair per slice, and remix the slices through a shared affine
map of the (n, d) state after every step. The tower index is an array axis,
not a loop: every message and GRU weight is one stacked parameter with the
towers first, such as (k, d/k, d/k) per matmul label, and
``tt.tower_matmul`` multiplies all towers in one call. So a step runs one
gather, product and scatter per edge label (or one pair product) per
channel and one GRU, whatever k is; k = 1 is a tower axis of size 1.

Edge-only work runs once per forward, per message function (``_senders``):
the matmul label groups, the tower-tiled edge vectors, DTNN's edge term and
the edge network's matrices never change across the steps. The edge network
builds one d_tower x d_tower matrix per channel, tower and undirected pair,
as both orientations of a pair carry the same features; one
``tt.pair_matvec`` gives both directions' messages. Backward, each step's
``pair_matvec`` hands the matrices' gradient back as factors, and
``tt.backward`` sums the T steps' factors in one matmul per channel before
the edge network's last ``tt.affine`` (product and bias in one taped op)
takes it.

The master node (the paper's latent node joined to every atom by a special
edge type) lives only here, as one state row of width ``cfg.d_master`` per
graph. It sends every atom of its graph a message through dedicated linear
maps, takes in a per-graph sum of their states, and keeps its own update;
it never routes through the per-edge message functions (its width may
differ from d).

A batch of molecules propagates as one graph, their disjoint union
(``molgraph.disjoint_union``): every per-node and per-edge operation acts
row by row, and per-graph sums run over the node-to-graph index, which a
lone graph gets as all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as tt
from .molgraph import EncodedGraph, edge_alphabet_size, edge_feature_width
from .tensor import ContractError, GruParams, Tensor

__all__ = [
    "MESSAGE_FNS",
    "UPDATE_FNS",
    "READOUTS",
    "ModelConfig",
    "NodeStates",
    "init_params",
    "propagate",
    "edge_vectors",
    "pad_features",
    "affine",
    "mlp2",
]

MESSAGE_FNS = ("matmul", "edge_network", "pair_message", "dtnn")
UPDATE_FNS = ("gru", "dtnn_residual")
READOUTS = ("ggnn", "set2set", "dtnn_sum")
CHANNELS = ("in", "out")


@dataclass(frozen=True)
class ModelConfig:
    message_fn: str
    update_fn: str = "gru"
    readout: str = "ggnn"
    T: int = 3
    d: int = 16
    towers_k: int = 1
    d_master: int = 0
    set2set_M: int = 3
    edge_repr: str = "chemical"
    explicit_hydrogens: bool = False
    virtual_edges: bool = False
    include_partial_charge: bool = False
    n_targets: int = 13
    master_in_readout: bool = True

    def __post_init__(self):
        if self.message_fn not in MESSAGE_FNS:
            raise ContractError(f"unknown message function {self.message_fn!r}")
        if self.update_fn not in UPDATE_FNS:
            raise ContractError(f"unknown update function {self.update_fn!r}")
        if self.readout not in READOUTS:
            raise ContractError(f"unknown readout {self.readout!r}")
        if self.T < 1:
            raise ContractError("T must be at least 1")
        if self.d < 1:
            raise ContractError("node dim must be positive")
        if self.towers_k < 1 or self.d % self.towers_k != 0:
            raise ContractError(
                f"towers count {self.towers_k} must divide node dim {self.d}")
        if self.d_master < 0:
            raise ContractError("master width must be nonnegative")
        if self.d_master and self.towers_k > 1:
            raise ContractError("master node does not combine with towers")
        if (self.d_master not in (0, self.d) and self.master_in_readout
                and self.readout != "set2set"):
            raise ContractError(
                f"the {self.readout} readout sums width-{self.d} rows and cannot "
                f"take a width-{self.d_master} master; turn master_in_readout off")
        if self.set2set_M < 1:
            raise ContractError("set2set needs at least one processing step")
        if self.message_fn == "matmul" and self.edge_repr == "raw_distance":
            raise ContractError(
                "matmul message needs discrete edge labels, not raw distances")
        if self.edge_repr not in ("chemical", "distance_bins", "raw_distance"):
            raise ContractError(f"unknown edge representation {self.edge_repr!r}")

    @property
    def d_tower(self) -> int:
        return self.d // self.towers_k

    @property
    def edge_width(self) -> int:
        return edge_feature_width(self.edge_repr, self.virtual_edges)

    @property
    def alphabet(self) -> Optional[int]:
        if self.edge_repr == "raw_distance":
            return None
        return edge_alphabet_size(self.edge_repr, self.virtual_edges)


@dataclass
class NodeStates:
    """Per-node states after propagation, plus what the readouts need."""

    h: Tensor               # (n, d) final states
    h0: Tensor              # (n, d) padded input features
    node_graph: np.ndarray  # (n,) graph of every node row, in [0, n_graphs)
    n_graphs: int = 1
    master: Optional[Tensor] = None    # (n_graphs, d_master) final master states
    master0: Optional[Tensor] = None   # (n_graphs, d_master) learned initial state


# ---------------------------------------------------------------------------
# Parameter creation
# ---------------------------------------------------------------------------


def _gru_shapes(d_in: int, d: int, towers: tuple = ()) -> list[tuple[str, tuple]]:
    return [("wz", towers + (d_in, d)), ("uz", towers + (d, d)),
            ("wr", towers + (d_in, d)), ("ur", towers + (d, d)),
            ("wh", towers + (d_in, d)), ("uh", towers + (d, d))]


def _message_shapes(cfg: ModelConfig, prefix: str) -> list[tuple[str, tuple]]:
    """One stacked parameter per weight, its first axis the k towers."""
    k = cfg.towers_k
    dt = cfg.d_tower
    ew = cfg.edge_width
    if cfg.message_fn == "matmul":
        return [(f"{prefix}_A{l}", (k, dt, dt)) for l in range(cfg.alphabet)]
    if cfg.message_fn == "edge_network":
        return [(f"{prefix}_en_w1", (k, ew, dt)), (f"{prefix}_en_b1", (k, dt)),
                (f"{prefix}_en_w2", (k, dt, dt * dt)), (f"{prefix}_en_b2", (k, dt * dt))]
    if cfg.message_fn == "pair_message":
        hidden = 2 * dt
        return [(f"{prefix}_pm_w1", (k, 2 * dt + ew, hidden)), (f"{prefix}_pm_b1", (k, hidden)),
                (f"{prefix}_pm_w2", (k, hidden, dt)), (f"{prefix}_pm_b2", (k, dt))]
    hidden = dt
    return [(f"{prefix}_dtnn_wcf", (k, dt, hidden)), (f"{prefix}_dtnn_b1", (k, hidden)),
            (f"{prefix}_dtnn_wdf", (k, ew, hidden)), (f"{prefix}_dtnn_b2", (k, hidden)),
            (f"{prefix}_dtnn_wfc", (k, hidden, dt))]


def _mlp2_shapes(prefix: str, d_in: int, hidden: int, d_out: int) -> list[tuple[str, tuple]]:
    return [(f"{prefix}_w1", (d_in, hidden)), (f"{prefix}_b1", (hidden,)),
            (f"{prefix}_w2", (hidden, d_out)), (f"{prefix}_b2", (d_out,))]


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple]]:
    """Every parameter name and shape, in the fixed creation order."""
    shapes: list[tuple[str, tuple]] = []
    for ch in CHANNELS:
        shapes += _message_shapes(cfg, f"msg_{ch}")
    if cfg.update_fn == "gru":
        dt = cfg.d_tower
        shapes += [(f"gru_{n}", s)
                   for n, s in _gru_shapes(2 * dt, dt, (cfg.towers_k,))]
    if cfg.towers_k > 1:
        shapes += [("mix_w", (cfg.d, cfg.d)), ("mix_b", (cfg.d,))]
    if cfg.d_master:
        dm = cfg.d_master
        shapes.append(("master_h0", (dm,)))
        for ch in CHANNELS:
            shapes += [(f"n2m_{ch}", (cfg.d, dm)), (f"m2n_{ch}", (dm, cfg.d))]
        if cfg.update_fn == "gru":
            shapes += [(f"master_gru_{n}", s) for n, s in _gru_shapes(2 * dm, dm)]
    out = cfg.n_targets
    if cfg.readout == "ggnn":
        shapes += _mlp2_shapes("ro_i", 2 * cfg.d, cfg.d, out)
        shapes += _mlp2_shapes("ro_j", cfg.d, cfg.d, out)
    elif cfg.readout == "dtnn_sum":
        shapes += _mlp2_shapes("ro_nn", cfg.d, cfg.d, out)
    else:
        dq = cfg.d
        shapes.append(("s2s_proj", (2 * cfg.d, dq)))
        shapes += [(f"s2s_gru_{n}", s) for n, s in _gru_shapes(2 * dq, dq)]
        shapes += _mlp2_shapes("s2s_out", 2 * dq, cfg.d, out)
        if cfg.d_master and cfg.master_in_readout:
            shapes.append(("s2s_master_proj", (2 * cfg.d_master, dq)))
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Weights uniform in +-1/sqrt(fan_in), biases zero, deterministic order.

    A weight's fan-in is its second-to-last axis: a tower stack (k, q, p)
    draws like k matrices (q, p). The master's initial state (dm,) uses dm.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(("_b1", "_b2", "mix_b")):
            data = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-2] if len(shape) > 1 else shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# Small composites
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias broadcast over rows; a tower stack ``w``
    (k, q, p) maps (n, k, q) rows tower by tower, with a (k, p) bias."""
    return tt.affine(x, w, b)


def mlp2(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Single-hidden-layer MLP: affine, relu, affine."""
    h = tt.relu(affine(x, params[f"{prefix}_w1"], params[f"{prefix}_b1"]))
    return affine(h, params[f"{prefix}_w2"], params[f"{prefix}_b2"])


def pad_features(features: np.ndarray, d: int) -> Tensor:
    """Input features zero-padded on the right up to the model width."""
    n, d_in = features.shape
    if d_in > d:
        raise ContractError(f"feature width {d_in} exceeds node dim {d}")
    out = np.zeros((n, d))
    out[:, :d_in] = features
    return Tensor(out)


def _check_edge_labels(eg: EncodedGraph, cfg: ModelConfig) -> None:
    """Discrete edge labels must index the configured alphabet: they pick a
    matrix of the matmul bank and a column of the one-hot edge vectors."""
    if eg.representation == "raw_distance":
        return
    labels = eg.edge_features
    bad = labels[(labels < 0) | (labels >= cfg.edge_width)]
    if bad.size:
        raise ContractError(
            f"edge label {int(bad[0])} outside alphabet of size {cfg.edge_width}")


def edge_vectors(eg: EncodedGraph, cfg: ModelConfig) -> Tensor:
    """Continuous per-edge vectors: raw 5-vectors, or one-hot labels."""
    if eg.representation == "raw_distance":
        return Tensor(eg.edge_features)
    labels = eg.edge_features
    out = np.zeros((labels.shape[0], cfg.edge_width))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return Tensor(out)


def _edge_pairs(eg: EncodedGraph, evec: np.ndarray) -> tuple[np.ndarray, ...]:
    """(pair, side, rep): the undirected pair of every directed edge, its
    side (0 from the lower node to the higher, 1 back), and one edge of
    every pair.

    A pair whose other side is empty holds a one-way edge. A repeated
    directed edge, or an edge whose reverse has another row of ``evec``
    (the edge vectors), raises ContractError: neither fits one matrix per
    pair.
    """
    src, dst = eg.edge_src, eg.edge_dst
    side = (src > dst).astype(np.intp)
    key = np.minimum(src, dst).astype(np.intp) * eg.n_atoms + np.maximum(src, dst)
    _, rep, pair = np.unique(key, return_index=True, return_inverse=True)
    edge = np.full((rep.size, 2), -1, dtype=np.intp)
    edge[pair, side] = np.arange(eg.n_edges)
    # a repeated edge overwrites its twin's entry
    repeated = np.flatnonzero(edge[pair, side] != np.arange(eg.n_edges))
    if repeated.size:
        e = repeated[0]
        raise ContractError(f"directed edge {src[e]} -> {dst[e]} appears more than once")
    a, b = edge[(edge >= 0).all(axis=1)].T
    differ = np.flatnonzero((evec[a] != evec[b]).any(axis=1))
    if differ.size:
        e = a[differ[0]]
        raise ContractError(
            f"edge {src[e]} -> {dst[e]} and its reverse have different features")
    return pair, side, rep


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _senders(eg: EncodedGraph, params: dict[str, Tensor],
             cfg: ModelConfig) -> dict[str, Callable[[Tensor], Tensor]]:
    """Per channel, a function from the (n, k, d_tower) states to the sum of
    that channel's messages at every node, all towers at once. Edge-only
    work runs here, once per forward; the returned functions do only what
    depends on the states. ``far`` indexes the state each message is
    computed from, ``near`` the node it is delivered to.
    """
    n = eg.n_atoms
    if cfg.message_fn == "matmul":
        labels = eg.edge_features
        sels = [(int(label), np.flatnonzero(labels == label))
                for label in np.unique(labels)]
    else:
        vecs = edge_vectors(eg, cfg).data
        evec = Tensor(np.broadcast_to(vecs[:, None, :],
                                      (eg.n_edges, cfg.towers_k, vecs.shape[1])))
    if cfg.message_fn == "edge_network":
        pair, side, rep = _edge_pairs(eg, vecs)
        pair_vecs = Tensor(evec.data[rep])

    def matmul(far, near, prefix):
        groups = [(params[f"{prefix}_A{label}"], far[sel], near[sel])
                  for label, sel in sels]

        def send(h):
            total = None if groups else Tensor(np.zeros(h.data.shape))
            for a, far_sel, near_sel in groups:
                part = tt.scatter_sum_rows(
                    tt.tower_matmul(tt.gather_rows(h, far_sel), a), near_sel, n)
                total = part if total is None else tt.add(total, part)
            return total
        return send

    def edge_network(far, near, prefix):
        # one matrix per undirected pair, which both orientations multiply
        mats = mlp2(pair_vecs, params, f"{prefix}_en")
        return lambda h: tt.scatter_sum_rows(
            tt.pair_matvec(mats, tt.gather_rows(h, far), pair, side), near, n)

    def pair_message(far, near, prefix):
        return lambda h: tt.scatter_sum_rows(mlp2(tt.concat(
            [tt.gather_rows(h, far), tt.gather_rows(h, near), evec], axis=2),
            params, f"{prefix}_pm"), near, n)

    def dtnn(far, near, prefix):
        eterm = affine(evec, params[f"{prefix}_dtnn_wdf"], params[f"{prefix}_dtnn_b2"])

        def send(h):
            hterm = affine(tt.gather_rows(h, far), params[f"{prefix}_dtnn_wcf"],
                           params[f"{prefix}_dtnn_b1"])
            return tt.scatter_sum_rows(tt.tanh(tt.tower_matmul(
                tt.mul(hterm, eterm), params[f"{prefix}_dtnn_wfc"])), near, n)
        return send

    build = {"matmul": matmul, "edge_network": edge_network,
             "pair_message": pair_message, "dtnn": dtnn}[cfg.message_fn]
    ends = {"in": (eg.edge_src, eg.edge_dst), "out": (eg.edge_dst, eg.edge_src)}
    return {ch: build(*ends[ch], f"msg_{ch}") for ch in CHANNELS}


def _gru_params(params: dict[str, Tensor], prefix: str) -> GruParams:
    return GruParams(wz=params[f"{prefix}_wz"], uz=params[f"{prefix}_uz"],
                     wr=params[f"{prefix}_wr"], ur=params[f"{prefix}_ur"],
                     wh=params[f"{prefix}_wh"], uh=params[f"{prefix}_uh"])


def propagate(eg: EncodedGraph, params: dict[str, Tensor], cfg: ModelConfig) -> NodeStates:
    """Run cfg.T message passing steps and return final node states.

    ``eg`` is one molecule or a disjoint union of several; the states carry
    the node-to-graph index for the readouts (all zeros for one molecule).
    To count multiplies, call it inside ``tt.count_multiplies``;
    ``checks.bench_towers`` isolates the message phase that way.
    """
    def _update(msgs, h, prefix):
        # one update rule for atom states (all towers) and master rows
        if cfg.update_fn == "gru":
            return tt.gru_cell(tt.concat(msgs, axis=-1), h,
                               _gru_params(params, prefix))
        return tt.add(h, tt.add(*msgs))

    _check_edge_labels(eg, cfg)
    n = eg.n_atoms
    k = cfg.towers_k
    h0 = pad_features(eg.node_features, cfg.d)
    # States are (n, k, d_tower) through every step: tower t holds columns
    # t*d_tower to (t+1)*d_tower of the (n, d) state.
    towered = (n, k, cfg.d_tower)
    h = Tensor(h0.data.reshape(towered))
    senders = _senders(eg, params, cfg)

    n_graphs = eg.n_graphs
    graph = np.zeros(n, dtype=np.intp) if eg.node_graph is None else eg.node_graph
    master = None
    master0 = None
    if cfg.d_master:
        master0 = tt.add_bias(Tensor(np.zeros((n_graphs, cfg.d_master))),
                              params["master_h0"])
        master = master0

    for _ in range(cfg.T):
        msgs = [senders[ch](h) for ch in CHANNELS]
        if cfg.d_master:
            # towers reject a master, so k = 1 and a (n_graphs, d) row
            # block is one tower
            msgs = [tt.add(m, tt.gather_rows(tt.reshape(
                tt.matmul(master, params[f"m2n_{ch}"]), (n_graphs, 1, cfg.d)), graph))
                for m, ch in zip(msgs, CHANNELS)]
        h_new = _update(msgs, h, "gru")
        if cfg.d_master:
            h_sum = tt.reshape(tt.scatter_sum_rows(h, graph, n_graphs),
                               (n_graphs, cfg.d))
            master = _update([tt.matmul(h_sum, params[f"n2m_{ch}"]) for ch in CHANNELS],
                             master, "master_gru")
        h = h_new
        if k > 1:
            h = tt.reshape(affine(tt.reshape(h, (n, cfg.d)), params["mix_w"],
                                  params["mix_b"]), towered)
    return NodeStates(h=tt.reshape(h, (n, cfg.d)), h0=h0, node_graph=graph,
                      n_graphs=n_graphs, master=master, master0=master0)
