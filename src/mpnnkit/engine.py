"""Message passing over encoded molecular graphs.

One propagation step sends a message along every directed edge, sums the
arrivals per node and channel, and feeds the two channels, side by side,
through a gated update, the same weights at every step. Channels: for a
node v, the *in* channel collects messages computed from the states at the
far end of edges arriving at v, the *out* channel collects messages
computed from the far end of edges leaving v, so the update input has
width 2d. ``molgraph.EncodedGraph`` holds each undirected pair once, and
``layout`` is the one place that turns the pairs into directed edges:
each pair both ways, with its features on both. So each edge leaving v
has a reverse arriving at v from the same far node with the same
features, and v's out channel is the sum, over the edges arriving at v,
of their messages under the out weights: both channels read the same
edges, from their sources to their destinations.

There is one path: node states are (n, k, d/k) row stacks through every
step, k the towers count, and each message function has a single
implementation over the whole edge list that gathers far-end rows,
computes both channels' messages per edge and sums them onto their
receiving nodes. A graph with no edges takes the same path: its zero
message rows sum to zeros.

Towers split the node state into k slices of width d/k, run an independent
message/update pair per slice, and remix the slices through a shared affine
map of the (n, d) state after every step. The tower index is an array axis,
not a loop: every message and GRU weight is one stacked parameter with the
towers first, such as (k, d/k, d/k) per matmul label, and ``tt.matmul``
multiplies all towers in one call, the pair message's and DTNN's two
channels as two matrices per tower. So a step runs, whatever k is, one GRU
and one message computation whose result is the GRU's input: one taped
``tt.label_message`` for the matmul message and the edge network over
labels, one ``tt.edge_message`` for the edge network over raw vectors, and
one gather, product chain and scatter for the other message functions,
with no concat of the channels. k = 1 is a tower axis of size 1.

A forward's work that reads no weight is one ``Layout`` per batch, built
by ``layout`` after the encoding check (``_check_encoding``): the index
plans (``tt.segments``) of the edges' destinations and sources, the plan
of the message op (over labels one ``tt.label_plan``, which needs no plan
of the sources, over raw vectors one ``tt.block_plan``), the labels
present, the tower-tiled edge rows, and the node-to-graph plans that the
master and the readouts read. ``propagate`` lays out a graph it is given
as a batch of one, and ``model.predict_batch`` keeps the layouts of its
untaped calls, so a repeated evaluation runs only the weights. What
reads the weights but not the states runs once per forward, per message
function (``_sender``): DTNN's edge term and the edge network's label
matrices, or its hidden rows laid out in their far nodes' zero-padded
blocks (``tt.segment_blocks``, one per channel), never change across the
steps.

The first step runs only the towers the input fills. Each atom starts at
its features zero-padded to width d, so with d_in feature columns only the
first t0 = ceil(d_in / d_tower) towers hold input, and every later tower
starts at exactly zero. Under a message linear in the far state (the
matmul message, and the edge network over labels or raw vectors) a zero
tower sends zero messages; the GRU has no bias, so a zero state and zero
input give gates of 1/2 and a candidate of tanh(0) = 0, and the state stays
0; the residual update adds zeros to zeros. So at step 0 those towers'
states, messages, updates and weight gradients are all exact +0, and
``propagate`` runs step 0 on the first t0 towers only, reading them of
each weight through ``tt.leading_block``, and hands the others to the mix
as zeros: the same bits for less work. The pair message and DTNN add edge
and bias terms, so a zero tower sends them nonzero messages, and they run
every tower from step 0. After step 0 the mix fills every tower.

The matmul message is the discrete case of the edge network: A_{e_vw} h_w
with one matrix per edge label. Over discrete labels (chemical, distance
bins) the edge network's A(e) takes one value per label, so it builds one
d_tower x d_tower matrix per channel, tower and label present, as the
matmul message stacks its own, and both send through
``tt.label_message``, whose docstring gives the stack's layout: one row of
w's products under an edge's label, [h_w A_in | h_w A_out], holds both of
the edge's messages. Over raw
vectors (complete graphs, one vector per directed edge) A(e) is a
two-layer network whose last layer is linear, so ``tt.edge_message``
multiplies the states by the last layer's matrices and contracts each
edge's hidden row with its far node's products. The network runs in
homogeneous coordinates: each edge vector gets a 1 appended, the first
layer is the stack [[w1, 0], [b1, 1]], so each hidden row ends in a unit
1, and the last layer's bias is one more matrix that unit weighs. A
hidden row thus holds d_tower + 1 units, and neither bias costs a pass of
its own over the edges. Neither op builds a matrix per edge.

The master node (the paper's latent node joined to every atom by a special
edge type) lives only here, as one state row of width ``cfg.d_master`` per
graph. It sends every atom of its graph a message through dedicated linear
maps, takes in a per-graph sum of their states, and keeps its own update;
it never routes through the per-edge message functions (its width may
differ from d).

A batch of molecules propagates as one graph: ``layout`` takes the member
graphs and is the only code that joins them, each member's nodes and
edges after the ones before it, with no edge between two members. Every
per-node and per-edge operation acts row by row, and per-graph sums run
over the node-to-graph index. A lone molecule is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tt
from .molgraph import EDGE_REPRS, EncodedGraph, edge_alphabet_size, edge_feature_width
from .tensor import ContractError, GruParams, Tensor

__all__ = [
    "MESSAGE_FNS",
    "UPDATE_FNS",
    "READOUTS",
    "ModelConfig",
    "NodeStates",
    "Layout",
    "layout",
    "init_params",
    "is_bias",
    "propagate",
    "pad_features",
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
        if self.edge_repr not in EDGE_REPRS:
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
    # the graph of every row the readouts sum: the n node rows, then, with a
    # master in the readout, each graph's master row
    graphs: tt.Segments
    master: Optional[Tensor] = None    # (n_graphs, d_master) final master states
    master0: Optional[Tensor] = None   # (n_graphs, d_master) learned initial state

    @property
    def n_graphs(self) -> int:
        return self.graphs.num_segments


@dataclass(frozen=True, eq=False)
class Layout:
    """What a forward over a batch of graphs, run as one graph, reads that
    no weight changes; build one with :func:`layout`. The arrays are
    read-only. Of the graphs it keeps only ``node_features``, the members'
    rows one after another; its node count is theirs, its edge count the
    ``dst`` plan's and its graph count the ``graphs`` plan's.

    ``present`` is the labels some edge carries, over labels; ``plan`` the
    message op's plan (``tt.label_plan`` over labels, ``tt.block_plan`` for
    the edge network over raw vectors, None for the pair message and DTNN);
    ``src`` the plan of the edges' sources, None over labels, whose plan
    holds its own. ``rows`` is the tower-tiled edge vectors, (E, k, w): raw
    5-vectors or one-hot labels, the edge network's with a 1 appended; for
    the edge network over labels, the one-hot rows of the labels present.
    ``nodes`` is every node's graph and ``masters`` every graph's row of the
    one initial master state, both only with a master; ``graphs`` the
    readouts' rows' graphs (``NodeStates.graphs``).
    """

    cfg: ModelConfig
    node_features: np.ndarray
    dst: tt.Segments
    src: Optional[tt.Segments]
    present: Optional[np.ndarray]
    plan: Optional[tt.LabelPlan | tt.BlockPlan]
    rows: Optional[Tensor]
    graphs: tt.Segments
    nodes: Optional[tt.Segments]
    masters: Optional[tt.Segments]


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
        return _mlp2_shapes(f"{prefix}_en", ew, dt, dt * dt, (k,))
    if cfg.message_fn == "pair_message":
        return _mlp2_shapes(f"{prefix}_pm", 2 * dt + ew, 2 * dt, dt, (k,))
    hidden = dt
    return [(f"{prefix}_dtnn_wcf", (k, dt, hidden)), (f"{prefix}_dtnn_b1", (k, hidden)),
            (f"{prefix}_dtnn_wdf", (k, ew, hidden)), (f"{prefix}_dtnn_b2", (k, hidden)),
            (f"{prefix}_dtnn_wfc", (k, hidden, dt))]


def _mlp2_shapes(prefix: str, d_in: int, hidden: int, d_out: int,
                 towers: tuple = ()) -> list[tuple[str, tuple]]:
    return [(f"{prefix}_w1", towers + (d_in, hidden)), (f"{prefix}_b1", towers + (hidden,)),
            (f"{prefix}_w2", towers + (hidden, d_out)), (f"{prefix}_b2", towers + (d_out,))]


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


def is_bias(name: str) -> bool:
    """Whether the named parameter is a bias, which starts at zero."""
    return name.endswith(("_b1", "_b2", "mix_b"))


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Weights uniform in +-1/sqrt(fan_in), biases zero, deterministic order.

    A weight's fan-in is its second-to-last axis: a tower stack (k, q, p)
    draws like k matrices (q, p). The master's initial state (dm,) uses dm.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        if is_bias(name):
            data = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-2] if len(shape) > 1 else shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# Small composites
# ---------------------------------------------------------------------------


def mlp2(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Single-hidden-layer MLP: affine, relu, affine."""
    h = tt.relu(tt.matmul(x, params[f"{prefix}_w1"], params[f"{prefix}_b1"]))
    return tt.matmul(h, params[f"{prefix}_w2"], params[f"{prefix}_b2"])


def pad_features(features: np.ndarray, d: int) -> Tensor:
    """Input features zero-padded on the right up to the model width."""
    n, d_in = features.shape
    if d_in > d:
        raise ContractError(f"feature width {d_in} exceeds node dim {d}")
    out = np.zeros((n, d))
    out[:, :d_in] = features
    return Tensor(out)


def _check_encoding(graphs: Sequence[EncodedGraph], cfg: ModelConfig) -> None:
    """There must be a graph, and each must have the config's encoding,
    which the engine then reads from the config only."""
    if not graphs:
        raise ContractError("a layout needs at least one graph")
    for eg in graphs:
        if eg.representation != cfg.edge_repr:
            raise ContractError(f"graph is encoded as {eg.representation!r}, "
                                f"the model config as {cfg.edge_repr!r}")


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _labels(cfg: ModelConfig) -> bool:
    # the matmul message and the edge network over labels send through
    # ``tt.label_message``
    return cfg.message_fn == "matmul" or (cfg.message_fn == "edge_network"
                                          and cfg.edge_repr != "raw_distance")


def _directed(graphs: Sequence[EncodedGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The members' directed edges as one graph's: their sources,
    destinations and features. Each member's pair ends are shifted by the
    nodes of the members before it, and its edges are its pairs i -> j and
    then j -> i, the features on both. One stable sort by each pair's
    member puts [i; j] -> [j; i] in that order, member by member. The edges
    keep that order, since the rules of the edge-level weights sum their
    rows in it. Each member's ends lie in its own nodes (``EncodedGraph``
    checks them), so no edge joins two members."""
    atoms = np.array([eg.n_atoms for eg in graphs])
    pairs = np.array([eg.pair_i.shape[0] for eg in graphs])
    shift = np.repeat(np.cumsum(atoms) - atoms, pairs)
    i = np.concatenate([eg.pair_i for eg in graphs]).astype(np.intp) + shift
    j = np.concatenate([eg.pair_j for eg in graphs]).astype(np.intp) + shift
    # an edgeless member's features may be of another dtype or shape
    features = np.concatenate([eg.pair_features for eg in graphs if eg.n_edges]
                              or [graphs[0].pair_features], axis=0)
    member = np.repeat(np.arange(len(graphs)), pairs)
    order = np.argsort(np.concatenate([member, member]), kind="stable")
    return (np.concatenate([i, j])[order], np.concatenate([j, i])[order],
            np.concatenate([features, features])[order])


def layout(graphs: Sequence[EncodedGraph], cfg: ModelConfig) -> Layout:
    """The ``Layout`` under ``cfg`` of the graphs, one at least, run as one
    graph: their node features one member after another, every index plan
    over the directed edges (``_directed``), the labels present, the tiled
    edge rows and the node-to-graph plans, after ``_check_encoding``. A
    discrete label must index the alphabet (ContractError), checked once
    over every member's edges. The layout reads no weight, so a forward
    with any weights can run over it, and ``model.predict_batch`` keeps the
    layouts of the batches it evaluates. ``propagate`` lays a lone graph
    out as the batch of one, so every forward reads a layout built here."""
    _check_encoding(graphs, cfg)
    k = cfg.towers_k
    node_features = np.concatenate([eg.node_features for eg in graphs], axis=0)
    node_features.setflags(write=False)
    n = node_features.shape[0]
    edge_src, edge_dst, features = _directed(graphs)
    if cfg.edge_repr != "raw_distance":
        bad = features[(features < 0) | (features >= cfg.edge_width)]
        if bad.size:
            raise ContractError(
                f"edge label {int(bad[0])} outside alphabet of size {cfg.edge_width}")
    dst = tt.segments(edge_dst, n)
    src = present = plan = rows = None
    if _labels(cfg):
        # each edge's label as its place among the labels present
        present, label = np.unique(features, return_inverse=True)
        present.setflags(write=False)
        plan = tt.label_plan(edge_src, dst, label, present.size)
        if cfg.message_fn == "edge_network":
            rows = np.broadcast_to(np.eye(cfg.edge_width)[present][:, None],
                                   (present.size, k, cfg.edge_width))
    else:
        src = tt.segments(edge_src, n)
        # the edge vectors, raw 5-vectors or one-hot labels, once per tower;
        # the edge network's with a 1 appended
        rows = (features if cfg.edge_repr == "raw_distance"
                else np.eye(cfg.edge_width)[features])
        if cfg.message_fn == "edge_network":
            rows = np.concatenate([rows, np.ones((rows.shape[0], 1))], axis=1)
            plan = tt.block_plan(src, dst)
        rows = np.broadcast_to(rows[:, None], (rows.shape[0], k, rows.shape[1]))
    if rows is not None:
        rows = Tensor(np.ascontiguousarray(rows))
        rows.data.setflags(write=False)

    n_graphs = len(graphs)
    graph = np.repeat(np.arange(n_graphs), [eg.n_atoms for eg in graphs])
    nodes = masters = None
    readout_graph = graph
    if cfg.d_master:
        nodes = tt.segments(graph, n_graphs)
        masters = tt.segments(np.zeros(n_graphs, dtype=np.intp), 1)
        if cfg.master_in_readout:
            readout_graph = np.concatenate([graph, np.arange(n_graphs)])
    return Layout(cfg=cfg, node_features=node_features, dst=dst, src=src, present=present,
                  plan=plan, rows=rows, graphs=tt.segments(readout_graph, n_graphs),
                  nodes=nodes, masters=masters)


def _sender(lay: Layout, params: dict[str, Tensor],
            cfg: ModelConfig) -> Callable[[Tensor], Tensor]:
    """A function from the (n, k, d_tower) states to the update's input,
    (n, k, 2 d_tower): per tower, the sum of each node's in-channel
    messages, then of its out-channel messages. The work that reads
    weights but not the states runs here, once per forward, over the
    graph's ``Layout``, which holds the edge-only work; the returned
    function does only what depends on the states.

    The layout's edges are each pair both ways with the same features, so
    a node's out channel, the messages from the far ends of the edges
    leaving it, is also the sum over the edges arriving at it, each sent
    from its source under the out weights. So every message function reads
    one plan of the far ends, the sources, and one of the near ends, the
    destinations, and computes both channels per edge, side by side in
    each tower: each channel's products keep the bits they have alone, and
    the messages are the update's input with no concat of the channels.

    Over discrete labels, the matmul message and the edge network stack
    each label present's in- and out-channel matrices side by side as
    ``tt.label_message`` takes them, with the layout's one ``tt.label_plan``
    over the edges, so one op per step sends both channels. The matmul
    message's weights go in as stored, by one taped concat; the edge
    network's matrices, both channels' rows joined by one concat, are
    moved there by one transpose, its reshapes views. Over raw vectors the
    edge network runs its first layer once per channel, as one product of
    the edge vectors, a 1 appended, with the stack [[w1, 0], [b1, 1]] (a
    taped concat of the parameters and a constant unit column, so names,
    shapes and checkpoints stay those of w1 and b1). relu keeps the
    appended unit at 1, and each channel's hidden rows, d_tower + 1 units
    wide, are laid out in their far nodes' blocks once, where a pad cell's
    unit is 0. Every step's one ``tt.edge_message`` takes both channels'
    blocks and last layers, through the layout's ``tt.block_plan``. Kept
    apart, each channel's first layer, blocks and node products are the
    size one channel's were; both channels' in one array each were slower
    on the raw-distance workloads (CHANGES.md). The pair message and DTNN
    gather the far rows (the pair message the near rows too), run both
    channels' layers as ``tt.matmul``'s stacks of two matrices per tower
    (2k, tower-major) and scatter their messages once per step.
    """
    k, dt = cfg.towers_k, cfg.d_tower
    if _labels(cfg):
        if cfg.message_fn == "matmul":
            # each label's in- and out-channel matrices side by side as
            # stored, (k, d_tower, labels * 2 d_tower): a label's message is h A
            weights = [params[f"msg_{ch}_A{value}"] for value in lay.present for ch in CHANNELS]
            stack = (tt.concat(weights, axis=2) if weights
                     else Tensor(np.zeros((k, dt, 0))))
        else:
            # each label's row-major (p x q) matrix M from its one-hot row,
            # whose message M h is h M^T: the stack holds the M^T of each
            # label's two channels side by side, (k, q, labels * 2p), moved
            # there by one transpose
            count = lay.present.size
            mats = tt.reshape(tt.concat([mlp2(lay.rows, params, f"msg_{ch}_en")
                                         for ch in CHANNELS], axis=0), (2, count, k, dt, dt))
            stack = tt.reshape(tt.transpose(mats, (2, 4, 1, 0, 3)), (k, dt, count * 2 * dt))
        return lambda h: tt.label_message(h, _towers(stack, h.shape[1]), lay.plan)

    evec = lay.rows
    if cfg.message_fn == "edge_network":
        # raw vectors, in homogeneous coordinates: each edge's vector with
        # a 1 appended times [[w1, 0], [b1, 1]] gives its hidden row with a
        # unit 1 appended, which weighs the last layer's bias; each
        # channel's rows are laid out in their far nodes' blocks and
        # contracted with the states' products with its last layer
        unit = np.zeros((k, cfg.edge_width + 1, 1))
        unit[:, -1] = 1.0
        channels = []
        for ch in CHANNELS:
            pre = f"msg_{ch}_en"
            layer = tt.concat([tt.concat([params[f"{pre}_w1"],
                                          tt.reshape(params[f"{pre}_b1"], (k, 1, dt))], axis=1),
                               Tensor(unit)], axis=2)
            channels.append((tt.segment_blocks(tt.relu(tt.matmul(evec, layer)), lay.src),
                             params[f"{pre}_w2"], params[f"{pre}_b2"]))

        def send(h):
            live = h.shape[1]
            return tt.edge_message(h, [(_towers(blocks, live, axis=2), _towers(w2, live),
                                        _towers(b2, live)) for blocks, w2, b2 in channels],
                                   lay.plan)
        return send

    def both(name):
        # the two channels' stacks of a weight, tower-major: (2k, ...),
        # tower t's in-channel matrix at 2t and its out-channel one at 2t + 1
        parts = [params[f"msg_{ch}_{name}"] for ch in CHANNELS]
        shape = parts[0].shape[1:]
        return tt.reshape(tt.concat([tt.reshape(w, (k, 1) + shape) for w in parts], axis=1),
                          (2 * k,) + shape)

    # each edge's messages, (E, 2k, d_tower), as the update reads them
    edges, src, dst = lay.dst.index.size, lay.src, lay.dst
    summed = lambda msgs: tt.scatter_sum_rows(tt.reshape(msgs, (edges, k, 2 * dt)), dst)
    if cfg.message_fn == "pair_message":
        pm = {f"pm_{name}": both(f"pm_{name}") for name in ("w1", "b1", "w2", "b2")}
        return lambda h: summed(mlp2(tt.concat(
            [tt.gather_rows(h, src), tt.gather_rows(h, dst), evec], axis=2), pm, "pm"))
    wcf, b1, wfc = both("dtnn_wcf"), both("dtnn_b1"), both("dtnn_wfc")
    eterm = tt.matmul(evec, both("dtnn_wdf"), both("dtnn_b2"))
    return lambda h: summed(tt.tanh(tt.matmul(
        tt.mul(tt.matmul(tt.gather_rows(h, src), wcf, b1), eterm), wfc)))


def _towers(x: Tensor, live: int, axis: int = 0) -> Tensor:
    """The first ``live`` towers of ``x``, whose towers lie along ``axis``,
    by ``tt.leading_block``: ``x`` itself when they are all of them."""
    if x.shape[axis] == live:
        return x  # what ``tt.leading_block`` returns, without its checks
    shape = list(x.shape)
    shape[axis] = live
    return tt.leading_block(x, shape)


def _gru_params(params: dict[str, Tensor], prefix: str,
                live: Optional[int] = None) -> GruParams:
    """The named GRU's weights; with ``live``, the first ``live`` towers of each."""
    return GruParams(**{name: params[f"{prefix}_{name}"] if live is None
                        else _towers(params[f"{prefix}_{name}"], live)
                        for name in ("wz", "uz", "wr", "ur", "wh", "uh")})


def propagate(eg: EncodedGraph | Layout, params: dict[str, Tensor],
              cfg: ModelConfig) -> NodeStates:
    """Run cfg.T message passing steps and return final node states.

    ``eg`` is one molecule, laid out first as the batch of one, or the
    ``layout`` under ``cfg`` of one or several, so every forward reads a
    layout. The states carry the plan of the readouts' rows' graphs (one
    graph for one molecule).
    To count multiplies, call it inside ``tt.count_multiplies``;
    ``checks.bench_towers`` isolates the message phase that way.

    Every step runs one loop body over its live towers, the first ones of
    the (n, k, d_tower) states: at step 0, under the matmul message or the
    edge network, the t0 = ceil(d_in / d_tower) towers the input features
    fill (at least 1), and all k after it. The other towers start at the
    zero padding, and a message linear in the far state, the bias-free GRU
    and the residual update keep them exactly zero through step 0 (module
    docstring), so the step reads only the live towers of the message
    weights and GRU weights (``tt.leading_block``, which at all k towers is
    the weight itself) and the mix gets the skipped towers as zeros, with
    the bits of running them all. With T = 1, no step reads a skipped
    tower's weights, so a non-finite value written into one raises no
    ``NumericError``; with T > 1, step 1 reads every tower.
    """
    def _update(x, h, prefix, live=None):
        # one update rule for atom states (their live towers) and master
        # rows; x is the input, the in channel's messages beside the out
        # channel's
        if cfg.update_fn == "gru":
            return tt.gru_cell(x, h, _gru_params(params, prefix, live))
        half = x.shape[-1] // 2
        return tt.add(h, tt.add(tt.slice_cols(x, 0, half), tt.slice_cols(x, half, 2 * half)))

    if not isinstance(eg, Layout):
        lay = layout([eg], cfg)
    elif eg.cfg is cfg or eg.cfg == cfg:
        lay = eg
    else:
        raise ContractError("the layout was built under another model config")
    n, d_in = lay.node_features.shape
    k, dt = cfg.towers_k, cfg.d_tower
    h0 = pad_features(lay.node_features, cfg.d)
    # States are (n, k, d_tower) through every step: tower t holds columns
    # t*d_tower to (t+1)*d_tower of the (n, d) state. A step runs its first
    # ``live`` towers: at step 0 those the input fills (docstring), then all.
    towered = (n, k, dt)
    live = k if cfg.message_fn in ("pair_message", "dtnn") else max(1, -(-d_in // dt))
    h = _towers(tt.reshape(h0, towered), live, axis=1)
    send = _sender(lay, params, cfg)

    n_graphs = lay.graphs.num_segments
    master = None
    master0 = None
    if cfg.d_master:
        master0 = tt.gather_rows(tt.reshape(params["master_h0"], (1, cfg.d_master)),
                                 lay.masters)
        master = master0

    for _ in range(cfg.T):
        x = send(h)
        if cfg.d_master:
            # towers reject a master, so k = 1 and a (n_graphs, 2d) row
            # block is one tower: each graph's two messages, added to its
            # atoms' input
            x = tt.add(x, tt.gather_rows(tt.reshape(tt.concat(
                [tt.matmul(master, params[f"m2n_{ch}"]) for ch in CHANNELS], axis=1),
                (n_graphs, 1, 2 * cfg.d)), lay.nodes))
        h_new = _update(x, h, "gru", live)
        if cfg.d_master:
            h_sum = tt.reshape(tt.scatter_sum_rows(h, lay.nodes), (n_graphs, cfg.d))
            master = _update(tt.concat([tt.matmul(h_sum, params[f"n2m_{ch}"])
                                        for ch in CHANNELS], axis=-1), master, "master_gru")
        h = h_new
        if live < k:
            # the towers the step skipped go to the mix as the zeros they are
            h = tt.concat([h, Tensor(np.zeros((n, k - live, dt)))], axis=1)
            live = k
        if k > 1:
            h = tt.reshape(tt.matmul(tt.reshape(h, (n, cfg.d)), params["mix_w"],
                                     params["mix_b"]), towered)
    return NodeStates(h=tt.reshape(h, (n, cfg.d)), h0=h0, graphs=lay.graphs,
                      master=master, master0=master0)
