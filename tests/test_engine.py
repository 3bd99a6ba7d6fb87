"""Propagation engine: message functions, updates, towers, master node."""

import dataclasses
import hashlib

import numpy as np
import pytest

from mpnnkit import engine
from mpnnkit import tensor as T
from mpnnkit import checks
from mpnnkit.checks import bench_towers, permute_graph
from mpnnkit.engine import (
    MESSAGE_FNS,
    ModelConfig,
    init_params,
    layout,
    param_shapes,
    propagate,
)
from mpnnkit.model import model_forward, predict_batch
from mpnnkit.molgraph import EncodedGraph
from mpnnkit.tensor import ContractError, Tensor

from support import (
    check_grad_against_fd,
    jitter_biases,
    random_encoded,
)
from reference_mpnn import naive_propagate


def cfg_for(message_fn, **kw):
    defaults = dict(message_fn=message_fn, update_fn="gru", readout="dtnn_sum",
                    T=2, d=6, edge_repr="chemical", n_targets=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


def tower_gru_params(params, tower):
    """The atom GRU of one tower, as the 2-D weights of a single cell."""
    return T.GruParams(**{n: Tensor(params[f"gru_{n}"].data[tower])
                          for n in ("wz", "uz", "wr", "ur", "wh", "uh")})


def zero_message_params(params, prefix="msg_"):
    for name, p in params.items():
        if name.startswith(prefix):
            p.data[...] = 0.0


def undirected_graph(h, pairs, labels=None):
    """Graph whose node features are the rows of h, with the given (i, j)
    pairs and chemical labels (default 0); the engine sends along each
    pair both ways."""
    i = np.array([a for a, _ in pairs], dtype=np.intp)
    j = np.array([b for _, b in pairs], dtype=np.intp)
    labels = np.zeros(len(pairs), dtype=np.intp) if labels is None else labels
    return EncodedGraph(node_features=np.asarray(h, dtype=np.float64), pair_i=i, pair_j=j,
                        pair_features=np.asarray(labels, dtype=np.intp),
                        representation="chemical")


def residual_cfg(message_fn, **kw):
    """One residual step: each node ends at its state plus its messages."""
    return cfg_for(message_fn, update_fn="dtnn_residual", T=1, **kw)


def one_edge_message(params, cfg, h_w, h_v, label=0):
    """The in-channel message along edge w -> v.

    The graph holds the edge both ways, and the out channel's weights are
    zeroed first, so that its every message is zero: after one residual
    step, v's state has moved by the one message arriving on its in
    channel."""
    assert cfg.update_fn == "dtnn_residual" and cfg.T == 1
    zero_message_params(params, "msg_out_")
    states = propagate(undirected_graph([h_w, h_v], [(0, 1)], [label]), params, cfg)
    return states.h.data[1] - states.h0.data[1]


def assert_labels_rejected(message_fn):
    """Chemical labels run 0..3; one outside indexes no bank matrix and no
    one-hot column, and must fail loudly rather than pick a wrong one."""
    cfg = residual_cfg(message_fn, d=3)
    params = init_params(cfg, seed=0)
    for label in (7, -1):
        with pytest.raises(ContractError):
            one_edge_message(params, cfg, np.ones(3), np.ones(3), label=label)


class TestConfigValidation:
    def test_towers_must_divide(self):
        with pytest.raises(ContractError):
            cfg_for("matmul", d=6, towers_k=4)

    def test_matmul_rejects_raw_distance(self):
        with pytest.raises(ContractError):
            cfg_for("matmul", edge_repr="raw_distance")

    def test_master_with_towers_rejected(self):
        with pytest.raises(ContractError):
            cfg_for("matmul", d=8, towers_k=2, d_master=4)

    def test_t_must_be_positive(self):
        with pytest.raises(ContractError):
            cfg_for("matmul", T=0)

    def test_unknown_names_rejected(self):
        with pytest.raises(ContractError):
            cfg_for("fourier")
        with pytest.raises(ContractError):
            cfg_for("matmul", readout="mean")
        with pytest.raises(ContractError):
            cfg_for("matmul", update_fn="adam")


class TestSingleEdgeMessages:
    def test_matmul_identity_bank(self, rng):
        cfg = residual_cfg("matmul", d=4)
        params = init_params(cfg, seed=0)
        params["msg_in_A0"].data[0] = np.eye(4)
        params["msg_in_A1"].data[0] = 0.0
        h = rng.normal(size=4)
        np.testing.assert_allclose(
            one_edge_message(params, cfg, h, rng.normal(size=4), label=0), h)

    def test_matmul_zero_bank(self, rng):
        cfg = residual_cfg("matmul", d=4)
        params = init_params(cfg, seed=0)
        params["msg_in_A0"].data[0] = 0.0
        got = one_edge_message(params, cfg, rng.normal(size=4), rng.normal(size=4))
        np.testing.assert_array_equal(got, np.zeros(4))

    def test_matmul_matches_dense_oracle(self, rng):
        cfg = residual_cfg("matmul", d=5)
        params = init_params(cfg, seed=0)
        h = rng.normal(size=5)
        mats = [rng.normal(size=(5, 5)) for _ in range(3)]
        for label, m in enumerate(mats):
            params[f"msg_in_A{label}"].data[0] = m
        for label in range(3):
            got = one_edge_message(params, cfg, h, rng.normal(size=5), label=label)
            np.testing.assert_allclose(got, h @ mats[label], atol=1e-12)

    def test_matmul_label_out_of_range(self, rng):
        assert_labels_rejected("matmul")

    def test_edge_network_label_out_of_range(self, rng):
        assert_labels_rejected("edge_network")

    def test_edge_network_zero_weights(self, rng):
        cfg = residual_cfg("edge_network")
        params = init_params(cfg, seed=1)
        zero_message_params(params)
        out = one_edge_message(params, cfg, rng.normal(size=6), rng.normal(size=6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_edge_network_identity_output(self, rng):
        cfg = residual_cfg("edge_network")
        params = init_params(cfg, seed=1)
        zero_message_params(params)
        params["msg_in_en_b2"].data[0] = np.eye(6).ravel()
        h = rng.normal(size=6)
        out = one_edge_message(params, cfg, h, rng.normal(size=6))
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_pair_zero_network(self, rng):
        cfg = residual_cfg("pair_message")
        params = init_params(cfg, seed=2)
        zero_message_params(params)
        out = one_edge_message(params, cfg, rng.normal(size=6), rng.normal(size=6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_pair_order_matters(self, rng):
        cfg = residual_cfg("pair_message")
        params = init_params(cfg, seed=3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        fwd = one_edge_message(params, cfg, b, a, label=1)
        rev = one_edge_message(params, cfg, a, b, label=1)
        assert np.abs(fwd - rev).max() > 1e-6

    def test_dtnn_zero_inner_weights(self, rng):
        cfg = residual_cfg("dtnn")
        params = init_params(cfg, seed=4)
        for suffix in ("wcf", "b1", "wdf", "b2"):
            params[f"msg_in_dtnn_{suffix}"].data[0] = 0.0
        out = one_edge_message(params, cfg, rng.normal(size=6), rng.normal(size=6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_dtnn_zero_outer_weight(self, rng):
        cfg = residual_cfg("dtnn")
        params = init_params(cfg, seed=5)
        params["msg_in_dtnn_wfc"].data[0] = 0.0
        out = one_edge_message(params, cfg, rng.normal(size=6), rng.normal(size=6))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_dtnn_edge_term_built_once_per_forward(self, rng):
        # W_df e + b2 depends only on the edges: one biased product of the
        # edge vectors with both channels' stacks per forward, not one per
        # channel and step; a step gathers the far rows once, multiplies
        # both channels together and scatters once. The only concats are
        # the five weights' channel stacks, once per forward
        cfg = cfg_for("dtnn", T=3)
        params = init_params(cfg, seed=6)
        T.active_tape().clear()
        propagate(random_encoded(rng, n=5, d_in=4), params, cfg)
        tape = list(T.active_tape())
        T.active_tape().clear()
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in tape]
        products = [parents for _, parents, rule in tape
                    if rule.__qualname__.startswith("matmul")]
        assert cfg.edge_width != cfg.d_tower
        assert [x.shape[-1] for x, *_ in products].count(cfg.edge_width) == 1
        assert len(products) == 1 + 2 * cfg.T
        # the first step gathers the input states, which need no gradient
        assert ops.count("gather_rows") + 1 == ops.count("scatter_sum_rows") == cfg.T
        assert ops.count("concat") == 5


class TestIndexPlans:
    @pytest.mark.parametrize("message_fn, readout, kw", [
        ("edge_network", "set2set", {}),
        ("matmul", "dtnn_sum", {"towers_k": 2}),
        ("pair_message", "ggnn", {"d_master": 6}),
    ], ids=["edge_network-set2set", "matmul-towers", "pair_message-master"])
    def test_plans_are_built_once_per_forward(self, rng, monkeypatch,
                                              message_fn, readout, kw):
        # every index plan depends on the graphs only, so a forward builds
        # the same number whatever T and the set2set steps are
        calls = []
        segments = T.segments

        def counting_segments(index, num_segments):
            calls.append(num_segments)
            return segments(index, num_segments)

        monkeypatch.setattr(T, "segments", counting_segments)
        egs = [random_encoded(rng, n=5, ensure_connected=True) for _ in range(3)]
        counts = []
        for steps in (1, 3):
            cfg = cfg_for(message_fn, readout=readout, T=steps, set2set_M=steps, **kw)
            calls.clear()
            predict_batch(egs, init_params(cfg, seed=0), cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("towers_k", [1, 2])
    def test_matmul_message_is_one_tape_entry_per_step(self, rng, towers_k):
        # the matmul message of all labels and both channels is one
        # label_message op per step, whose result is the GRU's input: no
        # gather, product or scatter of its own and no concat of the
        # channels reaches the tape. Once per forward the labels' weights of
        # both channels are stacked as stored, one concat and no transpose
        # or reshape; the only products taped are the tower mix's, one per
        # step when there are towers, and the only reshapes the mix's two
        # per step and the final states' one
        cfg = cfg_for("matmul", T=3, towers_k=towers_k)
        eg = random_encoded(rng, n=7, ensure_connected=True)
        assert np.unique(eg.pair_features).size > 1
        T.active_tape().clear()
        propagate(eg, init_params(cfg, seed=0), cfg)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in T.active_tape()]
        T.active_tape().clear()
        assert ops.count("label_message") == cfg.T
        assert "edge_message" not in ops
        assert ops.count("matmul") == (cfg.T if towers_k > 1 else 0)
        assert ops.count("concat") == 1
        assert ops.count("transpose") == 0
        assert ops.count("reshape") == 1 + (2 * cfg.T if towers_k > 1 else 0)
        assert not {"gather_rows", "scatter_sum_rows", "add"} & set(ops)

    @pytest.mark.parametrize("towers_k", [1, 2])
    def test_edge_network_message_is_one_tape_entry_per_step(self, rng, towers_k):
        # over raw vectors the edge network's message, both channels, is
        # one op per step; the only products taped are each channel's
        # hidden layer (once per forward) and the tower mix, and the only
        # concats build each channel's layer, once per forward: none joins
        # the channels
        cfg = cfg_for("edge_network", T=3, towers_k=towers_k, edge_repr="raw_distance")
        eg = random_encoded(rng, n=7, ensure_connected=True, representation="raw_distance")
        T.active_tape().clear()
        propagate(eg, init_params(cfg, seed=0), cfg)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in T.active_tape()]
        T.active_tape().clear()
        assert ops.count("edge_message") == cfg.T
        assert "label_message" not in ops
        assert ops.count("matmul") == 2 + (cfg.T if towers_k > 1 else 0)
        assert ops.count("concat") == 2 * 2
        assert not {"gather_rows", "scatter_sum_rows"} & set(ops)

    @pytest.mark.parametrize("towers_k", [1, 2])
    def test_edge_network_lays_out_each_channels_blocks_once_per_forward(self, rng,
                                                                        towers_k):
        # over raw vectors each channel's hidden rows are laid out in their
        # far nodes' blocks once per forward, and every step's message reads
        # both channels' blocks: a channel's relu output has that layout as
        # its one reader, so its gradient is one gather of the steps' summed
        # block gradients
        cfg = cfg_for("edge_network", T=3, towers_k=towers_k, edge_repr="raw_distance")
        eg = random_encoded(rng, n=7, ensure_connected=True, representation="raw_distance")
        T.active_tape().clear()
        propagate(eg, init_params(cfg, seed=0), cfg)
        tape = list(T.active_tape())
        T.active_tape().clear()
        op = lambda rule: rule.__qualname__.split(".")[0]
        readers = lambda t: [op(rule) for _, parents, rule in tape
                             if any(p is t for p in parents)]
        made_by = {id(out): op(rule) for out, _, rule in tape}
        layouts = [(out, parents) for out, parents, rule in tape if op(rule) == "segment_blocks"]
        assert len(layouts) == 2
        assert [op(rule) for _, _, rule in tape].count("edge_message") == cfg.T
        for blocks, (hidden,) in layouts:
            assert blocks.shape[2] == towers_k
            assert made_by[id(hidden)] == "relu"
            assert readers(hidden) == ["segment_blocks"]
            assert readers(blocks) == ["edge_message"] * cfg.T

    @pytest.mark.parametrize("towers_k", [1, 2])
    def test_label_edge_network_is_one_matmul_message_per_step(self, rng, towers_k):
        # over labels the edge network builds one matrix per label present
        # and channel (mlp2 per channel, both channels' rows joined by one
        # concat and moved by one transpose, once per forward) and sends both
        # channels through the matmul message's op, label_message, with no
        # gather of each label's matrix out of the stack and no concat of
        # the channels
        cfg = cfg_for("edge_network", T=3, towers_k=towers_k)
        eg = random_encoded(rng, n=7, ensure_connected=True)
        assert np.unique(eg.pair_features).size > 1
        T.active_tape().clear()
        propagate(eg, init_params(cfg, seed=0), cfg)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in T.active_tape()]
        T.active_tape().clear()
        assert ops.count("label_message") == cfg.T
        assert "edge_message" not in ops
        assert ops.count("matmul") == 2 * 2 + (cfg.T if towers_k > 1 else 0)
        assert ops.count("transpose") == 1
        assert ops.count("concat") == 1
        assert not {"gather_rows", "scatter_sum_rows"} & set(ops)


class TestAggregate:
    def test_single_edge_concat(self, rng):
        # Identity in-bank, doubling out-bank: over the one pair {0, 1},
        # node 1 receives concat(h_0, 2 h_0), its in channel from 0 -> 1
        # and its out channel from 1 -> 0, and node 0 concat(h_1, 2 h_1).
        cfg = cfg_for("matmul", T=1, d=3)
        params = init_params(cfg, seed=0)
        params["msg_in_A0"].data[0] = np.eye(3)
        params["msg_out_A0"].data[0] = 2 * np.eye(3)
        h = rng.normal(size=(2, 3))
        got = propagate(undirected_graph(h, [(0, 1)]), params, cfg).h.data
        msg = np.concatenate([h[::-1], 2 * h[::-1]], axis=1)
        want = T.gru_cell(Tensor(msg), Tensor(h), tower_gru_params(params, 0))
        np.testing.assert_array_equal(got, want.data)

    def test_isolated_node_zero(self, rng):
        # Node 2 has no edges, nor has any node of the edgeless graph: their
        # messages sum to exactly zero, so a residual step leaves them as
        # they were.
        h = rng.normal(size=(3, 4))
        for message_fn in MESSAGE_FNS:
            cfg = residual_cfg(message_fn, d=4)
            params = init_params(cfg, seed=1)
            jitter_biases(params, rng)
            one_edge = propagate(undirected_graph(h, [(0, 1)]), params, cfg)
            np.testing.assert_array_equal(one_edge.h.data[2], one_edge.h0.data[2])
            edgeless = propagate(undirected_graph(h, []), params, cfg)
            np.testing.assert_array_equal(edgeless.h.data, edgeless.h0.data)

    def test_sum_order_invariance(self, rng):
        cfg = residual_cfg("matmul", d=5)
        params = init_params(cfg, seed=2)
        h = rng.normal(size=(7, 5))
        edges = [(w, 0) for w in range(1, 7)]
        labels = rng.integers(0, 4, size=6)
        a = propagate(undirected_graph(h, edges, labels), params, cfg).h.data
        b = propagate(undirected_graph(h, edges[::-1], labels[::-1]),
                      params, cfg).h.data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestPropagate:
    def test_initial_states_are_padded_input(self, rng):
        cfg = cfg_for("matmul")
        params = init_params(cfg, seed=0)
        eg = random_encoded(rng, n=4, d_in=4)
        states = propagate(eg, params, cfg)
        np.testing.assert_array_equal(states.h0.data[:, :4], eg.node_features)
        np.testing.assert_array_equal(states.h0.data[:, 4:], 0.0)

    def test_zero_messages_reduce_to_gru_of_zero(self, rng):
        cfg = cfg_for("matmul", T=3)
        params = init_params(cfg, seed=6)
        zero_message_params(params)
        eg = random_encoded(rng, n=4, d_in=4)
        states = propagate(eg, params, cfg)
        h = states.h0
        for _ in range(cfg.T):
            h = T.gru_cell(Tensor(np.zeros((4, 2 * cfg.d))), h,
                           tower_gru_params(params, 0))
        np.testing.assert_allclose(states.h.data, h.data, atol=1e-14)

    @pytest.mark.parametrize("message_fn,representation", [
        ("matmul", "chemical"),
        ("matmul", "distance_bins"),
        ("edge_network", "raw_distance"),
        ("edge_network", "chemical"),
        ("pair_message", "raw_distance"),
        ("dtnn", "distance_bins"),
    ])
    def test_matches_naive_reference(self, rng, message_fn, representation):
        alphabet = 14 if representation == "distance_bins" else 4
        cfg = cfg_for(message_fn, edge_repr=representation, T=3)
        params = init_params(cfg, seed=7)
        eg = random_encoded(rng, n=6, d_in=5, representation=representation,
                            alphabet=alphabet)
        states = propagate(eg, params, cfg)
        want_h, want_h0, _, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(states.h.data, want_h, atol=1e-12)
        np.testing.assert_allclose(states.h0.data, want_h0, atol=1e-12)

    def test_matches_naive_with_residual_update(self, rng):
        cfg = cfg_for("dtnn", update_fn="dtnn_residual", T=3)
        params = init_params(cfg, seed=8)
        eg = random_encoded(rng, n=5, d_in=5)
        states = propagate(eg, params, cfg)
        want_h, _, _, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(states.h.data, want_h, atol=1e-12)

    def test_matches_naive_with_towers(self, rng):
        cfg = cfg_for("matmul", d=8, towers_k=2, T=3)
        params = init_params(cfg, seed=9)
        eg = random_encoded(rng, n=5, d_in=5)
        states = propagate(eg, params, cfg)
        want_h, _, _, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(states.h.data, want_h, atol=1e-12)

    def test_matches_naive_with_master(self, rng):
        cfg = cfg_for("edge_network", d_master=3, T=3, master_in_readout=False)
        params = init_params(cfg, seed=10)
        eg = random_encoded(rng, n=5, d_in=5)
        states = propagate(eg, params, cfg)
        want_h, _, want_master, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(states.h.data, want_h, atol=1e-12)
        np.testing.assert_allclose(states.master.data.ravel(), want_master.ravel(),
                                   atol=1e-12)

    def test_permutation_equivariance(self, rng):
        cfg = cfg_for("pair_message", edge_repr="raw_distance", T=3)
        params = init_params(cfg, seed=11)
        for _ in range(5):
            eg = random_encoded(rng, n=5, d_in=4, representation="raw_distance")
            perm = rng.permutation(5)
            original = propagate(eg, params, cfg).h.data
            permuted = propagate(permute_graph(eg, perm), params, cfg).h.data
            np.testing.assert_allclose(permuted[perm], original, atol=1e-9)

    def test_isolated_nodes_keep_updating(self, rng):
        # A graph with no edges still runs the update with zero messages.
        cfg = cfg_for("matmul", T=2)
        params = init_params(cfg, seed=12)
        eg = random_encoded(rng, n=3, d_in=4, edge_prob=0.0)
        assert eg.n_edges == 0
        states = propagate(eg, params, cfg)
        assert np.all(np.isfinite(states.h.data))
        assert np.abs(states.h.data - states.h0.data).max() > 0


class TestEdgeNetworkPairs:
    """Over discrete labels the edge network builds one matrix per label
    present and channel; over raw vectors it builds none, and each directed
    edge uses its own vector."""

    def test_matches_naive_with_shuffled_pairs(self, rng):
        cfg = cfg_for("edge_network", T=3)
        params = init_params(cfg, seed=21)
        jitter_biases(params, rng)
        # pairs in no order, in either orientation, one of them twice
        edges = [(1, 2), (1, 0), (3, 2), (0, 3), (1, 0)]
        labels = np.array([2, 1, 3, 0, 1])
        eg = undirected_graph(rng.normal(size=(4, 5)), edges, labels)
        want_h, _, _, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(propagate(eg, params, cfg).h.data, want_h,
                                   atol=1e-12)

    def test_builds_one_matrix_per_pair(self, rng):
        # Complete graph on 4 nodes: P = 6 pairs, E = 12 directed edges, all
        # of chemical label 0. A residual update multiplies nothing, so the
        # count is the matrix build, 2 channels * 1 label * (4*6 + 6*36) with
        # 4 chemical labels and d = 6, plus the messages: per channel and
        # step, one d_tower^2 product per (far node, label) pair some edge
        # reads, here n * 1 label, T=1 * 2 channels * 4 * 6*6: 480 + 288.
        # The six pairs share their label's matrix; one matrix per pair made
        # the build 2880, one per directed edge 5760.
        cfg = residual_cfg("edge_network")
        params = init_params(cfg, seed=22)
        eg = undirected_graph(rng.normal(size=(4, 5)),
                              [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with T.count_multiplies(T.MultiplyCounter()) as counter:
            propagate(eg, params, cfg)
        assert counter.total == 768

    def test_raw_distances_build_no_matrix(self, rng):
        # The same complete graph with raw 5-vectors: each channel's hidden
        # layer in homogeneous coordinates, the edge vectors with a 1
        # appended times [[w1, 0], [b1, 1]], 2 * E * 6*7, then per channel
        # and step the products of the n = 4 states with the 6 hidden
        # units' matrices and the bias's and each edge's contraction over
        # the 6 hidden units, T=1 * 2 * (4*6*7*6 + 12*6*6): 1008 + 2880.
        cfg = residual_cfg("edge_network", edge_repr="raw_distance")
        params = init_params(cfg, seed=22)
        eg = random_encoded(rng, n=4, d_in=5, representation="raw_distance",
                            edge_prob=1.0)
        assert eg.n_edges == 12
        with T.count_multiplies(T.MultiplyCounter()) as counter:
            propagate(eg, params, cfg)
        assert counter.total == 3888


class TestTowers:
    def test_identity_mixing_keeps_towers_independent(self, rng):
        full = cfg_for("matmul", d=8, towers_k=2, T=3)
        params = init_params(full, seed=14)
        params["mix_w"].data[...] = np.eye(8)
        params["mix_b"].data[...] = 0.0
        eg = random_encoded(rng, n=5, d_in=4)
        h_full = propagate(eg, params, full).h.data

        half = cfg_for("matmul", d=4, towers_k=1, T=3)
        for tower, sl in ((0, slice(0, 4)), (1, slice(4, 8))):
            # tower t of every stacked weight, as a stack of one
            sub = {name: Tensor(params[name].data[tower:tower + 1])
                   for name in params if name.startswith(("msg_", "gru_"))}
            # Same topology and labels, features taken from the tower's slice
            # of the padded full-width input.
            pad8 = np.zeros((5, 8))
            pad8[:, :4] = eg.node_features
            eg_slice = type(eg)(node_features=pad8[:, sl],
                                pair_i=eg.pair_i, pair_j=eg.pair_j,
                                pair_features=eg.pair_features,
                                representation=eg.representation)
            h_half = propagate(eg_slice, sub, half).h.data
            np.testing.assert_allclose(h_full[:, sl], h_half, atol=1e-12)

    def test_k1_has_no_mixing_weights(self):
        names = [n for n, _ in param_shapes(cfg_for("matmul", d=8, towers_k=1))]
        assert "mix_w" not in names
        names = [n for n, _ in param_shapes(cfg_for("matmul", d=8, towers_k=2))]
        assert "mix_w" in names and "mix_b" in names

    def test_message_multiplies_scale_inversely_with_k(self):
        # Complete graph on 6 nodes, E = 30 directed edges over 4 labels;
        # per tower, channel and step, matmul messages cost one (d/k)^2
        # product per (far node, label) pair some edge reads, 19 of the
        # n * labels = 24 here: 2 * T * 19 * d^2 / k in all.
        result = bench_towers(d=16, n=6, k=4, T=2)
        assert result["message_multiplies"] == {1: 19456, 4: 4864}

    @pytest.mark.parametrize("n", [1, 0])
    def test_bench_towers_needs_an_edge(self, n):
        # no edges, no message cost: the ratio would divide zero by zero
        with pytest.raises(ContractError, match=f"n={n}"):
            bench_towers(d=16, n=n, k=4, T=1)

    def test_permutation_invariance_with_towers(self, rng):
        cfg = cfg_for("matmul", d=8, towers_k=4, T=3)
        params = init_params(cfg, seed=16)
        eg = random_encoded(rng, n=6, d_in=4)
        perm = rng.permutation(6)
        original = propagate(eg, params, cfg).h.data
        permuted = propagate(permute_graph(eg, perm), params, cfg).h.data
        np.testing.assert_allclose(permuted[perm], original, atol=1e-9)

    def test_random_and_permuted_graphs_keep_the_virtual_edges_flag(self, rng):
        # the engine refuses a chemical graph without virtual edges under a
        # config with them, so the checks' graphs must carry the flag
        cfg = cfg_for("matmul", d=8, towers_k=4, virtual_edges=True)
        params = init_params(cfg, seed=16)
        eg = checks.random_graph(rng, 6, cfg)
        permuted = permute_graph(eg, rng.permutation(6))
        assert eg.virtual_edges and permuted.virtual_edges
        np.testing.assert_allclose(model_forward(permuted, params, cfg).data,
                                   model_forward(eg, params, cfg).data, atol=1e-9)



# (message, encoding, whether step 0 skips the towers the features leave
# zero): a message linear in the far state sends zeros from a zero tower,
# while the pair message and DTNN add edge and bias terms
FIRST_STEP_CASES = [("matmul", "chemical", True), ("edge_network", "chemical", True),
                    ("edge_network", "raw_distance", True),
                    ("pair_message", "raw_distance", False), ("dtnn", "distance_bins", False)]
MESSAGE_OPS = ("label_message", "edge_message", "gru_cell")


class TestFirstStepTowers:
    """Input features narrower than d fill only the first towers; under a
    message linear in the far state the first step runs only those. Its
    twin, the same graphs with features zero-padded to d, fills every tower
    and runs them all, and must give the same bits."""

    @staticmethod
    def run(egs, params, cfg, monkeypatch):
        """Output rows, every gradient and the forward's multiplies, in
        all and per call of the message ops and the GRU, in call order."""
        total, calls = T.MultiplyCounter(), []
        for name in MESSAGE_OPS:
            def counted(*args, _fn=getattr(T, name), _name=name):
                with T.count_multiplies(T.MultiplyCounter()) as own:
                    out = _fn(*args)
                total.total += own.total
                calls.append((_name, own.total))
                return out
            monkeypatch.setattr(T, name, counted)
        for p in params.values():
            p.zero_grad()
        with T.count_multiplies(total):
            out = predict_batch(egs, params, cfg)
        monkeypatch.undo()
        probe = Tensor(np.random.default_rng(9).normal(size=out.shape))
        T.backward(T.reduce_sum(T.mul(out, probe)))
        return (out.data.tobytes(), [p.grad.tobytes() for p in params.values()],
                total.total, calls)

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("update_fn", ["gru", "dtnn_residual"])
    @pytest.mark.parametrize("towers_k", [2, 4])
    @pytest.mark.parametrize("message_fn,edge_repr,skips", FIRST_STEP_CASES)
    def test_narrow_features_keep_the_bits_of_their_padded_twin(
            self, monkeypatch, message_fn, edge_repr, skips, towers_k, update_fn, steps):
        # d = 8 and 3 feature columns: towers of 4 leave 1 of 2 towers
        # live at step 0, towers of 2 leave 2 of 4
        cfg = cfg_for(message_fn, update_fn=update_fn, T=steps, d=8, towers_k=towers_k,
                      edge_repr=edge_repr, readout="ggnn")
        rng = np.random.default_rng(17)
        params = init_params(cfg, seed=5)
        jitter_biases(params, rng)
        alphabet = 14 if edge_repr == "distance_bins" else 4
        narrow = [random_encoded(rng, n=n, d_in=3, representation=edge_repr,
                                 alphabet=alphabet) for n in (4, 6, 1, 5)]
        padded = [dataclasses.replace(eg, node_features=np.pad(eg.node_features,
                                                               ((0, 0), (0, cfg.d - 3))))
                  for eg in narrow]
        out, grads, muls, calls = self.run(narrow, params, cfg, monkeypatch)
        twin_out, twin_grads, twin_muls, twin_calls = self.run(padded, params, cfg,
                                                               monkeypatch)
        assert out == twin_out
        assert grads == twin_grads
        if not skips:
            assert muls == twin_muls and calls == twin_calls
            return
        # the first message op and the first GRU run 1 of 2 or 2 of 4
        # towers, each op's count in proportion; every other call is the same
        live = {2: 1, 4: 2}[towers_k]
        first = {name: next(i for i, (n, _) in enumerate(twin_calls) if n == name)
                 for name in {n for n, _ in twin_calls}}
        assert [n for n, _ in calls] == [n for n, _ in twin_calls]
        skipped = 0
        for i, ((_, count), (_, twin)) in enumerate(zip(calls, twin_calls)):
            if i in first.values():
                assert count * towers_k == twin * live
                skipped += twin - count
            else:
                assert count == twin
        assert 0 < skipped == twin_muls - muls

    def test_the_batching_check_holds_narrow_features_to_their_padded_twin(self,
                                                                         monkeypatch):
        cfg = next(c for c in checks._sweep_configs()
                   if c.message_fn == "matmul" and c.towers_k > 1)
        monkeypatch.setattr(checks, "_sweep_configs", lambda: [cfg])
        result = checks.run_batch_checks(seed=0, n_graphs=3)
        assert (result["twins"], result["twins_equal"], result["passed"]) == (1, 1, True)
        # a first step that moves the last bit of the towers it runs
        block = T.leading_block

        def nudged(x, shape):
            out = block(x, shape)
            return out if out is x else Tensor(out.data * (1 + 2.0**-50))

        monkeypatch.setattr(T, "leading_block", nudged)
        result = checks.run_batch_checks(seed=0, n_graphs=3)
        assert result["max_deviation"] < checks.BATCH_TOLERANCE
        assert (result["twins"], result["twins_equal"], result["passed"]) == (1, 0, False)

    @pytest.mark.parametrize("name", ["msg_in_A0", "gru_uz"])
    def test_a_non_finite_weight_of_a_skipped_tower_raises_at_the_next_step(self, rng,
                                                                          name):
        # step 0 does not read the last tower of either weight, step 1 does
        cfg = cfg_for("matmul", T=2, d=8, towers_k=4)
        params = init_params(cfg, seed=3)
        params[name].data[-1, 0, 0] = np.nan
        eg = random_encoded(rng, n=5, d_in=3, ensure_connected=True)
        with T.no_grad(), pytest.raises(T.NumericError):
            propagate(eg, params, cfg)


@pytest.mark.parametrize("suite", ["run_invariance_checks", "run_batch_checks",
                                   "run_spectral_checks"])
@pytest.mark.parametrize("n_graphs", [0, -3])
def test_check_sweeps_need_a_graph(suite, n_graphs):
    # a sweep over no graphs checks nothing and must not pass
    with pytest.raises(ContractError, match="at least one graph"):
        getattr(checks, suite)(seed=0, n_graphs=n_graphs)


# (message, the config's encoding, virtual edges, the graph's encoding);
# each of these ran on its config's weights before the encoding was checked
MISMATCHED_ENCODINGS = [
    ("edge_network", "raw_distance", False, "chemical"),
    ("edge_network", "chemical", True, "raw_distance"),
    ("matmul", "distance_bins", False, "chemical"),
    # a chemical graph without virtual edges under a config with them
    ("matmul", "chemical", True, "chemical"),
]


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("message_fn,edge_repr,virtual_edges,encoded_as",
                         MISMATCHED_ENCODINGS)
def test_graph_must_have_the_configs_encoding(rng, batched, message_fn, edge_repr,
                                              virtual_edges, encoded_as):
    cfg = cfg_for(message_fn, edge_repr=edge_repr, virtual_edges=virtual_edges)
    params = init_params(cfg, seed=0)
    eg = random_encoded(rng, n=4, representation=encoded_as, edge_prob=1.0)
    with pytest.raises(ContractError, match=f"encoded as '{encoded_as}'"):
        if batched:
            predict_batch([eg, eg], params, cfg)
        else:
            model_forward(eg, params, cfg)


def test_a_layout_serves_only_its_own_config(rng):
    cfg = cfg_for("matmul")
    eg = random_encoded(rng, n=4, edge_prob=1.0)
    params = init_params(cfg, seed=0)
    lay = layout([eg], cfg)
    with T.no_grad():
        assert (propagate(lay, params, cfg).h.data.tobytes()
                == propagate(eg, params, cfg).h.data.tobytes())
        other = dataclasses.replace(cfg, T=cfg.T + 1)
        with pytest.raises(ContractError, match="another model config"):
            propagate(lay, params, other)


class TestParams:
    def test_weight_tying_param_set_independent_of_t(self):
        a = [n for n, _ in param_shapes(cfg_for("matmul", T=3))]
        b = [n for n, _ in param_shapes(cfg_for("matmul", T=8))]
        assert a == b
        assert sum(1 for n in a if n.startswith("gru_")) == 6

    def test_init_is_deterministic(self):
        cfg = cfg_for("edge_network")
        p1 = init_params(cfg, seed=42)
        p2 = init_params(cfg, seed=42)
        assert set(p1) == set(p2)
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)

    @pytest.mark.parametrize("cfg, digest", [
        (ModelConfig(message_fn="matmul", readout="ggnn", d=8, n_targets=2),
         "5d5032f3dafb9ec76f9bda18ba45db64aeadde4e255ae554b073d164664196a2"),
        (ModelConfig(message_fn="edge_network", readout="set2set", d=8,
                     n_targets=2, edge_repr="raw_distance", d_master=8),
         "ba9ce164d1f7c7f80811f8875e1b22e847dd50818e71ba4ee9d0608831329642"),
    ], ids=["matmul_ggnn", "edge_network_set2set_master"])
    def test_k1_initial_values_pinned(self, cfg, digest):
        # sha256 over every initial value in creation order, pinned from the
        # per-tower layout (msg_in_t0_A0, ...): at k=1 the stacked weights
        # draw the same numbers in the same order.
        params = init_params(cfg, seed=3)
        got = hashlib.sha256(b"".join(p.data.tobytes() for p in params.values()))
        assert got.hexdigest() == digest

    def test_biases_start_at_zero(self):
        params = init_params(cfg_for("edge_network"), seed=1)
        assert np.all(params["msg_in_en_b1"].data == 0)
        assert np.all(params["msg_in_en_b2"].data == 0)

    def test_checkpoint_roundtrip_through_engine(self, rng, tmp_path):
        cfg = cfg_for("matmul")
        params = init_params(cfg, seed=17)
        eg = random_encoded(rng, n=4, d_in=4)
        want = propagate(eg, params, cfg).h.data
        path = tmp_path / "params.json"
        T.save_params(params, str(path))
        got = propagate(eg, T.load_params(str(path)), cfg).h.data
        np.testing.assert_array_equal(got, want)


class TestEndToEndGradients:
    @pytest.mark.parametrize("message_fn,representation", [
        ("matmul", "chemical"),
        ("edge_network", "raw_distance"),
        ("pair_message", "chemical"),
        ("dtnn", "raw_distance"),
    ])
    def test_fd_gradients_per_message_fn(self, rng, message_fn, representation):
        cfg = cfg_for(message_fn, edge_repr=representation, T=2, d=4, n_targets=1)
        params = init_params(cfg, seed=18)
        jitter_biases(params, rng)
        eg = random_encoded(rng, n=3, d_in=3, representation=representation)

        def loss(p):
            out = propagate(eg, p, cfg).h
            return T.reduce_sum(T.mul(out, out))

        check_grad_against_fd(loss, params, label=message_fn)

    @pytest.mark.parametrize("towers_k", [1, 2])
    @pytest.mark.parametrize("message_fn", ["matmul", "edge_network"])
    def test_fd_gradients_over_labels_with_towers(self, rng, message_fn, towers_k):
        # both channels of label_message, with and without towers, on
        # pairs of four labels
        cfg = cfg_for(message_fn, T=2, d=4, towers_k=towers_k, n_targets=1)
        params = init_params(cfg, seed=20)
        jitter_biases(params, rng)
        eg = undirected_graph(rng.normal(size=(4, 3)), [(0, 1), (1, 2), (2, 3), (3, 0)],
                              np.array([1, 0, 2, 3]))

        def loss(p):
            out = propagate(eg, p, cfg).h
            return T.reduce_sum(T.mul(out, out))

        check_grad_against_fd(loss, params, label=f"{message_fn}:labels")

    def test_fd_gradients_with_master(self, rng):
        cfg = cfg_for("matmul", T=2, d=4, d_master=3, n_targets=1,
                      master_in_readout=False)
        params = init_params(cfg, seed=19)
        eg = random_encoded(rng, n=3, d_in=3)

        def loss(p):
            states = propagate(eg, p, cfg)
            return T.add(T.reduce_sum(T.mul(states.h, states.h)),
                         T.reduce_sum(T.mul(states.master, states.master)))

        check_grad_against_fd(loss, params, label="master")
