"""Propagation engine: message functions, updates, towers, master node."""

import hashlib

import numpy as np
import pytest

from mpnnkit import engine
from mpnnkit import tensor as T
from mpnnkit.checks import bench_towers
from mpnnkit.engine import (
    MESSAGE_FNS,
    ModelConfig,
    affine,
    init_params,
    param_shapes,
    propagate,
)
from mpnnkit.molgraph import EncodedGraph
from mpnnkit.tensor import ContractError, Tensor

from conftest import (
    check_grad_against_fd,
    jitter_biases,
    permute_encoded,
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


def zero_message_params(params):
    for name, p in params.items():
        if name.startswith("msg_"):
            p.data[...] = 0.0


def directed_graph(h, edges, labels=None):
    """Graph whose node features are the rows of h, with exactly the given
    directed (source, destination) edges and chemical labels (default 0)."""
    src = np.array([s for s, _ in edges], dtype=np.intp)
    dst = np.array([d for _, d in edges], dtype=np.intp)
    labels = np.zeros(len(edges), dtype=np.intp) if labels is None else labels
    return EncodedGraph(node_features=np.asarray(h, dtype=np.float64),
                        edge_src=src, edge_dst=dst,
                        edge_features=np.asarray(labels, dtype=np.intp),
                        representation="chemical")


def residual_cfg(message_fn, **kw):
    """One residual step: each node ends at its state plus its messages."""
    return cfg_for(message_fn, update_fn="dtnn_residual", T=1, **kw)


def one_edge_message(params, cfg, h_w, h_v, label=0):
    """The message along a single directed edge w -> v.

    After one residual step over that edge alone, v's state has moved by
    the one message arriving on its in channel (v sends none out)."""
    assert cfg.update_fn == "dtnn_residual" and cfg.T == 1
    states = propagate(directed_graph([h_w, h_v], [(0, 1)], [label]), params, cfg)
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

    def test_dtnn_edge_term_built_once_per_channel(self, rng, monkeypatch):
        # W_df e + b2 depends only on the edges: one affine per channel and
        # forward, not one per channel and step
        cfg = cfg_for("dtnn", T=3)
        params = init_params(cfg, seed=6)
        wdf = {id(params[f"msg_{ch}_dtnn_wdf"]) for ch in ("in", "out")}
        calls = []

        def counting_affine(x, w, b):
            calls.append(id(w) in wdf)
            return affine(x, w, b)

        monkeypatch.setattr(engine, "affine", counting_affine)
        propagate(random_encoded(rng, n=5, d_in=4), params, cfg)
        assert sum(calls) == 2
        assert len(calls) == 2 + 2 * cfg.T


class TestAggregate:
    def test_single_edge_concat(self, rng):
        # Identity in-bank, doubling out-bank: along the one edge 0 -> 1,
        # node 1 receives concat(h_0, 0) and node 0 concat(0, 2 h_1).
        cfg = cfg_for("matmul", T=1, d=3)
        params = init_params(cfg, seed=0)
        params["msg_in_A0"].data[0] = np.eye(3)
        params["msg_out_A0"].data[0] = 2 * np.eye(3)
        h = rng.normal(size=(2, 3))
        got = propagate(directed_graph(h, [(0, 1)]), params, cfg).h.data
        msg = np.zeros((2, 6))
        msg[1, :3] = h[0]
        msg[0, 3:] = 2 * h[1]
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
            one_edge = propagate(directed_graph(h, [(0, 1)]), params, cfg)
            np.testing.assert_array_equal(one_edge.h.data[2], one_edge.h0.data[2])
            edgeless = propagate(directed_graph(h, []), params, cfg)
            np.testing.assert_array_equal(edgeless.h.data, edgeless.h0.data)

    def test_sum_order_invariance(self, rng):
        cfg = residual_cfg("matmul", d=5)
        params = init_params(cfg, seed=2)
        h = rng.normal(size=(7, 5))
        edges = [(w, 0) for w in range(1, 7)]
        labels = rng.integers(0, 4, size=6)
        a = propagate(directed_graph(h, edges, labels), params, cfg).h.data
        b = propagate(directed_graph(h, edges[::-1], labels[::-1]),
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
            permuted = propagate(permute_encoded(eg, perm), params, cfg).h.data
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
    """The edge network builds one matrix per undirected pair and channel,
    shared by both orientations of the pair."""

    def test_matches_naive_with_one_way_and_shuffled_edges(self, rng):
        cfg = cfg_for("edge_network", T=3)
        params = init_params(cfg, seed=21)
        jitter_biases(params, rng)
        # pairs {0,1} and {2,3} both ways, {1,2} and {0,3} one way, in no order
        edges = [(1, 2), (1, 0), (3, 2), (0, 3), (0, 1), (2, 3)]
        labels = np.array([2, 1, 3, 0, 1, 3])
        eg = directed_graph(rng.normal(size=(4, 5)), edges, labels)
        want_h, _, _, _ = naive_propagate(eg, params, cfg)
        np.testing.assert_allclose(propagate(eg, params, cfg).h.data, want_h,
                                   atol=1e-12)

    def test_builds_one_matrix_per_pair(self, rng):
        # Complete graph on 4 nodes: P = 6 pairs, E = 12 directed edges. A
        # residual update multiplies nothing, so the count is the matrix
        # build, 2 channels * P * (4*6 + 6*36) with 4 chemical labels and
        # d = 6, plus the messages, T=1 * 2 channels * E * 6*6: 2880 + 864.
        # One matrix per directed edge would make the build 5760.
        cfg = residual_cfg("edge_network")
        params = init_params(cfg, seed=22)
        edges = [(i, j) for i in range(4) for j in range(4) if i != j]
        eg = directed_graph(rng.normal(size=(4, 5)), edges)
        with T.count_multiplies(T.MultiplyCounter()) as counter:
            propagate(eg, params, cfg)
        assert counter.total == 3744

    @pytest.mark.parametrize("edges, labels", [
        ([(0, 1), (1, 0), (0, 1)], [2, 2, 2]),  # 0 -> 1 twice
        ([(0, 1), (1, 0)], [1, 2]),             # reverse with another label
    ], ids=["duplicate_edge", "reverse_differs"])
    def test_refuses_edges_that_do_not_share_a_matrix(self, rng, edges, labels):
        cfg = cfg_for("edge_network")
        params = init_params(cfg, seed=23)
        eg = directed_graph(rng.normal(size=(2, 5)), edges, np.array(labels))
        with pytest.raises(ContractError, match="0 -> 1"):
            propagate(eg, params, cfg)

    def test_refuses_reverse_with_other_distance(self, rng):
        cfg = cfg_for("edge_network", edge_repr="raw_distance")
        params = init_params(cfg, seed=24)
        eg = random_encoded(rng, n=3, d_in=5, representation="raw_distance",
                            edge_prob=1.0)
        eg.edge_features[-1, 0] += 1e-9
        with pytest.raises(ContractError, match="different features"):
            propagate(eg, params, cfg)


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
                                edge_src=eg.edge_src, edge_dst=eg.edge_dst,
                                edge_features=eg.edge_features,
                                representation=eg.representation)
            h_half = propagate(eg_slice, sub, half).h.data
            np.testing.assert_allclose(h_full[:, sl], h_half, atol=1e-12)

    def test_k1_has_no_mixing_weights(self):
        names = [n for n, _ in param_shapes(cfg_for("matmul", d=8, towers_k=1))]
        assert "mix_w" not in names
        names = [n for n, _ in param_shapes(cfg_for("matmul", d=8, towers_k=2))]
        assert "mix_w" in names and "mix_b" in names

    def test_message_multiplies_scale_inversely_with_k(self):
        # Complete graph on 6 nodes, E = 30 directed edges; matmul messages
        # cost E * (d/k)^2 per tower and channel: 2 * T * E * d^2 / k in all.
        result = bench_towers(d=16, n=6, k=4, T=2)
        assert result["message_multiplies"] == {1: 30720, 4: 7680}

    def test_permutation_invariance_with_towers(self, rng):
        cfg = cfg_for("matmul", d=8, towers_k=4, T=3)
        params = init_params(cfg, seed=16)
        eg = random_encoded(rng, n=6, d_in=4)
        perm = rng.permutation(6)
        original = propagate(eg, params, cfg).h.data
        permuted = propagate(permute_encoded(eg, perm), params, cfg).h.data
        np.testing.assert_allclose(permuted[perm], original, atol=1e-9)


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
