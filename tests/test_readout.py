"""Graph-level readouts: values, invariances, gradients."""

import numpy as np
import pytest

from mpnnkit import tensor as T
from mpnnkit.engine import ModelConfig, NodeStates, init_params
from mpnnkit.model import model_forward, predict_batch
from mpnnkit.readout import (
    apply_readout,
    readout_dtnn_sum,
    readout_ggnn,
    readout_set2set,
)
from mpnnkit.tensor import ContractError, Tensor

from conftest import (
    check_grad_against_fd,
    jitter_biases,
    permute_encoded,
    random_encoded,
)
from reference_mpnn import naive_forward, naive_readout


def make_cfg(readout, **kw):
    defaults = dict(message_fn="matmul", readout=readout, T=2, d=6,
                    edge_repr="chemical", n_targets=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def one_graph(h, h0):
    """States whose rows all belong to one graph; readouts return one row."""
    return NodeStates(h=h, h0=h0, node_graph=np.zeros(h.data.shape[0], dtype=np.intp))


def states_from(rng, n, d):
    return one_graph(Tensor(rng.normal(size=(n, d))),
                     Tensor(rng.normal(size=(n, d))))


class TestGgnn:
    def test_zero_value_network_zeroes_output(self, rng):
        cfg = make_cfg("ggnn")
        params = init_params(cfg, seed=0)
        params["ro_j_w2"].data[...] = 0.0
        params["ro_j_b2"].data[...] = 0.0
        out = readout_ggnn(states_from(rng, 4, 6), params, cfg)
        np.testing.assert_array_equal(out.data[0], np.zeros(3))

    def test_single_node_no_sum(self, rng):
        cfg = make_cfg("ggnn")
        params = init_params(cfg, seed=1)
        states = states_from(rng, 1, 6)
        got = readout_ggnn(states, params, cfg).data[0]
        want = naive_readout(states.h.data, states.h0.data, None, None, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_permutation_invariance(self, rng):
        cfg = make_cfg("ggnn")
        params = init_params(cfg, seed=2)
        states = states_from(rng, 6, 6)
        base = readout_ggnn(states, params, cfg).data[0]
        perm = rng.permutation(6)
        shuffled = one_graph(Tensor(states.h.data[perm]), Tensor(states.h0.data[perm]))
        np.testing.assert_allclose(readout_ggnn(shuffled, params, cfg).data[0],
                                   base, atol=1e-12)

    def test_empty_graph_zero_vector(self):
        cfg = make_cfg("ggnn")
        params = init_params(cfg, seed=3)
        states = one_graph(Tensor(np.zeros((0, 6))), Tensor(np.zeros((0, 6))))
        np.testing.assert_array_equal(readout_ggnn(states, params, cfg).data[0],
                                      np.zeros(3))


class TestDtnnSum:
    def test_constant_network_counts_nodes(self, rng):
        cfg = make_cfg("dtnn_sum")
        params = init_params(cfg, seed=4)
        params["ro_nn_w1"].data[...] = 0.0
        params["ro_nn_b1"].data[...] = 0.0
        params["ro_nn_w2"].data[...] = 0.0
        params["ro_nn_b2"].data[...] = [1.5, -2.0, 0.25]
        out = readout_dtnn_sum(states_from(rng, 5, 6), params, cfg)
        np.testing.assert_allclose(out.data[0], 5 * np.array([1.5, -2.0, 0.25]))

    def test_zero_weights_zero_output(self, rng):
        cfg = make_cfg("dtnn_sum")
        params = init_params(cfg, seed=5)
        for k in ("ro_nn_w1", "ro_nn_b1", "ro_nn_w2", "ro_nn_b2"):
            params[k].data[...] = 0.0
        out = readout_dtnn_sum(states_from(rng, 5, 6), params, cfg)
        np.testing.assert_array_equal(out.data[0], np.zeros(3))

    def test_permutation_invariance(self, rng):
        cfg = make_cfg("dtnn_sum")
        params = init_params(cfg, seed=6)
        states = states_from(rng, 7, 6)
        base = readout_dtnn_sum(states, params, cfg).data[0]
        perm = rng.permutation(7)
        shuffled = one_graph(Tensor(states.h.data[perm]), Tensor(states.h0.data[perm]))
        np.testing.assert_allclose(readout_dtnn_sum(shuffled, params, cfg).data[0],
                                   base, atol=1e-12)


class TestSet2Set:
    def test_singleton_attention_is_one(self, rng):
        cfg = make_cfg("set2set", set2set_M=4)
        params = init_params(cfg, seed=7)
        states = states_from(rng, 1, 6)
        got = readout_set2set(states, params, cfg).data[0]
        want = naive_readout(states.h.data, states.h0.data, None, None, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_identical_rows_split_attention_evenly(self, rng):
        cfg = make_cfg("set2set", set2set_M=1)
        params = init_params(cfg, seed=8)
        row_h = rng.normal(size=6)
        row_h0 = rng.normal(size=6)
        states = one_graph(Tensor(np.stack([row_h, row_h])),
                           Tensor(np.stack([row_h0, row_h0])))
        # With two identical memories the glimpse equals either row projected,
        # so the output must match the singleton case exactly.
        singleton = one_graph(Tensor(row_h.reshape(1, 6)), Tensor(row_h0.reshape(1, 6)))
        np.testing.assert_allclose(
            readout_set2set(states, params, cfg).data[0],
            readout_set2set(singleton, params, cfg).data[0], atol=1e-12)

    def test_permutation_invariance_random_sets(self, rng):
        cfg = make_cfg("set2set", set2set_M=3)
        params = init_params(cfg, seed=9)
        states = states_from(rng, 6, 6)
        base = readout_set2set(states, params, cfg).data[0]
        for _ in range(5):
            perm = rng.permutation(6)
            shuffled = one_graph(Tensor(states.h.data[perm]),
                                 Tensor(states.h0.data[perm]))
            np.testing.assert_allclose(readout_set2set(shuffled, params, cfg).data[0],
                                       base, atol=1e-9)

    def test_matches_naive_reference(self, rng):
        cfg = make_cfg("set2set", set2set_M=3)
        params = init_params(cfg, seed=10)
        states = states_from(rng, 5, 6)
        got = readout_set2set(states, params, cfg).data[0]
        want = naive_readout(states.h.data, states.h0.data, None, None, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_attention_is_a_distribution(self, rng):
        # Checked through the tensor API directly: softmax rows sum to one.
        scores = Tensor(rng.normal(size=(6, 1)))
        attn = T.softmax(scores, axis=0)
        assert attn.data.min() >= 0
        assert abs(attn.data.sum() - 1.0) < 1e-12

    def test_m_must_be_positive(self):
        with pytest.raises(ContractError):
            make_cfg("set2set", set2set_M=0)


class TestFullForward:
    @pytest.mark.parametrize("readout", ["ggnn", "set2set", "dtnn_sum"])
    def test_forward_matches_naive(self, rng, readout):
        cfg = make_cfg(readout, message_fn="edge_network", edge_repr="raw_distance")
        params = init_params(cfg, seed=12)
        eg = random_encoded(rng, n=5, d_in=4, representation="raw_distance")
        got = model_forward(eg, params, cfg).data
        want = naive_forward(eg, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("readout", ["ggnn", "set2set", "dtnn_sum"])
    def test_forward_with_master_matches_naive(self, rng, readout):
        # set2set projects the width-4 master; the sums cannot take it
        cfg = make_cfg(readout, d_master=4,
                       master_in_readout=readout == "set2set")
        params = init_params(cfg, seed=13)
        eg = random_encoded(rng, n=4, d_in=4)
        got = model_forward(eg, params, cfg).data
        want = naive_forward(eg, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_master_excluded_from_sum_readout_when_width_differs(self, rng):
        # d_master != d: a summing readout cannot take the master row, so the
        # config must leave it out explicitly.
        for readout in ("ggnn", "dtnn_sum"):
            with pytest.raises(ContractError, match="master_in_readout"):
                make_cfg(readout, d_master=3)
        # The gated sum then runs over atoms only, but the master still
        # influenced their states during propagation.
        cfg = make_cfg("ggnn", d_master=3, master_in_readout=False)
        params = init_params(cfg, seed=14)
        eg = random_encoded(rng, n=4, d_in=4)
        got = model_forward(eg, params, cfg).data
        want = naive_forward(eg, params, cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_master_in_readout_flag_changes_output(self, rng):
        eg = random_encoded(rng, n=4, d_in=4)
        outs = {}
        for flag in (True, False):
            cfg = make_cfg("ggnn", d_master=6, master_in_readout=flag)
            params = init_params(cfg, seed=15)
            outs[flag] = model_forward(eg, params, cfg).data
        assert np.abs(outs[True] - outs[False]).max() > 1e-9

    def test_graph_level_permutation_invariance(self, rng):
        for readout in ("ggnn", "set2set", "dtnn_sum"):
            cfg = make_cfg(readout, message_fn="pair_message",
                           edge_repr="raw_distance")
            params = init_params(cfg, seed=16)
            eg = random_encoded(rng, n=6, d_in=4, representation="raw_distance")
            base = model_forward(eg, params, cfg).data
            perm = rng.permutation(6)
            got = model_forward(permute_encoded(eg, perm), params, cfg).data
            np.testing.assert_allclose(got, base, atol=1e-9)

    def test_predict_batch_stacks_rows(self, rng):
        cfg = make_cfg("dtnn_sum")
        params = init_params(cfg, seed=17)
        egs = [random_encoded(rng, n=4, d_in=4) for _ in range(3)]
        batch = predict_batch(egs, params, cfg).data
        assert batch.shape == (3, 3)
        for i, eg in enumerate(egs):
            np.testing.assert_allclose(batch[i], model_forward(eg, params, cfg).data)


class TestReadoutGradients:
    @pytest.mark.parametrize("readout", ["ggnn", "set2set", "dtnn_sum"])
    def test_fd_gradients_through_readout(self, rng, readout):
        cfg = make_cfg(readout, d=4, T=2, n_targets=1, set2set_M=2)
        params = init_params(cfg, seed=18)
        jitter_biases(params, rng)
        eg = random_encoded(rng, n=3, d_in=3)
        probe = Tensor(rng.normal(size=1))

        def loss(p):
            # Linear probe plus square: the gradient stays informative even
            # where the output itself crosses zero.
            out = model_forward(eg, p, cfg)
            return T.add(T.reduce_sum(T.mul(out, probe)),
                         T.reduce_sum(T.mul(out, out)))

        check_grad_against_fd(loss, params, label=readout)

    def test_fd_gradients_wrt_node_states(self, rng):
        # Direct sensitivity of each readout to the states themselves.
        for readout in ("ggnn", "set2set", "dtnn_sum"):
            cfg = make_cfg(readout, d=4, n_targets=1, set2set_M=2)
            net = init_params(cfg, seed=19)
            params = {"h": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                      "h0": Tensor(rng.normal(size=(3, 4)), requires_grad=True)}

            def loss(p):
                states = one_graph(p["h"], p["h0"])
                out = apply_readout(states, net, cfg)
                return T.reduce_sum(T.mul(out, out))

            check_grad_against_fd(loss, params, label=f"states_{readout}")
