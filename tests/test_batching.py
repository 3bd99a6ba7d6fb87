"""A batch is one graph: disjoint unions against one graph at a time."""

import hashlib

import numpy as np
import pytest

from mpnnkit import tensor as T
from mpnnkit.engine import ModelConfig, init_params
from mpnnkit.model import (
    UNION_EDGE_BUDGET,
    model_forward,
    predict_batch,
    union_groups,
)
from mpnnkit.molgraph import disjoint_union
from mpnnkit.tensor import ContractError, MultiplyCounter, Tensor

from conftest import check_grad_against_fd, jitter_biases, random_encoded
from reference_mpnn import naive_forward

BATCH_TOL = 1e-12

REPRESENTATION = {"matmul": ("chemical", 4), "edge_network": ("raw_distance", 4),
                  "pair_message": ("raw_distance", 4), "dtnn": ("distance_bins", 14)}


def make_cfg(message_fn, readout, **kw):
    representation, _ = REPRESENTATION[message_fn]
    defaults = dict(message_fn=message_fn, readout=readout, T=2, d=6,
                    n_targets=3, set2set_M=2, edge_repr=representation)
    defaults.update(kw)
    return ModelConfig(**defaults)


def mixed_batch(rng, cfg, sizes=(3, 5, 1, 4)):
    """Graphs of the given sizes, plus a zero-edge and a zero-atom graph."""
    representation, alphabet = REPRESENTATION[cfg.message_fn]

    def graph(n, edge_prob=0.6):
        return random_encoded(rng, n=n, d_in=4, representation=representation,
                              alphabet=alphabet, edge_prob=edge_prob)

    egs = [graph(n) for n in sizes]
    egs.insert(1, graph(3, edge_prob=0.0))
    egs.insert(3, graph(0))
    assert egs[1].n_edges == 0 and egs[3].n_atoms == 0
    return egs


def assert_matches_alone_and_naive(egs, params, cfg):
    batch = predict_batch(egs, params, cfg).data
    assert batch.shape == (len(egs), cfg.n_targets)
    for i, eg in enumerate(egs):
        alone = model_forward(eg, params, cfg).data
        assert np.max(np.abs(batch[i] - alone)) <= BATCH_TOL
        # the loop reference has no attention over an empty set
        if eg.n_atoms:
            np.testing.assert_allclose(batch[i], naive_forward(eg, params, cfg),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("readout", ["ggnn", "set2set", "dtnn_sum"])
@pytest.mark.parametrize("message_fn", sorted(REPRESENTATION))
def test_every_message_and_readout(rng, message_fn, readout):
    cfg = make_cfg(message_fn, readout)
    params = init_params(cfg, seed=1)
    jitter_biases(params, rng)
    with T.no_grad():
        assert_matches_alone_and_naive(mixed_batch(rng, cfg), params, cfg)


@pytest.mark.parametrize("label,overrides", [
    ("towers", dict(towers_k=2)),
    ("towers_set2set", dict(towers_k=3, readout="set2set")),
    ("master_width_d", dict(d_master=6)),
    ("master_width_d_set2set", dict(d_master=6, readout="set2set")),
    # a master narrower than d stays out of the summing readouts
    ("master_narrow", dict(d_master=4, master_in_readout=False)),
    ("master_narrow_set2set", dict(d_master=4, readout="set2set")),
    ("master_not_read_out", dict(d_master=6, master_in_readout=False)),
    ("master_not_read_out_set2set", dict(d_master=4, readout="set2set",
                                         master_in_readout=False)),
    ("residual_master", dict(d_master=6, update_fn="dtnn_residual",
                             readout="dtnn_sum")),
])
def test_structural_variants(rng, label, overrides):
    overrides = dict(overrides)
    readout = overrides.pop("readout", "ggnn")
    message_fn = "dtnn" if overrides.get("update_fn") else "matmul"
    cfg = make_cfg(message_fn, readout, **overrides)
    params = init_params(cfg, seed=2)
    jitter_biases(params, rng)
    with T.no_grad():
        assert_matches_alone_and_naive(mixed_batch(rng, cfg), params, cfg)


def test_empty_batch(rng):
    cfg = make_cfg("matmul", "set2set")
    out = predict_batch([], init_params(cfg, seed=3), cfg)
    assert out.data.shape == (0, 3)


def test_batch_over_the_edge_budget_splits(rng):
    cfg = make_cfg("edge_network", "set2set", d=4, T=1, set2set_M=1)
    params = init_params(cfg, seed=4)
    representation, _ = REPRESENTATION[cfg.message_fn]
    complete = [random_encoded(rng, n=int(n), d_in=4, edge_prob=1.1,
                               representation=representation)
                for n in rng.integers(14, 22, size=8)]
    # a complete graph with more directed edges than the budget on its own
    n_huge = int(np.ceil(np.sqrt(UNION_EDGE_BUDGET))) + 2
    huge = random_encoded(rng, n=n_huge, d_in=4, edge_prob=1.1,
                          representation=representation)
    assert huge.n_edges > UNION_EDGE_BUDGET
    egs = complete[:5] + [huge] + complete[5:]
    groups = union_groups(egs)
    assert [eg for group in groups for eg in group] == egs
    assert [huge] in groups and len(groups) >= 3
    for group in groups:
        assert len(group) == 1 or sum(eg.n_edges for eg in group) <= UNION_EDGE_BUDGET
    with T.no_grad():
        batch = predict_batch(egs, params, cfg).data
        for i, eg in enumerate(egs):
            assert np.max(np.abs(batch[i] - model_forward(eg, params, cfg).data)) <= BATCH_TOL


@pytest.mark.parametrize("message_fn,readout,overrides", [
    ("edge_network", "set2set", {}),
    ("matmul", "ggnn", dict(towers_k=2)),
    ("pair_message", "dtnn_sum", dict(d_master=6)),
    ("dtnn", "set2set", dict(d_master=4)),
])
def test_multiply_count_is_the_sum_over_graphs(rng, message_fn, readout, overrides):
    cfg = make_cfg(message_fn, readout, **overrides)
    params = init_params(cfg, seed=5)
    egs = mixed_batch(rng, cfg)
    with T.count_multiplies(MultiplyCounter()) as batch:
        predict_batch(egs, params, cfg)
    T.active_tape().clear()
    with T.count_multiplies(MultiplyCounter()) as alone:
        for eg in egs:
            model_forward(eg, params, cfg)
    T.active_tape().clear()
    assert batch.total == alone.total > 0


@pytest.mark.parametrize("message_fn,readout,overrides", [
    ("edge_network", "set2set", dict(d_master=3)),
    ("matmul", "ggnn", dict(d_master=4)),
    ("dtnn", "dtnn_sum", dict(towers_k=2)),
])
def test_fd_gradients_over_a_three_graph_batch(rng, message_fn, readout, overrides):
    cfg = make_cfg(message_fn, readout, d=4, n_targets=2, **overrides)
    # seed 6 puts a ReLU unit of the matmul+ggnn readout within one FD step
    # of its kink (a 1e-5 step agrees with the tape there)
    params = init_params(cfg, seed=7)
    jitter_biases(params, rng)
    egs = mixed_batch(rng, cfg, sizes=(3, 2))[:3]
    probe = Tensor(rng.normal(size=(3, 2)))

    def loss(p):
        out = predict_batch(egs, p, cfg)
        return T.add(T.reduce_sum(T.mul(out, probe)),
                     T.reduce_sum(T.mul(out, out)))

    check_grad_against_fd(loss, params, label=f"{message_fn}+{readout}")


class TestDisjointUnion:
    def test_offsets_and_graph_index(self, rng):
        a = random_encoded(rng, n=3, d_in=4, edge_prob=1.1)
        b = random_encoded(rng, n=2, d_in=4, edge_prob=1.1)
        u = disjoint_union([a, b])
        assert (u.n_atoms, u.n_edges, u.n_graphs) == (5, 8, 2)
        np.testing.assert_array_equal(u.node_graph, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(u.edge_src[6:], b.edge_src + 3)
        np.testing.assert_array_equal(u.edge_dst[6:], b.edge_dst + 3)
        np.testing.assert_array_equal(u.edge_features[6:], b.edge_features)

    def test_members_must_agree(self, rng):
        chem = random_encoded(rng, n=3, d_in=4)
        raw = random_encoded(rng, n=3, d_in=4, representation="raw_distance")
        with pytest.raises(ContractError):
            disjoint_union([chem, raw])
        with pytest.raises(ContractError):
            disjoint_union([disjoint_union([chem])])
        with pytest.raises(ContractError):
            disjoint_union([])


def _forward_backward_digest(cfg):
    """sha256 over a mixed batch's output rows, then every parameter's
    gradient in creation order, for one fixed draw of graphs and weights."""
    rng = np.random.default_rng(31)
    params = init_params(cfg, seed=8)
    jitter_biases(params, rng)
    egs = mixed_batch(rng, cfg)
    out = predict_batch(egs, params, cfg)
    probe = Tensor(rng.normal(size=out.data.shape))
    T.backward(T.reduce_sum(T.mul(out, probe)))
    blobs = [out.data.tobytes()] + [p.grad.tobytes() for p in params.values()]
    return hashlib.sha256(b"".join(blobs)).hexdigest()


@pytest.mark.parametrize("message_fn,readout,overrides,digest", [
    ("matmul", "ggnn", {},
     "e85ffb8335975890c6fc542a3b443b740f131e494b3313e6a8ec1bbf43389233"),
    ("matmul", "ggnn", dict(towers_k=4),
     "497125362d8adab6af8f4bdf6aa03220e1975994cf90199df23c72fe6b2e5242"),
    ("edge_network", "ggnn", {},
     "d507f032e745a48686b456e494e4acb2a6ca54c4769a28c9509ab6a1f532dd2a"),
    ("edge_network", "ggnn", dict(towers_k=4),
     "c14a2786a5a617fcd3c3b11f6c60212547f1066747e1da5be8e04d9303bc8c75"),
    ("pair_message", "dtnn_sum", {},
     "a149c1894637264c98a15a80b8cb08f3980c7a07137b1fc2891b6cd3724a491f"),
    ("pair_message", "dtnn_sum", dict(towers_k=4),
     "c7da7f9fd94e504e63548b57c9f36df44278576121919b31a39fabe96b6a6fec"),
    ("edge_network", "set2set", dict(d_master=8),
     "2f0cdf2aced80fcf8c352c1ae3264a83286e60fac65b3e3a93e95c57c32c55f1"),
    ("matmul", "set2set", dict(d_master=8, update_fn="dtnn_residual"),
     "dd96f1931115bb4321f281d4228e68990f1ee7baf39870ba2947f5e82f381591"),
], ids=["matmul", "matmul_k4", "edge_network", "edge_network_k4",
        "pair_message", "pair_message_k4", "edge_network_master_set2set",
        "matmul_master_set2set_residual"])
def test_outputs_and_gradients_pinned(message_fn, readout, overrides, digest):
    # pinned before the edge-only work moved into one place per message
    # function: that move keeps these bits. The three edge-network digests
    # were re-pinned when pair_matvec's matrix gradient became factors that
    # backward sums over all steps in one matmul: forward outputs kept their
    # bits, the edge-network weight gradients moved by at most 3.4e-16 of
    # their largest entry, and the other five digests did not change.
    cfg = make_cfg(message_fn, readout, d=8, **overrides)
    assert _forward_backward_digest(cfg) == digest
