"""A batch is one graph: layouts of several graphs against one graph at a time."""

import dataclasses
import hashlib

import numpy as np
import pytest

from mpnnkit import tensor as T
from mpnnkit.engine import ModelConfig, init_params, layout
from mpnnkit import model
from mpnnkit.model import (
    UNION_BYTES,
    model_forward,
    predict_batch,
    union_bytes,
    union_groups,
)
from mpnnkit.tensor import ContractError, MultiplyCounter, Tensor

from support import check_grad_against_fd, jitter_biases, random_encoded
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
    representation = cfg.edge_repr
    alphabet = 14 if representation == "distance_bins" else 4

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


def _union_bytes_of(egs, cfg):
    # the sizes of the graphs' layout as one: nodes, directed edges, and
    # the most edges any node sends or receives
    lay = layout(egs, cfg)
    ends = [plan.index for plan in (lay.src, lay.dst) if plan.index.size]
    degree = int(max((np.bincount(e).max() for e in ends), default=0))
    return union_bytes(cfg, lay.node_features.shape[0], lay.dst.index.size, degree)


def test_batch_over_the_edge_budget_splits(rng):
    cfg = make_cfg("edge_network", "set2set", d=32, T=1, set2set_M=1)
    params = init_params(cfg, seed=4)
    representation, _ = REPRESENTATION[cfg.message_fn]

    def complete(n):
        return random_encoded(rng, n=n, d_in=4, edge_prob=1.1,
                              representation=representation)

    def over_the_bound(copies, n):
        return union_bytes(cfg, copies * n, copies * n * (n - 1), n - 1) > UNION_BYTES

    # the smallest complete graph over the byte bound on its own, and the
    # smallest of which 8 copies are: a union of graphs at least that large
    # holds at most 7 of them, so the 24 below make at least 4 unions
    n_huge = next(n for n in range(2, 200) if over_the_bound(1, n))
    n_small = next(n for n in range(2, 200) if over_the_bound(8, n))
    assert n_small + 16 <= n_huge
    graphs = [complete(int(n)) for n in rng.integers(n_small, n_small + 16, size=24)]
    egs = graphs[:9] + [complete(n_huge)] + graphs[9:]
    huge = 9
    groups = union_groups(egs, cfg)
    order = [i for group in groups for i in group]
    assert order == sorted(range(len(egs)), key=lambda i: (egs[i].n_atoms, i))
    assert [huge] in groups and len(groups) >= 4
    for group, after in zip(groups, groups[1:] + [None]):
        members = [egs[i] for i in group]
        assert len(group) == 1 or _union_bytes_of(members, cfg) <= UNION_BYTES
        if after is not None:
            # a union ends only where the next graph would cross the bound
            assert _union_bytes_of(members + [egs[after[0]]], cfg) > UNION_BYTES
    with T.no_grad():
        batch = predict_batch(egs, params, cfg).data
        for i, eg in enumerate(egs):
            assert np.max(np.abs(batch[i] - model_forward(eg, params, cfg).data)) <= BATCH_TOL


def test_union_bytes_bounds_the_largest_per_step_array():
    edge = make_cfg("edge_network", "ggnn", d=32, towers_k=4)
    # padded blocks n D k q, q = d_tower = 8; the node products
    # n k (q + 1) q that one edge_message call makes and frees do not count
    assert union_bytes(edge, 10, 90, 9) == 8 * 10 * 9 * 4 * 8
    assert union_bytes(edge, 10, 90, 20) == 8 * 10 * 20 * 4 * 8
    assert union_bytes(edge, 10, 24, 3) == 8 * 10 * 3 * 4 * 8
    # no edges: one row per atom
    assert union_bytes(edge, 10, 0, 0) == 8 * 10 * 1 * 4 * 8
    # gathered rows E k q for every other message, at least one per atom
    for cfg in (make_cfg("matmul", "ggnn", d=128, towers_k=8),
                make_cfg("edge_network", "ggnn", d=128, towers_k=8,
                         edge_repr="chemical")):
        assert union_bytes(cfg, 10, 1024, 9) == 8 * 1024 * 128
        assert union_bytes(cfg, 10, 4, 1) == union_bytes(cfg, 10, 0, 0) == 8 * 10 * 128


@pytest.mark.parametrize("message_fn", ["edge_network", "matmul"])
def test_edgeless_graphs_are_cut_by_the_bound(rng, message_fn):
    # QM9's single-heavy-atom molecules have no edges with implicit H; each
    # atom still counts one row, so such a batch cannot grow without bound
    cfg = make_cfg(message_fn, "ggnn", d=128)
    atoms_per_union = UNION_BYTES // union_bytes(cfg, 1, 0, 0)
    egs = [random_encoded(rng, n=1, d_in=4, edge_prob=0.0, representation=cfg.edge_repr)
           for _ in range(2 * atoms_per_union + 1)]
    assert all(eg.n_edges == 0 for eg in egs)
    groups = union_groups(egs, cfg)
    assert [len(group) for group in groups] == [atoms_per_union] * 2 + [1]


def shuffled_sizes_batch(rng, cfg, count):
    """Graphs of 0 to 9 atoms in shuffled order, some without edges."""
    sizes = rng.permutation(np.arange(count) % 10)
    egs = [random_encoded(rng, n=int(n), d_in=4, representation=cfg.edge_repr,
                          edge_prob=0.0 if i % 7 == 3 else 0.7)
           for i, n in enumerate(sizes)]
    assert [eg.n_atoms for eg in egs] != sorted(eg.n_atoms for eg in egs)
    return egs


@pytest.mark.parametrize("bound", ["module", "small"])
@pytest.mark.parametrize("message_fn,readout,overrides", [
    ("edge_network", "set2set", {}),
    ("matmul", "dtnn_sum", dict(towers_k=2)),
    ("dtnn", "ggnn", dict(d_master=4)),
])
def test_shuffled_sizes_come_back_in_input_order(rng, monkeypatch, bound, message_fn,
                                                 readout, overrides):
    cfg = make_cfg(message_fn, readout, d=4, n_targets=2, **overrides)
    if bound == "small":
        # a bound a few graphs fill, so the rows come from several unions
        monkeypatch.setattr(model, "UNION_BYTES", 8 * 4 * 60)
    params = init_params(cfg, seed=9)
    jitter_biases(params, rng)
    egs = shuffled_sizes_batch(rng, cfg, 12)
    assert (len(union_groups(egs, cfg)) > 2) == (bound == "small")
    with T.no_grad():
        batch = predict_batch(egs, params, cfg).data
        for i, eg in enumerate(egs):
            assert np.max(np.abs(batch[i] - model_forward(eg, params, cfg).data)) <= BATCH_TOL
    probe = Tensor(rng.normal(size=batch.shape))

    def loss(p):
        return T.reduce_sum(T.mul(predict_batch(egs, p, cfg), probe))

    # over a dozen graphs some ReLU unit sits within a 1e-3 step of its kink
    check_grad_against_fd(loss, params, label=f"{message_fn}+{readout}", step=1e-5)


def test_rows_in_order_take_no_gather(rng):
    cfg = make_cfg("matmul", "ggnn")
    params = init_params(cfg, seed=10)
    egs = [random_encoded(rng, n=n, d_in=4) for n in (2, 3, 3, 5)]

    def taped(batch):
        predict_batch(batch, params, cfg)
        ops = [rule.__qualname__.split(".")[0] for _, _, rule in T.active_tape()]
        T.active_tape().clear()
        return ops

    in_order, reversed_ = taped(egs), taped(egs[::-1])
    assert reversed_[-1] == "gather_rows"
    assert reversed_[:-1] == in_order


def test_packing_depends_only_on_the_batch(rng):
    cfg = make_cfg("edge_network", "ggnn", d=32, T=1)
    params = init_params(cfg, seed=11)
    egs = [random_encoded(rng, n=int(n), d_in=4, edge_prob=1.1,
                          representation=cfg.edge_repr)
           for n in rng.integers(4, 30, size=30)]
    copies = [dataclasses.replace(eg, **{f: np.copy(v) for f, v in vars(eg).items()
                                         if isinstance(v, np.ndarray)}) for eg in egs]
    groups = union_groups(egs, cfg)
    assert len(groups) > 1
    assert union_groups(egs, cfg) == groups == union_groups(copies, cfg)
    with T.no_grad():
        first = predict_batch(egs, params, cfg).data
        again = predict_batch(copies, params, cfg).data
    assert first.tobytes() == again.tobytes()


def test_each_graphs_degree_is_counted_once(rng, monkeypatch):
    # the edge network over raw vectors packs by each graph's largest
    # degree, which a graph counts on first use and keeps: packing the same
    # graphs again counts nothing
    cfg = make_cfg("edge_network", "ggnn", d=32, T=1)
    egs = [random_encoded(rng, n=int(n), d_in=4, edge_prob=0.7,
                          representation=cfg.edge_repr)
           for n in rng.integers(4, 30, size=30)]
    egs.append(random_encoded(rng, n=3, d_in=4, edge_prob=0.0, representation=cfg.edge_repr))
    groups = union_groups(egs, cfg)
    assert len(groups) > 1
    for eg in egs:
        lay = layout([eg], cfg)
        counts = [np.bincount(plan.index, minlength=eg.n_atoms) for plan in (lay.src, lay.dst)]
        assert eg.max_degree == max(c.max() for c in counts)
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(a) or bincount(*a, **kw))
    assert union_groups(egs, cfg) == groups
    assert not calls


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
    ("matmul", "ggnn", dict(towers_k=2)),
    ("edge_network", "ggnn", dict(towers_k=2)),
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


class TestMemberLayout:
    def test_offsets_and_graph_index(self, rng):
        a = random_encoded(rng, n=3, d_in=4, edge_prob=1.1)
        b = random_encoded(rng, n=2, d_in=4, edge_prob=1.1)
        lay = layout([a, b], make_cfg("pair_message", "ggnn", edge_repr="chemical"))
        assert (lay.node_features.shape[0], lay.dst.index.size, lay.graphs.num_segments) == (
            5, 8, 2)
        np.testing.assert_array_equal(lay.graphs.index, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(lay.node_features[3:], b.node_features)
        # b's edges follow a's six, its pairs both ways, shifted by a's nodes
        np.testing.assert_array_equal(lay.src.index[6:], np.concatenate([b.pair_i, b.pair_j]) + 3)
        np.testing.assert_array_equal(lay.dst.index[6:], np.concatenate([b.pair_j, b.pair_i]) + 3)
        np.testing.assert_array_equal(lay.rows.data[6:, 0],
                                      np.eye(4)[np.tile(b.pair_features, 2)])

    def test_members_must_agree(self, rng):
        chem = random_encoded(rng, n=3, d_in=4)
        raw = random_encoded(rng, n=3, d_in=4, representation="raw_distance")
        for cfg in (make_cfg("matmul", "ggnn"), make_cfg("edge_network", "ggnn")):
            with pytest.raises(ContractError, match="encoded as"):
                layout([chem, raw], cfg)
        with pytest.raises(ContractError):
            layout([], make_cfg("matmul", "ggnn"))


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
     "721c514d7c8400645bfb43e2a1343859944bf30f218e46b66dd003f0df015509"),
    ("matmul", "ggnn", dict(towers_k=4),
     "4ebb94a692cd77583e894fa926e92ec053b6baf09fe649178bd8b8ee1f5ac712"),
    ("edge_network", "ggnn", {},
     "8652cf999e995afaf02faec80e717a953ab853c4fc33d24779ea489ada3ce701"),
    ("edge_network", "ggnn", dict(towers_k=4),
     "2747aa932d0308065a4a451bd27709544a5fdcf83a5a4466d8b06ddb90cbf87e"),
    ("edge_network", "ggnn", dict(edge_repr="chemical"),
     "b131bee339081b4b99afb0b41dbbdbcea3f0add0f2003dd436e4e33337a97322"),
    ("pair_message", "dtnn_sum", {},
     "e88f1b10f63b4217607d45c4f368170216d56efb193d2798be2cc2ac642e7749"),
    ("pair_message", "dtnn_sum", dict(towers_k=4),
     "3f9914e2b965d36af8e4cb43bbe0e0fc73ba13f274aa6326b4e93f885309904b"),
    ("edge_network", "set2set", dict(d_master=8),
     "2259d0ae69d0199d6d3fa8c01874fb6825bcb27b8958a0edfe341833847d08b9"),
    ("matmul", "set2set", dict(d_master=8, update_fn="dtnn_residual"),
     "52730dadca8b8e08dd7c635943f9e651af32a8557a7d5097fbc38b5d09c7cd38"),
], ids=["matmul", "matmul_k4", "edge_network", "edge_network_k4", "edge_network_chemical",
        "pair_message", "pair_message_k4", "edge_network_master_set2set",
        "matmul_master_set2set_residual"])
def test_outputs_and_gradients_pinned(message_fn, readout, overrides, digest):
    # pinned before the edge-only work moved into one place per message
    # function: that move keeps these bits. The three edge-network digests
    # were re-pinned when pair_matvec's matrix gradient became factors that
    # backward sums over all steps in one matmul: forward outputs kept their
    # bits, the edge-network weight gradients moved by at most 3.4e-16 of
    # their largest entry, and the other five digests did not change. They
    # were re-pinned again when the edge network over raw distances stopped
    # building a matrix per pair (``tt.edge_message``): against the per-pair
    # path the outputs moved by at most 1.1e-16 and the gradients by at most
    # 1.3e-15, each relative to its array's largest entry. The chemical-label
    # case, which multiplies one matrix per label, was pinned on that change;
    # against the per-pair path its outputs kept their bits and its
    # gradients moved by at most 3.4e-16.
    # All nine were re-pinned when unions began to take their graphs in
    # order of atom count (``model.union_groups``): the mixed batch is still
    # one union, its nodes and edges now in another order. Against the
    # input-order union every output kept its bits, and the largest gradient
    # deviation, relative to its array's largest entry, was: matmul 3.7e-16,
    # matmul_k4 7.4e-16, edge_network 3.3e-16, edge_network_k4 5.1e-16,
    # edge_network_chemical 4.5e-16, pair_message 3.3e-16, pair_message_k4
    # 4.4e-16, edge_network_master_set2set 2.9e-16,
    # matmul_master_set2set_residual 1.5e-16.
    # The four digests over labels (matmul, matmul_k4, edge_network_chemical
    # and matmul_master_set2set_residual) were re-pinned when every matrix
    # message became one ``tt.edge_message`` (over labels now
    # ``tt.label_message``) that reads each message from its far node's
    # products: each node now adds its messages in edge order, not label by
    # label. Against the per-label message the outputs
    # moved by at most 4.1e-17, 0, 0 and 1.0e-16 and the gradients by at
    # most 3.5e-16, 2.5e-16, 6.2e-16 and 9.0e-16, each relative to its
    # array's largest entry; the other five kept their bits.
    # The same four were re-pinned when one ``tt.label_message`` began to
    # send both channels, each edge's row carrying its reverse's
    # out-message, so the out channel sums in the order of the edges its
    # messages ride with, and h's gradient sums both channels in one
    # product. Against the two calls per step the outputs kept their bits
    # and the gradients moved by at most 2.7e-16, 3.7e-16, 6.2e-16 and
    # 7.1e-16, each relative to its array's largest entry; the other five
    # kept their bits.
    # The five over raw distances (edge_network, edge_network_k4,
    # pair_message, pair_message_k4, edge_network_master_set2set) were
    # re-pinned when every message function began to send both channels
    # along the edges from their sources to their destinations: the out
    # channel sums the messages of the edges arriving at a node, each
    # edge's reverse standing in for the edge leaving it, so it sums in
    # another order, and h's gradient adds the two channels' products.
    # Against the per-channel messages the outputs moved by at most 0,
    # 2.5e-17, 0, 0 and 0 and the gradients by at most 3.9e-16, 3.5e-16,
    # 1.9e-16, 2.3e-16 and 4.1e-16, each relative to its array's largest
    # entry; the four over labels kept their bits.
    cfg = make_cfg(message_fn, readout, d=8, **overrides)
    assert _forward_backward_digest(cfg) == digest


@pytest.mark.parametrize("name", ["msg_in_en_w1", "msg_out_en_b2"])
def test_non_finite_edge_network_weight_raises(rng, name):
    # a NaN written into a weight past Tensor's check, as an in-place update
    # could write it, reaches the moves that lay out the first layer's
    # stack (w1) or the last unit of the node products (b2), which do not
    # scan, and must still stop the forward
    cfg = make_cfg("edge_network", "set2set")
    params = init_params(cfg, seed=3)
    params[name].data[(0,) * params[name].data.ndim] = np.nan
    with T.no_grad(), pytest.raises(T.NumericError):
        predict_batch(mixed_batch(rng, cfg), params, cfg)


class TestKeptPackings:
    """An untaped ``predict_batch`` keeps its packing, the unions' layouts
    and the order plan, keyed by the config and the identity of the
    graphs in order; a repeated evaluation runs only the weights."""

    @pytest.fixture(autouse=True)
    def nothing_kept(self, monkeypatch):
        monkeypatch.setattr(model, "_kept", type(model._kept)())

    @staticmethod
    def count_packing_work(monkeypatch):
        """Calls, by name, of everything that builds a packing."""
        from mpnnkit import engine
        calls = []
        for owner, name in ((model, "layout"), (T, "segments"), (T, "label_plan"),
                            (T, "block_plan"), (engine, "_check_encoding")):
            def counted(*args, _fn=getattr(owner, name), _name=name, **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("message_fn,readout,overrides", [
        ("matmul", "ggnn", dict(towers_k=2)),
        ("edge_network", "set2set", {}),
        ("edge_network", "dtnn_sum", dict(edge_repr="chemical")),
        ("pair_message", "dtnn_sum", dict(d_master=6)),
        ("dtnn", "set2set", dict(d_master=4)),
        ("matmul", "set2set", dict(d_master=6, master_in_readout=False)),
    ])
    def test_a_second_untaped_call_runs_only_the_weights(self, rng, monkeypatch, message_fn,
                                                         readout, overrides):
        cfg = make_cfg(message_fn, readout, d=6, **overrides)
        # a bound a few graphs fill, so the rows come from several unions
        # in another order than the batch's
        monkeypatch.setattr(model, "UNION_BYTES", 8 * 6 * 60)
        params = init_params(cfg, seed=4)
        jitter_biases(params, rng)
        egs = shuffled_sizes_batch(rng, cfg, 14)
        assert len(union_groups(egs, cfg)) > 1
        calls = self.count_packing_work(monkeypatch)
        with T.no_grad():
            first = predict_batch(egs, params, cfg).data
            built = sorted(set(calls))
            calls.clear()
            # a new list of the same graphs is the same key
            again = predict_batch(list(egs), params, cfg).data
        assert not calls
        assert {"layout", "segments", "_check_encoding"} <= set(built)
        assert first.tobytes() == again.tobytes()
        with T.no_grad():
            for i, eg in enumerate(egs):
                assert np.max(np.abs(again[i] - model_forward(eg, params, cfg).data)) <= BATCH_TOL

    def test_taped_calls_keep_nothing(self, rng):
        cfg = make_cfg("matmul", "ggnn")
        params = init_params(cfg, seed=5)
        pool = [random_encoded(rng, n=int(n), d_in=4) for n in rng.integers(2, 9, size=30)]
        with T.no_grad():
            predict_batch(pool[:10], params, cfg)
        kept = list(model._kept.items())
        assert len(kept) == 1
        for _ in range(50):
            batch = [pool[i] for i in rng.integers(0, len(pool), size=6)]
            T.backward(T.reduce_sum(predict_batch(batch, params, cfg)))
        assert list(model._kept.items()) == kept

    def test_a_taped_call_reads_a_kept_packing(self, rng, monkeypatch):
        cfg = make_cfg("edge_network", "set2set")
        params = init_params(cfg, seed=6)
        egs = mixed_batch(rng, cfg)
        probe = Tensor(rng.normal(size=(len(egs), cfg.n_targets)))

        def grads():
            T.backward(T.reduce_sum(T.mul(predict_batch(egs, params, cfg), probe)))
            out = {name: p.grad.copy() for name, p in params.items()}
            for p in params.values():
                p.zero_grad()
            return out

        fresh = grads()
        assert not model._kept
        with T.no_grad():
            predict_batch(egs, params, cfg)
        calls = self.count_packing_work(monkeypatch)
        kept = grads()
        assert not calls
        assert all(kept[name].tobytes() == fresh[name].tobytes() for name in params)

    def test_another_config_or_order_misses(self, rng, monkeypatch):
        cfg = make_cfg("dtnn", "ggnn")
        params = init_params(cfg, seed=7)
        egs = mixed_batch(rng, cfg)
        calls = self.count_packing_work(monkeypatch)
        with T.no_grad():
            predict_batch(egs, params, cfg)
            for other, batch in ((dataclasses.replace(cfg, T=3), egs),
                                 (cfg, egs[::-1]), (cfg, egs[:-1])):
                calls.clear()
                rows = predict_batch(batch, init_params(other, seed=7), other).data
                assert "layout" in calls
                assert rows.shape == (len(batch), cfg.n_targets)
        assert len(model._kept) == 4

    def test_the_byte_bound_evicts_the_least_recently_used(self, rng, monkeypatch):
        cfg = make_cfg("pair_message", "ggnn")
        params = init_params(cfg, seed=8)
        a, b, c, big = ([random_encoded(rng, n=n, d_in=4, representation=cfg.edge_repr)
                         for n in sizes] for sizes in ((3, 4, 5), (4, 5, 3), (5, 3, 4), (9,) * 12))
        size = {name: model._pack(batch, cfg).nbytes
                for name, batch in (("a", a), ("b", b), ("c", c), ("big", big))}
        monkeypatch.setattr(model, "KEPT_BYTES", size["a"] + size["b"] + size["c"] - 1)
        assert size["big"] > model.KEPT_BYTES
        keys = {name: (cfg, tuple(map(id, batch)))
                for name, batch in (("a", a), ("b", b), ("c", c), ("big", big))}
        with T.no_grad():
            for batch in (a, b, a, c):
                predict_batch(batch, params, cfg)
            # b was used least recently, so it left to make room for c
            assert list(model._kept) == [keys["a"], keys["c"]]
            # a call over the bound alone is not kept and evicts nothing
            predict_batch(big, params, cfg)
        assert list(model._kept) == [keys["a"], keys["c"]]
        assert sum(b for _, b in model._kept.values()) <= model.KEPT_BYTES

    def test_threads_share_the_kept_packings(self, rng, monkeypatch):
        # more threads than cores, switching often, evicting as they go:
        # every row keeps its bits and the kept bytes stay within the bound
        import sys
        import threading
        cfg = make_cfg("matmul", "dtnn_sum")
        params = init_params(cfg, seed=10)
        batches = [mixed_batch(rng, cfg) for _ in range(6)]
        with T.no_grad():
            want = [predict_batch(batch, params, cfg).data.tobytes() for batch in batches]
        monkeypatch.setattr(model, "KEPT_BYTES", 3 * max(b for _, b in model._kept.values()))
        model._kept.clear()
        got, errors = [], []

        def work(offset):
            try:
                with T.no_grad():
                    for i in range(30):
                        j = (offset + i) % len(batches)
                        got.append(predict_batch(batches[j], params, cfg).data.tobytes()
                                   == want[j])
            except Exception as exc:  # reported below, with the failing thread's error
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(got) == 8 * 30 and all(got)
        assert sum(b for _, b in model._kept.values()) <= model.KEPT_BYTES

    def test_a_write_into_a_kept_graph_raises(self, rng):
        cfg = make_cfg("matmul", "ggnn", d_master=6)
        params = init_params(cfg, seed=9)
        egs = mixed_batch(rng, cfg)
        with T.no_grad():
            predict_batch(egs, params, cfg)
        (packing, _), = model._kept.values()
        for eg in egs:
            for name in ("node_features", "pair_i", "pair_j", "pair_features"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(eg, name)[...] = 0
        # every array a kept layout holds, its plans' too
        arrays, todo = [], list(packing.layouts)
        while todo:
            obj = todo.pop()
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif isinstance(obj, Tensor):
                todo.append(obj.data)
            elif dataclasses.is_dataclass(obj):
                todo.extend(vars(obj).values())
        assert any(arr is lay.node_features for lay in packing.layouts for arr in arrays)
        assert len(arrays) > 10 * len(packing.layouts)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
