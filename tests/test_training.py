"""Tests for normalization, the LR schedule, Adam, metrics, splits, training
runs, and random search.

Frozen numeric expectations were derived by hand or from loop-based
recomputation before being pinned here.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mpnnkit import tensor as tt
from mpnnkit.engine import ModelConfig, init_params
from mpnnkit.model import predict_batch, prepare_graph
from mpnnkit.molgraph import TARGET_NAMES, Atom, Bond, MolecularGraph
from mpnnkit.tensor import ContractError, NumericError, Tensor
from mpnnkit.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHEMICAL_ACCURACY,
    Adam,
    DegenerateTargetError,
    SearchFailedError,
    SearchSpace,
    TargetStats,
    TrainConfig,
    error_ratio,
    loss_and_metrics,
    lr_at,
    random_search,
    split_dataset,
    targets_matrix,
    train_run,
    write_report_csv,
)


def toy_molecule(rng, targets):
    """A small chain molecule with the given 13 targets."""
    n = int(rng.integers(2, 5))
    elements = [str(rng.choice(["C", "N", "O"])) for _ in range(n)]
    atoms = [
        Atom(element=e, hybridization="sp3",
             hydrogen_count=int(rng.integers(0, 3)),
             position=tuple(rng.normal(scale=2.0, size=3)))
        for e in elements
    ]
    bonds = []
    for i in range(n - 1):
        d = float(np.linalg.norm(np.array(atoms[i].position) -
                                 np.array(atoms[i + 1].position)))
        bonds.append(Bond(i=i, j=i + 1, bond_type="single", distance=d))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds),
                          targets=tuple(float(t) for t in targets))


def toy_dataset(n, seed):
    """Molecules whose target 0 is the degree sum; other targets are noise."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n):
        noise = rng.normal(size=13)
        g = toy_molecule(rng, noise)
        targets = list(g.targets)
        targets[0] = 2.0 * len(g.bonds)  # degree sum of the chain
        graphs.append(dataclasses.replace(g, targets=tuple(targets)))
    return graphs


def small_model(**overrides):
    base = dict(message_fn="matmul", update_fn="gru", readout="ggnn",
                T=1, d=16, n_targets=1, edge_repr="chemical")
    base.update(overrides)
    return ModelConfig(**base)


class TestTargetStats:
    def test_population_std(self):
        y = np.array([[1.0], [2.0], [3.0]])
        stats = TargetStats.from_matrix(y, ["mu"])
        assert stats.mean[0] == 2.0
        # population convention: sqrt(2/3), not the sample estimator
        assert abs(stats.std[0] - 0.816496580927726) < 1e-15

    def test_normalized_moments(self):
        rng = np.random.default_rng(3)
        y = rng.normal(loc=5.0, scale=3.0, size=(40, 4))
        yn = TargetStats.from_matrix(y, TARGET_NAMES[:4]).normalize(y)
        assert np.all(np.abs(yn.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(yn.std(axis=0) - 1.0) < 1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(25, 13)) * 7.0 + 2.0
        stats = TargetStats.from_matrix(y, TARGET_NAMES)
        yn = stats.normalize(y)
        assert np.max(np.abs(stats.denormalize(yn) - y)) < 1e-12

    def test_constant_column_rejected(self):
        y = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(DegenerateTargetError):
            TargetStats.from_matrix(y, ["mu", "alpha"])

    @pytest.mark.parametrize("std", [0, -1])
    def test_stored_std_must_be_positive(self, std):
        # the rule from_matrix applies holds for stats read back, too
        with pytest.raises(DegenerateTargetError, match="'alpha'"):
            TargetStats.from_dict({"names": ["mu", "alpha"], "mean": [0.0, 0.0],
                                   "std": [1.0, std]})

    def test_shape_validation(self):
        with pytest.raises(ContractError):
            TargetStats.from_matrix(np.zeros(5), ["mu"])


class TestChemicalAccuracy:
    def test_table_complete_and_positive(self):
        assert tuple(CHEMICAL_ACCURACY) == TARGET_NAMES
        assert all(v > 0 for v in CHEMICAL_ACCURACY.values())

    def test_selected_entries(self):
        assert CHEMICAL_ACCURACY["homo"] == 0.043
        assert CHEMICAL_ACCURACY["zpve"] == 0.0012
        assert CHEMICAL_ACCURACY["omega"] == 10.0
        assert CHEMICAL_ACCURACY["cv"] == 0.050

    def test_error_ratio_examples(self):
        assert abs(error_ratio(0.04257, "homo") - 0.99) < 1e-12
        assert abs(error_ratio(1.9, "omega") - 0.19) < 1e-12
        # index lookup is equivalent to name lookup
        assert error_ratio(0.5, 0) == error_ratio(0.5, "mu") == 5.0

    def test_error_ratio_validation(self):
        with pytest.raises(ContractError):
            error_ratio(0.1, "banana")
        with pytest.raises(ContractError):
            error_ratio(0.1, 13)
        with pytest.raises(ContractError):
            error_ratio(-0.1, "mu")


class TestLrSchedule:
    def cfg(self, **kw):
        base = dict(total_steps=100, init_lr=1e-4,
                    decay_start_fraction=0.5, decay_factor=0.1)
        base.update(kw)
        return TrainConfig(**base)

    def test_flat_before_decay(self):
        cfg = self.cfg()
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(25, cfg) == 1e-4
        assert lr_at(50, cfg) == 1e-4

    def test_midpoint_of_decay(self):
        # halfway through the decay window: (1e-4 + 1e-5) / 2 = 5.5e-5
        assert abs(lr_at(75, self.cfg()) - 5.5e-5) < 1e-18

    def test_final_and_beyond(self):
        cfg = self.cfg()
        assert abs(lr_at(100, cfg) - 1e-5) < 1e-18
        assert abs(lr_at(150, cfg) - 1e-5) < 1e-18

    def test_monotone_nonincreasing(self):
        cfg = self.cfg(total_steps=37, decay_start_fraction=0.3,
                       decay_factor=0.05)
        rates = [lr_at(s, cfg) for s in range(0, 60)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_no_decay_when_factor_is_one(self):
        cfg = self.cfg(decay_factor=1.0)
        assert lr_at(99, cfg) == 1e-4

    def test_negative_step_rejected(self):
        with pytest.raises(ContractError):
            lr_at(-1, self.cfg())


class TestTrainConfigValidation:
    def test_lr_bounds(self):
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, init_lr=1e-3)
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, init_lr=1e-6)

    def test_fraction_and_factor_bounds(self):
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, decay_start_fraction=0.05)
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, decay_factor=2.0)

    def test_target_selection(self):
        assert TrainConfig(total_steps=10).target_indices == list(range(13))
        cfg = TrainConfig(total_steps=10, targets=4)
        assert cfg.target_indices == [4]
        assert cfg.target_names == ["gap"]
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, targets=13)
        with pytest.raises(ContractError):
            TrainConfig(total_steps=10, targets="homo")
        # a bool is an int to isinstance; True must not pick target 1
        for flag in (True, False):
            with pytest.raises(ContractError):
                TrainConfig(total_steps=10, targets=flag)


class TestAdam:
    def test_first_step_is_minus_lr(self):
        # with g = 1 the bias-corrected first update is lr / (1 + eps) ~ lr
        w = Tensor([0.5], requires_grad=True)
        w.grad[...] = 1.0
        opt = Adam({"w": w})
        opt.step(1e-4)
        assert abs(w.data[0] - (0.5 - 1e-4)) < 1e-11

    def test_zero_gradient_leaves_weight(self):
        w = Tensor([0.7], requires_grad=True)
        opt = Adam({"w": w})
        opt.step(1e-4)
        assert w.data[0] == 0.7

    def test_quadratic_descent_monotone(self):
        # Adam updates have magnitude <= lr, so the walk from w = 2 needs
        # lr * steps to cover the distance with room to settle
        w = Tensor([2.0], requires_grad=True)
        opt = Adam({"w": w})
        values = []
        for _ in range(300):
            loss = tt.reduce_sum(tt.mul(w, w))
            values.append(loss.item())
            tt.backward(loss)
            opt.step(0.05)
            opt.zero_grad()
        assert values[-1] < 0.01
        assert values[-1] < 0.05 * values[0]

    def test_nonfinite_gradient_raises(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad[...] = np.nan
        opt = Adam({"w": w})
        with pytest.raises(NumericError):
            opt.step(1e-4)

    def test_bad_gradient_changes_nothing(self, rng):
        # the NaN sits in the last parameter, so every other one would
        # already have moved if the gradients were checked one at a time
        params = {name: Tensor(rng.normal(size=(3, 2)), requires_grad=True)
                  for name in ("a", "b", "c")}
        opt = Adam(params)
        for p in params.values():
            p.grad[...] = rng.normal(size=(3, 2))
        opt.step(1e-3)
        before = {name: (p.data.copy(), opt.m[name].copy(), opt.v[name].copy())
                  for name, p in params.items()}
        params["c"].grad[2, 1] = np.nan
        with pytest.raises(NumericError, match="for c"):
            opt.step(1e-3)
        assert opt.t == 1
        for name, p in params.items():
            for got, want in zip((p.data, opt.m[name], opt.v[name]), before[name]):
                assert got.tobytes() == want.tobytes()

    def test_two_hand_steps(self):
        # by-hand recursion with constant g = 2, lr = 1e-4
        w = Tensor([1.0], requires_grad=True)
        opt = Adam({"w": w})
        m = v = 0.0
        x = 1.0
        for t in (1, 2):
            w.grad[...] = 2.0
            opt.step(1e-4)
            m = 0.9 * m + 0.1 * 2.0
            v = 0.999 * v + 0.001 * 4.0
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            x -= 1e-4 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(w.data[0] - x) < 1e-15


    def test_bad_gradient_in_the_first_parameter(self, rng):
        params = {name: Tensor(rng.normal(size=(3, 2)), requires_grad=True)
                  for name in ("a", "b", "c")}
        opt = Adam(params)
        for p in params.values():
            p.grad[...] = rng.normal(size=(3, 2))
        opt.step(1e-3)
        before = opt.values.copy(), opt.m_flat.copy(), opt.v_flat.copy()
        params["a"].grad[0, 0] = np.inf
        with pytest.raises(NumericError, match="for a$"):
            opt.step(1e-3)
        assert opt.t == 1
        for got, want in zip((opt.values, opt.m_flat, opt.v_flat), before):
            assert got.tobytes() == want.tobytes()

    def test_parameter_without_gradient_is_refused(self):
        with pytest.raises(ContractError, match="w does not require"):
            Adam({"w": Tensor([1.0])})


def reference_adam_step(params, m, v, t, lr):
    """The per-parameter update ``Adam.step`` made before the flat buffer:
    step ``t`` of every tensor in ``params``, rebinding the moment arrays
    in the dicts ``m`` and ``v``."""
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        g = p.grad
        m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
        v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * (g * g)
        mhat = m[k] / b1c
        vhat = v[k] / b2c
        p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


BUFFER_MODELS = {
    "edge_network": dict(message_fn="edge_network", readout="set2set",
                         edge_repr="raw_distance", d=16, T=2),
    "towers": dict(towers_k=2, T=2),
}


def buffer_model(kind, n_graphs=5):
    """(config, params, encoded graphs, normalized targets) for one model."""
    cfg = small_model(**BUFFER_MODELS[kind])
    graphs = toy_dataset(n_graphs, seed=31)
    egs = [prepare_graph(g, cfg) for g in graphs]
    y = targets_matrix(graphs, [0])
    return cfg, init_params(cfg, seed=5), egs, (y - y.mean()) / y.std()


def batch_loss(egs, y, params, cfg):
    diff = tt.sub(predict_batch(egs, params, cfg), Tensor(y))
    return tt.reduce_sum(tt.mul(diff, diff))


class TestParameterBuffer:
    """Adam owns one flat array of values and one of gradients; every
    parameter tensor holds views into them."""

    @pytest.mark.parametrize("kind", sorted(BUFFER_MODELS))
    def test_flat_update_is_the_per_parameter_update(self, kind):
        cfg, params, egs, y = buffer_model(kind)
        ref = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        opt = Adam(params)
        for t in range(1, 7):
            tt.backward(batch_loss(egs, y, params, cfg))
            for k, p in params.items():
                ref[k].grad[...] = p.grad
            lr = 1e-2 / t
            opt.step(lr)
            reference_adam_step(ref, m, v, t, lr)
            opt.zero_grad()
            for k, p in params.items():
                assert same_bits(p.data, ref[k].data), (t, k)
                assert same_bits(opt.m[k], m[k]) and same_bits(opt.v[k], v[k]), (t, k)
        # the update moved the weights and the gradients reached every kind
        # of parameter
        assert not all(same_bits(p.data, q.data)
                       for p, q in zip(params.values(), init_params(cfg, seed=5).values()))

    def test_tensors_are_views_into_the_buffers(self, rng):
        params = {"a": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                  "b": Tensor(rng.normal(size=(4,)), requires_grad=True),
                  "c": Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)}
        for p in params.values():
            p.grad[...] = rng.normal(size=p.data.shape)
        values = np.concatenate([p.data.ravel() for p in params.values()])
        grads = np.concatenate([p.grad.ravel() for p in params.values()])
        shapes = [p.data.shape for p in params.values()]
        opt = Adam(params)
        assert same_bits(opt.values, values) and same_bits(opt.grads, grads)
        assert opt.m_flat.shape == opt.v_flat.shape == values.shape
        for (k, p), shape in zip(params.items(), shapes):
            assert p.data.shape == p.grad.shape == shape
            assert p.data.flags.c_contiguous and p.grad.flags.c_contiguous
            assert np.shares_memory(p.data, opt.values)
            assert np.shares_memory(p.grad, opt.grads)
            assert np.shares_memory(opt.m[k], opt.m_flat)
            assert np.shares_memory(opt.v[k], opt.v_flat)

    def test_backward_step_and_zero_grad_through_the_views(self):
        cfg, params, egs, y = buffer_model("edge_network")
        opt = Adam(params)
        tt.backward(batch_loss(egs, y, params, cfg))
        # backward summed into the views, so the flat buffer holds every
        # gradient in dict order
        assert same_bits(opt.grads, np.concatenate([p.grad.ravel()
                                                    for p in params.values()]))
        assert np.count_nonzero(opt.grads) > opt.grads.size // 2
        before = opt.values.copy()
        opt.step(1e-3)
        assert np.count_nonzero(opt.values != before) == np.count_nonzero(opt.grads)
        assert same_bits(opt.values, np.concatenate([p.data.ravel()
                                                     for p in params.values()]))
        opt.zero_grad()
        assert all(not p.grad.any() for p in params.values())
        # writes through a tensor land in the buffer
        first = next(iter(params.values()))
        first.data[...] = 0.0
        assert not opt.values[:first.data.size].any()


class TestLossAndMetrics:
    def test_against_loop_recomputation(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        stats = TargetStats(names=("mu", "alpha", "homo"),
                            mean=np.zeros(3), std=np.array([2.0, 0.5, 1.0]))
        mse, mae = loss_and_metrics(pred, target, stats)

        acc = 0.0
        for i in range(6):
            for j in range(3):
                acc += (pred[i, j] - target[i, j]) ** 2
        assert abs(mse - acc / 18.0) < 1e-12

        for j in range(3):
            want = np.mean([abs(pred[i, j] - target[i, j])
                            for i in range(6)]) * stats.std[j]
            assert abs(mae[j] - want) < 1e-12

    def test_perfect_prediction(self):
        y = np.ones((4, 2))
        stats = TargetStats(names=("mu", "alpha"), mean=np.zeros(2),
                            std=np.ones(2))
        mse, mae = loss_and_metrics(y, y, stats)
        assert mse == 0.0 and np.all(mae == 0.0)

    def test_shape_mismatch(self):
        stats = TargetStats(names=("mu",), mean=np.zeros(1), std=np.ones(1))
        with pytest.raises(ContractError):
            loss_and_metrics(np.zeros((3, 1)), np.zeros((4, 1)), stats)


class TestSplitDataset:
    def test_small_example_sizes(self):
        data = list(range(500))
        train, valid, test = split_dataset(data, seed=7, valid_size=50,
                                           test_size=50)
        assert (len(train), len(valid), len(test)) == (400, 50, 50)
        assert sorted(train + valid + test) == data  # disjoint and exhaustive

    def test_full_scale_sizes(self):
        data = np.arange(130462)
        train, valid, test = split_dataset(data, seed=0)
        assert (len(train), len(valid), len(test)) == (110462, 10000, 10000)
        assert len(set(train) | set(valid) | set(test)) == 130462

    def test_deterministic_and_seed_sensitive(self):
        data = list(range(300))
        a = split_dataset(data, seed=11, valid_size=30, test_size=30)
        b = split_dataset(data, seed=11, valid_size=30, test_size=30)
        c = split_dataset(data, seed=12, valid_size=30, test_size=30)
        assert a == b
        assert a != c

    def test_too_small_rejected(self):
        with pytest.raises(ContractError):
            split_dataset(list(range(100)), seed=0, valid_size=50, test_size=50)
        with pytest.raises(ContractError):
            split_dataset(list(range(20000)), seed=0)


class TestTargetsMatrix:
    def test_selection(self):
        graphs = toy_dataset(5, seed=0)
        full = targets_matrix(graphs, range(13))
        one = targets_matrix(graphs, [4])
        assert full.shape == (5, 13)
        assert np.array_equal(one[:, 0], full[:, 4])

    def test_missing_targets_rejected(self):
        g = dataclasses.replace(toy_dataset(1, seed=0)[0], targets=None)
        with pytest.raises(ContractError):
            targets_matrix([g], [0])


class TestTrainRun:
    def run_once(self, tmp_path, seed=5, name="run", **cfg_overrides):
        graphs = toy_dataset(20, seed=1)
        train, valid, test = graphs[:12], graphs[12:16], graphs[16:]
        tc_kw = dict(total_steps=30, batch_size=4, init_lr=5e-4,
                     decay_start_fraction=0.5, decay_factor=1.0, seed=seed,
                     targets=0, eval_every=10)
        tc_kw.update(cfg_overrides)
        log = tmp_path / f"{name}.jsonl"
        ckpt = tmp_path / f"{name}.json"
        result = train_run(train, valid, test, small_model(),
                           TrainConfig(**tc_kw), log_path=str(log),
                           checkpoint_path=str(ckpt))
        return result, log, ckpt

    def test_history_shape_and_log_schema(self, tmp_path):
        result, log, _ = self.run_once(tmp_path)
        steps = [r["step"] for r in result.history]
        assert steps == [0, 10, 20, 30]
        lines = log.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"step", "lr", "train_mse",
                                   "valid_mae_per_target"}
            assert set(record["valid_mae_per_target"]) == {"mu"}

    def test_bitwise_deterministic(self, tmp_path):
        _, log_a, _ = self.run_once(tmp_path, name="a")
        _, log_b, _ = self.run_once(tmp_path, name="b")
        assert log_a.read_text() == log_b.read_text()

    def test_seed_changes_run(self, tmp_path):
        _, log_a, _ = self.run_once(tmp_path, name="a", seed=5)
        _, log_b, _ = self.run_once(tmp_path, name="b", seed=6)
        assert log_a.read_text() != log_b.read_text()

    def test_best_checkpoint_replay(self, tmp_path):
        result, _, ckpt = self.run_once(tmp_path)
        # the returned params are the best-validation snapshot; recomputing
        # the test MAE from the saved checkpoint must reproduce the report
        params = tt.load_params(str(ckpt))
        from mpnnkit.model import predict_batch, prepare_graph
        graphs = toy_dataset(20, seed=1)
        test = graphs[16:]
        egs = [prepare_graph(g, result.model_cfg) for g in test]
        with tt.no_grad():
            pred = predict_batch(egs, params, result.model_cfg)
        yn = result.stats.normalize(targets_matrix(test, [0]))
        _, mae = loss_and_metrics(pred.data, yn, result.stats)
        assert abs(mae[0] - result.test_mae_per_target["mu"]) < 1e-12

    def test_best_step_tracks_min_valid_mae(self, tmp_path):
        result, _, _ = self.run_once(tmp_path)
        by_step = {r["step"]: np.mean(list(r["valid_mae_per_target"].values()))
                   for r in result.history}
        assert result.best_step in by_step
        assert abs(by_step[result.best_step] - result.best_valid_mae) < 1e-12
        assert result.best_valid_mae <= min(by_step.values()) + 1e-12

    def test_single_target_ignores_other_columns(self, tmp_path):
        """Shuffling the unused target columns across molecules changes
        nothing in a single-target run."""
        graphs = toy_dataset(20, seed=1)
        shuffle_rng = np.random.default_rng(99)
        matrix = np.array([g.targets for g in graphs])
        for j in range(1, 13):
            matrix[:, j] = matrix[shuffle_rng.permutation(20), j]
        permuted = [dataclasses.replace(g, targets=tuple(row))
                    for g, row in zip(graphs, matrix)]
        assert any(g.targets != p.targets for g, p in zip(graphs, permuted))

        def run(gs, name):
            train, valid, test = gs[:12], gs[12:16], gs[16:]
            log = tmp_path / f"{name}.jsonl"
            train_run(train, valid, test, small_model(),
                      TrainConfig(total_steps=20, batch_size=4, init_lr=5e-4,
                                  decay_factor=1.0, seed=3, targets=0,
                                  eval_every=10), log_path=str(log))
            return log.read_text()

        assert run(graphs, "orig") == run(permuted, "perm")

    def test_all_targets_run(self, tmp_path):
        result, _, _ = self.run_once(tmp_path, targets="all")
        assert result.model_cfg.n_targets == 13
        assert set(result.test_mae_per_target) == set(TARGET_NAMES)

    def test_only_the_validation_splits_packing_is_kept(self, tmp_path, monkeypatch):
        # the training split is evaluated as a whole once, at step 0, and
        # the test split once, at the end: no later call reads their packings
        from mpnnkit import model
        monkeypatch.setattr(model, "_kept", type(model._kept)())
        self.run_once(tmp_path)
        (packing, _), = model._kept.values()
        valid = toy_dataset(20, seed=1)[12:16]
        assert [eg.node_features.tolist() for eg in packing.graphs] == [
            prepare_graph(g, small_model()).node_features.tolist() for g in valid]

    def test_no_timestamps_in_log(self, tmp_path):
        _, log, _ = self.run_once(tmp_path)
        for line in log.read_text().splitlines():
            assert "time" not in line and "date" not in line


class TestReportCsv:
    def test_rows_and_ratios(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(str(path), {"homo": 0.04257, "omega": 1.9})
        lines = path.read_text().splitlines()
        assert lines[0] == "target,mae,chemical_accuracy,error_ratio"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert float(rows["homo"][3]) == pytest.approx(0.99, abs=1e-12)
        assert float(rows["omega"][3]) == pytest.approx(0.19, abs=1e-12)
        assert float(rows["omega"][2]) == 10.0


class TestSearchSpace:
    def test_sample_ranges(self):
        space = SearchSpace(message_fns=("matmul", "edge_network"))
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = space.sample(rng)
            assert 3 <= s["T"] <= 8 and isinstance(s["T"], int)
            assert 1 <= s["set2set_M"] <= 12
            assert 1e-5 <= s["init_lr"] <= 5e-4
            assert 0.1 <= s["decay_start_fraction"] <= 0.9
            assert 0.01 <= s["decay_factor"] <= 1.0
            assert s["message_fn"] in ("matmul", "edge_network")

    def test_sampling_deterministic(self):
        space = SearchSpace()
        a = [space.sample(np.random.default_rng(5)) for _ in range(3)]
        b = [space.sample(np.random.default_rng(5)) for _ in range(3)]
        assert a == b

    def test_bounds_are_reached_across_draws(self):
        space = SearchSpace()
        rng = np.random.default_rng(1)
        ts = {space.sample(rng)["T"] for _ in range(300)}
        assert ts == {3, 4, 5, 6, 7, 8}  # inclusive integer range

    def test_default_ranges_are_the_ones_train_config_accepts(self):
        # a sampled config is one TrainConfig takes, at either end of the
        # range, and a value just outside is refused
        space = SearchSpace()
        for field, (low, high) in (("init_lr", space.lr_range),
                                   ("decay_start_fraction", space.decay_start_range),
                                   ("decay_factor", space.decay_factor_range)):
            for value in (low, high):
                TrainConfig(total_steps=1, **{field: value})
            for value in (low * 0.99, high * 1.01):
                with pytest.raises(ContractError):
                    TrainConfig(total_steps=1, **{field: value})


class TestRandomSearch:
    def small_search(self, budget=2, workers=1, **space_kw):
        graphs = toy_dataset(18, seed=2)
        train, valid, test = graphs[:10], graphs[10:14], graphs[14:]
        space = SearchSpace(t_range=(1, 2), m_range=(1, 2),
                            message_fns=("matmul",), **space_kw)
        tc = TrainConfig(total_steps=10, batch_size=4, seed=0, targets=0,
                         eval_every=5)
        return random_search(space, budget, train, valid, test,
                             small_model(), tc, seed=21, workers=workers)

    def test_selects_min_validation_mae(self):
        result = self.small_search(budget=3)
        assert len(result.trials) == 3
        finite = [t for t in result.trials if not t.failed]
        assert result.best.best_valid_mae == min(t.best_valid_mae
                                                 for t in finite)
        assert set(result.best.test_mae_per_target) == {"mu"}

    def test_deterministic(self):
        a = self.small_search(budget=2)
        b = self.small_search(budget=2)
        assert [t.sampled for t in a.trials] == [t.sampled for t in b.trials]
        assert a.best_index == b.best_index
        assert a.best.best_valid_mae == b.best.best_valid_mae

    def test_failed_trial_has_no_validation_mae(self, monkeypatch):
        # one value for "no MAE": search.json writes it as null
        from mpnnkit import training
        real, calls = training.train_run, []

        def first_diverges(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise NumericError("diverged")
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "train_run", first_diverges)
        result = self.small_search(budget=2)
        assert result.trials[0].failed and result.trials[0].best_valid_mae is None
        assert result.best_index == 1

    def test_failed_trials_recorded(self):
        # a NaN target poisons the loss tensor and the trial must be
        # recorded as failed rather than crashing the search
        graphs = toy_dataset(18, seed=2)
        bad = [dataclasses.replace(g, targets=(float("nan"),) + g.targets[1:])
               for g in graphs]
        space = SearchSpace(t_range=(1, 1), m_range=(1, 1),
                            message_fns=("matmul",))
        tc = TrainConfig(total_steps=5, batch_size=4, seed=0, targets=0,
                         eval_every=5)
        with pytest.raises(SearchFailedError):
            random_search(space, 2, bad[:10], bad[10:14], bad[14:],
                          small_model(), tc, seed=21)

    def test_budget_validation(self):
        with pytest.raises(ContractError):
            self.small_search(budget=0)

    def test_worker_processes_match_one_process(self):
        # each worker first runs keep_freed_memory as the pool initializer
        a = self.small_search(budget=2)
        b = self.small_search(budget=2, workers=2)
        assert [t.sampled for t in a.trials] == [t.sampled for t in b.trials]
        assert [t.best_valid_mae for t in a.trials] == [t.best_valid_mae for t in b.trials]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_validation(self, workers):
        with pytest.raises(ContractError, match="workers"):
            self.small_search(workers=workers)
