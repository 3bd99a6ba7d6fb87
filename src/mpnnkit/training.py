"""Training loop, Adam, LR schedule, metrics, and random hyperparameter search.

Targets are normalized per training-split statistics (population standard
deviation); the loss is mean squared error in normalized space while all
reported errors are mean absolute error in original units. Every run is
bitwise deterministic given its seed and config: parameter init, batch
order, and evaluation cadence all derive from the seed, and run logs carry
no wall-clock data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import tensor as tt
from .engine import ModelConfig, init_params
from .model import predict_batch, prepare_graph
from .molgraph import TARGET_NAMES, EncodedGraph, MolecularGraph
from .tensor import ContractError, NumericError, Tensor, _atomic_write

__all__ = [
    "CHEMICAL_ACCURACY",
    "DegenerateTargetError",
    "SearchFailedError",
    "TargetStats",
    "TrainConfig",
    "SearchSpace",
    "TrainResult",
    "TrialResult",
    "SearchResult",
    "lr_at",
    "Adam",
    "loss_and_metrics",
    "evaluate",
    "error_ratio",
    "split_indices",
    "split_dataset",
    "targets_matrix",
    "train_run",
    "random_search",
    "write_report_csv",
]


# Accuracy thresholds the error ratios are measured against, one per target,
# in the targets' own units.
CHEMICAL_ACCURACY = {
    "mu": 0.1, "alpha": 0.1, "homo": 0.043, "lumo": 0.043, "gap": 0.043,
    "r2": 1.2, "zpve": 0.0012, "u0": 0.043, "u": 0.043, "h": 0.043,
    "g": 0.043, "cv": 0.050, "omega": 10.0,
}
assert tuple(CHEMICAL_ACCURACY) == TARGET_NAMES


class DegenerateTargetError(ValueError):
    """A target is constant on the training split; it cannot be normalized."""


class SearchFailedError(RuntimeError):
    """Every search trial diverged."""


@dataclass(frozen=True)
class TargetStats:
    """Mean and population standard deviation per target column."""

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_matrix(cls, y: np.ndarray, names: Sequence[str]) -> "TargetStats":
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != len(names):
            raise ContractError("target matrix must be (n_samples, n_targets)")
        mean = y.mean(axis=0)
        std = y.std(axis=0)  # population convention: divide by N
        bad = np.flatnonzero(std <= 0)
        if bad.size:
            raise DegenerateTargetError(
                f"constant target(s) on the training split: "
                f"{[names[i] for i in bad]}")
        return cls(names=tuple(names), mean=mean, std=std)

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) * self.std + self.mean

    def to_dict(self) -> dict:
        return {"names": list(self.names), "mean": self.mean.tolist(),
                "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "TargetStats":
        """The stats ``to_dict`` wrote; a field of the wrong JSON type raises
        ContractError naming it."""
        names = obj["names"]
        if not (type(names) is list and set(map(type, names)) <= {str}):
            raise ContractError("stats field 'names' is not a list of names")
        for key in ("mean", "std"):
            if not (type(obj[key]) is list and len(obj[key]) == len(names)
                    and set(map(type, obj[key])) <= {float, int}):
                raise ContractError(f"stats field {key!r} is not a list of "
                                    f"{len(names)} numbers")
        return cls(names=tuple(names),
                   mean=np.array(obj["mean"], dtype=np.float64),
                   std=np.array(obj["std"], dtype=np.float64))


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    batch_size: int = 20
    init_lr: float = 1e-4
    decay_start_fraction: float = 0.5
    decay_factor: float = 0.1
    seed: int = 0
    # "all", or the index of a single target in the fixed 13-target order.
    targets: str | int = "all"
    eval_every: int = 1000

    def __post_init__(self):
        if self.total_steps < 1:
            raise ContractError("total_steps must be positive")
        if self.batch_size < 1:
            raise ContractError("batch_size must be positive")
        if not 1e-5 <= self.init_lr <= 5e-4:
            raise ContractError("init_lr must lie in [1e-5, 5e-4]")
        if not 0.1 <= self.decay_start_fraction <= 0.9:
            raise ContractError("decay_start_fraction must lie in [0.1, 0.9]")
        if not 0.01 <= self.decay_factor <= 1.0:
            raise ContractError("decay_factor must lie in [0.01, 1]")
        if self.eval_every < 1:
            raise ContractError("eval_every must be positive")
        if self.targets != "all":
            if not isinstance(self.targets, int) or not 0 <= self.targets < len(TARGET_NAMES):
                raise ContractError(f"targets must be 'all' or an index in [0, "
                                    f"{len(TARGET_NAMES)})")

    @property
    def target_indices(self) -> list[int]:
        if self.targets == "all":
            return list(range(len(TARGET_NAMES)))
        return [int(self.targets)]

    @property
    def target_names(self) -> list[str]:
        return [TARGET_NAMES[i] for i in self.target_indices]


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Constant at init_lr, then linear down to init_lr*decay_factor.

    The decay segment starts at decay_start_fraction of total_steps and ends
    at total_steps; past the end the final rate holds.
    """
    if step < 0:
        raise ContractError("step must be nonnegative")
    start = cfg.decay_start_fraction * cfg.total_steps
    final = cfg.init_lr * cfg.decay_factor
    if step <= start:
        return cfg.init_lr
    if step >= cfg.total_steps:
        return final
    frac = (step - start) / (cfg.total_steps - start)
    return cfg.init_lr * (1.0 - frac) + final * frac


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for {k}")
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * (g * g)
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def loss_and_metrics(pred_norm: np.ndarray, target_norm: np.ndarray,
                     stats: TargetStats) -> tuple[float, np.ndarray]:
    """(MSE in normalized space, per-target MAE in original units)."""
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    target_norm = np.asarray(target_norm, dtype=np.float64)
    if pred_norm.shape != target_norm.shape:
        raise ContractError("prediction and target shapes differ")
    diff = pred_norm - target_norm
    mse = float(np.mean(diff * diff))
    mae = np.mean(np.abs(diff), axis=0) * stats.std
    return mse, mae


def error_ratio(mae: float, target: int | str) -> float:
    """MAE divided by the target's chemical accuracy (lower is better)."""
    if isinstance(target, str):
        name = target
    elif isinstance(target, (int, np.integer)) and 0 <= target < len(TARGET_NAMES):
        name = TARGET_NAMES[target]
    else:
        name = None
    if name not in CHEMICAL_ACCURACY:
        raise ContractError(f"unknown target {target!r}")
    if mae < 0:
        raise ContractError("MAE must be nonnegative")
    return mae / CHEMICAL_ACCURACY[name]


def split_indices(n: int, seed: int, valid_size: int = 10000,
                  test_size: int = 10000) -> tuple[list[int], list[int], list[int]]:
    """Seeded index split into (train, valid, test), disjoint and exhaustive."""
    if valid_size < 1 or test_size < 1:
        raise ContractError("split sizes must be positive")
    if n <= valid_size + test_size:
        raise ContractError(
            f"dataset of {n} too small for valid={valid_size}, test={test_size}")
    perm = np.random.default_rng(seed).permutation(n)
    valid = perm[:valid_size]
    test = perm[valid_size:valid_size + test_size]
    train = perm[valid_size + test_size:]
    return train.tolist(), valid.tolist(), test.tolist()


def split_dataset(dataset: Sequence, seed: int, valid_size: int = 10000,
                  test_size: int = 10000):
    """Seeded random split into (train, valid, test) subsets of the dataset."""
    train, valid, test = split_indices(len(dataset), seed, valid_size, test_size)
    return ([dataset[i] for i in train], [dataset[i] for i in valid],
            [dataset[i] for i in test])


def targets_matrix(graphs: Sequence[MolecularGraph],
                   indices: Sequence[int]) -> np.ndarray:
    rows = []
    for g in graphs:
        if g.targets is None:
            raise ContractError("graph without targets in a training set")
        rows.append([g.targets[i] for i in indices])
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    stats: TargetStats
    params: dict[str, Tensor]           # weights of the best checkpoint
    best_step: int
    best_valid_mae: float               # mean over selected targets
    valid_mae_per_target: dict[str, float]
    test_mae_per_target: dict[str, float]
    history: list[dict]
    initial_train_mse: float
    final_train_mse: float
    final_train_mae_per_target: dict[str, float]


def evaluate(egs: Sequence[EncodedGraph], y_norm: np.ndarray,
             params: dict[str, Tensor], cfg: ModelConfig,
             stats: TargetStats) -> tuple[float, np.ndarray]:
    """Full-split MSE and per-target MAE without touching the tape.

    ``predict_batch`` bounds its unions by edges, so a whole split is one
    call.
    """
    with tt.no_grad():
        pred = predict_batch(egs, params, cfg).data
    return loss_and_metrics(pred, y_norm, stats)


def train_run(train_graphs: Sequence[MolecularGraph],
              valid_graphs: Sequence[MolecularGraph],
              test_graphs: Sequence[MolecularGraph],
              model_cfg: ModelConfig, train_cfg: TrainConfig,
              log_path: Optional[str] = None,
              checkpoint_path: Optional[str] = None) -> TrainResult:
    """Train one model; select the checkpoint with the best validation MAE.

    The run log gets one JSON line per evaluation:
    {step, lr, train_mse, valid_mae_per_target}, only the trained targets.
    """
    sel = train_cfg.target_indices
    names = train_cfg.target_names
    cfg = replace(model_cfg, n_targets=len(sel))

    y_train = targets_matrix(train_graphs, sel)
    stats = TargetStats.from_matrix(y_train, names)
    yn_train = stats.normalize(y_train)
    yn_valid = stats.normalize(targets_matrix(valid_graphs, sel))
    yn_test = stats.normalize(targets_matrix(test_graphs, sel))

    eg_train = [prepare_graph(g, cfg) for g in train_graphs]
    eg_valid = [prepare_graph(g, cfg) for g in valid_graphs]
    eg_test = [prepare_graph(g, cfg) for g in test_graphs]

    params = init_params(cfg, seed=train_cfg.seed)
    opt = Adam(params)
    batch_rng = np.random.default_rng(train_cfg.seed + 1)

    initial_mse, _ = evaluate(eg_train, yn_train, params, cfg, stats)
    history: list[dict] = []
    best = {"step": 0, "mae": math.inf, "per_target": {}, "snapshot": None}
    log_lines: list[str] = []
    last_train_mse = initial_mse

    def evaluate_and_log(step: int) -> None:
        valid_mse, valid_mae = evaluate(eg_valid, yn_valid, params, cfg, stats)
        record = {
            "step": step,
            "lr": lr_at(step, train_cfg),
            "train_mse": last_train_mse,
            "valid_mae_per_target": {n: float(m) for n, m in zip(names, valid_mae)},
        }
        history.append(record)
        log_lines.append(json.dumps(record, sort_keys=True))
        mean_mae = float(valid_mae.mean())
        if mean_mae < best["mae"]:
            best.update(step=step, mae=mean_mae,
                        per_target={n: float(m) for n, m in zip(names, valid_mae)},
                        snapshot={k: p.data.copy() for k, p in params.items()})

    evaluate_and_log(0)
    n_train = len(eg_train)
    for step in range(1, train_cfg.total_steps + 1):
        idx = batch_rng.integers(0, n_train, size=train_cfg.batch_size)
        preds = predict_batch([eg_train[i] for i in idx], params, cfg)
        target = Tensor(yn_train[idx])
        diff = tt.sub(preds, target)
        loss = tt.mul(tt.reduce_sum(tt.mul(diff, diff)),
                      Tensor(1.0 / diff.data.size))
        last_train_mse = loss.item()
        tt.backward(loss)
        opt.step(lr_at(step, train_cfg))
        opt.zero_grad()
        if step % train_cfg.eval_every == 0 or step == train_cfg.total_steps:
            evaluate_and_log(step)

    # Restore the best checkpoint before the test evaluation.
    if best["snapshot"] is None:
        raise NumericError("no evaluation produced a finite validation MAE")
    for k, p in params.items():
        p.data[...] = best["snapshot"][k]
    test_mse, test_mae = evaluate(eg_test, yn_test, params, cfg, stats)
    final_train_mse, final_train_mae = evaluate(eg_train, yn_train, params,
                                                cfg, stats)

    if log_path:
        _atomic_write(log_path, "\n".join(log_lines) + "\n")
    if checkpoint_path:
        tt.save_params(params, checkpoint_path)

    return TrainResult(
        model_cfg=cfg,
        train_cfg=train_cfg,
        stats=stats,
        params=params,
        best_step=best["step"],
        best_valid_mae=best["mae"],
        valid_mae_per_target=best["per_target"],
        test_mae_per_target={n: float(m) for n, m in zip(names, test_mae)},
        history=history,
        initial_train_mse=initial_mse,
        final_train_mse=final_train_mse,
        final_train_mae_per_target={n: float(m) for n, m in
                                    zip(names, final_train_mae)},
    )


def write_report_csv(path: str, mae_per_target: dict[str, float]) -> None:
    """Per-target MAE, accuracy threshold, and their ratio, one row per target."""
    lines = ["target,mae,chemical_accuracy,error_ratio"]
    for name, mae in mae_per_target.items():
        acc = CHEMICAL_ACCURACY[name]
        lines.append(f"{name},{mae!r},{acc!r},{mae / acc!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Random hyperparameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    t_range: tuple[int, int] = (3, 8)
    m_range: tuple[int, int] = (1, 12)
    lr_range: tuple[float, float] = (1e-5, 5e-4)
    decay_start_range: tuple[float, float] = (0.1, 0.9)
    decay_factor_range: tuple[float, float] = (0.01, 1.0)
    message_fns: tuple[str, ...] = ("edge_network",)

    def sample(self, rng: np.random.Generator) -> dict:
        """One uniform draw of the searched hyperparameters."""
        return {
            "T": int(rng.integers(self.t_range[0], self.t_range[1] + 1)),
            "set2set_M": int(rng.integers(self.m_range[0], self.m_range[1] + 1)),
            "init_lr": float(rng.uniform(*self.lr_range)),
            "decay_start_fraction": float(rng.uniform(*self.decay_start_range)),
            "decay_factor": float(rng.uniform(*self.decay_factor_range)),
            "message_fn": str(rng.choice(list(self.message_fns))),
        }


@dataclass
class TrialResult:
    index: int
    sampled: dict
    failed: bool
    best_valid_mae: float = math.inf
    test_mae_per_target: dict[str, float] = field(default_factory=dict)
    error: str = ""


@dataclass
class SearchResult:
    trials: list[TrialResult]
    best_index: int

    @property
    def best(self) -> TrialResult:
        return self.trials[self.best_index]


def _apply_sample(model_cfg: ModelConfig, train_cfg: TrainConfig,
                  sampled: dict, trial_seed: int) -> tuple[ModelConfig, TrainConfig]:
    mc = replace(model_cfg, T=sampled["T"], set2set_M=sampled["set2set_M"],
                 message_fn=sampled["message_fn"])
    tc = replace(train_cfg, init_lr=sampled["init_lr"],
                 decay_start_fraction=sampled["decay_start_fraction"],
                 decay_factor=sampled["decay_factor"], seed=trial_seed)
    return mc, tc


def _run_trial(args) -> TrialResult:
    (index, sampled, train_graphs, valid_graphs, test_graphs,
     model_cfg, train_cfg, seed) = args
    mc, tc = _apply_sample(model_cfg, train_cfg, sampled, seed)
    try:
        result = train_run(train_graphs, valid_graphs, test_graphs, mc, tc)
    except NumericError as exc:
        return TrialResult(index=index, sampled=sampled, failed=True,
                           error=str(exc))
    return TrialResult(index=index, sampled=sampled, failed=False,
                       best_valid_mae=result.best_valid_mae,
                       test_mae_per_target=result.test_mae_per_target)


def random_search(space: SearchSpace, budget: int,
                  train_graphs, valid_graphs, test_graphs,
                  model_cfg: ModelConfig, train_cfg: TrainConfig,
                  seed: int = 0, workers: int = 1) -> SearchResult:
    """Sample ``budget`` configs i.i.d., train each, rank by validation MAE.

    Trials get disjoint seeds derived from ``seed``; with ``workers`` > 1
    they run in separate processes (they share nothing mutable).
    """
    if budget < 1:
        raise ContractError("search budget must be positive")
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(budget):
        sampled = space.sample(rng)
        tasks.append((i, sampled, train_graphs, valid_graphs, test_graphs,
                      model_cfg, train_cfg, seed + 1000 * (i + 1)))
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_run_trial, tasks))
    else:
        trials = [_run_trial(t) for t in tasks]
    ok = [t for t in trials if not t.failed]
    if not ok:
        raise SearchFailedError(f"all {budget} trial(s) diverged")
    best = min(ok, key=lambda t: t.best_valid_mae)
    return SearchResult(trials=trials, best_index=best.index)
