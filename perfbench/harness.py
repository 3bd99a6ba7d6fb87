"""Set-up, train loop, eval loop and correctness gate of one benchmark run.

``measure`` is the untraced run and yields the end-to-end metrics;
``trace`` is the traced run and yields the per-layer metrics. Both run
one workload in a closed loop from a single process, and both run the
same correctness gate. Every train step and every eval chunk is one
operation; it fails when it raises ``NumericError``, produces a non-finite
loss or prediction, or fails the gate.

The benchmark reaches the program only through module attributes
(``model.predict_batch``, ``qm9.read_dataset``, ...), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np

from mpnnkit import checks, engine, model, qm9, training
from mpnnkit import tensor as tt
from mpnnkit.molgraph import TARGET_NAMES

from . import speed, tracing
from .workloads import (EVAL_CHUNK, LEARNING_RATE, TARGET, WARMUP_STEPS,
                        Workload, make_inputs, traffic)

__all__ = ["END_TO_END", "PER_LAYER", "ORACLE_TOLERANCE", "GATE_SAMPLE",
           "Program", "Result", "setup", "Trainer", "eval_chunk",
           "eval_chunks", "eval_pass", "gate",
           "measure", "trace", "keep_freed_memory", "environment", "run"]

SETUP_SHARE = 0.15         # of --seconds spent on repeated set-ups
SETUP_MIN_REPEATS = 5
GATE_SAMPLE = 8            # first held-out graphs, all inside eval chunk 0
ORACLE_TOLERANCE = 1e-12   # predict_batch rows against per-graph model_forward
TRACEMALLOC_STEPS = 3
OVERHEAD_BLOCK = 4         # train steps per untraced or traced block
INIT_SEED = 0              # model weights are the program's, not the input's
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters
MMAP_THRESHOLD = 32 << 20  # glibc's largest
TRIM_THRESHOLD = 1 << 30

END_TO_END = {
    "train_graphs_per_s": "graphs/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "eval_graphs_per_s": "graphs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"tensor.tape_entries_per_step": "count/step",
             "tensor.multiplies_per_step": "count/step",
             "tensor.backward.ms_per_step": "ms/step"}
    for op in tracing.REPORTED_OPS:
        units[f"tensor.{op}.calls_per_step"] = "count/step"
        units[f"tensor.{op}.self_ms_per_step"] = "ms/step"
    units.update({
        "tensor.peak_alloc_mb_per_step": "MB",
        "engine.propagate.ms_per_step": "ms/step",
        "engine.propagate.self_ms_per_step": "ms/step",
        "engine.mlp2.ms_per_step": "ms/step",
        "readout.apply_readout.ms_per_step": "ms/step",
        "model.predict_batch.self_ms_per_step": "ms/step",
        "training.Adam.step.ms_per_step": "ms/step",
    })
    for op in tracing.REPORTED_OPS:
        units[f"eval.tensor.{op}.self_ms_per_graph"] = "ms/graph"
    units.update({
        "eval.engine.propagate.ms_per_graph": "ms/graph",
        "eval.engine.propagate.self_ms_per_graph": "ms/graph",
        "eval.engine.mlp2.ms_per_graph": "ms/graph",
        "eval.readout.apply_readout.ms_per_graph": "ms/graph",
        "eval.model.predict_batch.self_ms_per_graph": "ms/graph",
        "qm9.read_dataset.ms_total": "ms",
        "model.prepare_graph.ms_total": "ms",
        "molgraph.encode.ms_total": "ms",
        "trace.overhead_pct": "%",
        "training.eval_mae": "normalized",
        "checks.bench_towers.multiply_ratio": "ratio",
        "checks.bench_towers.wall_clock_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Program:
    """A model ready to step, with its encoded, normalized data."""

    cfg: engine.ModelConfig
    params: dict[str, tt.Tensor]
    opt: training.Adam
    eg_train: list
    eg_held_out: list
    yn_train: np.ndarray
    yn_held_out: np.ndarray


def setup(w: Workload, pool_path: str, held_out_path: str) -> Program:
    """Dataset files to a model ready to step."""
    pool, _ = qm9.read_dataset(pool_path)
    held_out, _ = qm9.read_dataset(held_out_path)
    cfg = w.model
    eg_train = [model.prepare_graph(g, cfg) for g in pool]
    eg_held_out = [model.prepare_graph(g, cfg) for g in held_out]
    y_train = training.targets_matrix(pool, [TARGET])
    stats = training.TargetStats.from_matrix(y_train, [TARGET_NAMES[TARGET]])
    params = engine.init_params(cfg, seed=INIT_SEED)
    return Program(cfg=cfg, params=params, opt=training.Adam(params),
                   eg_train=eg_train, eg_held_out=eg_held_out,
                   yn_train=stats.normalize(y_train),
                   yn_held_out=stats.normalize(
                       training.targets_matrix(held_out, [TARGET])))


def _timed_setup(w: Workload, pool_path: str, held_out_path: str,
                 clock: speed.Clock) -> Program:
    """``setup``, timed on ``clock`` as a "setup" operation.

    Garbage left by earlier work is collected first, outside the timing,
    so that a set-up does not pay for a collection it did not cause.
    """
    gc.collect()
    clock.reading()
    start = time.perf_counter()
    prog = setup(w, pool_path, held_out_path)
    clock.record("setup", time.perf_counter() - start)
    return prog


def _batch_loss(prog: Program, idx: np.ndarray,
                counter: tt.MultiplyCounter | None = None
                ) -> tuple[tt.Tensor, tt.Tensor]:
    scope = (tt.count_multiplies(counter) if counter is not None
             else contextlib.nullcontext())
    with scope:
        preds = model.predict_batch([prog.eg_train[i] for i in idx],
                                    prog.params, prog.cfg)
    diff = tt.sub(preds, tt.Tensor(prog.yn_train[idx]))
    loss = tt.mul(tt.reduce_sum(tt.mul(diff, diff)),
                  tt.Tensor(1.0 / diff.data.size))
    return preds, loss


class Trainer:
    """The step body of ``training.train_run``, one step per call.

    ``train_run`` draws each batch uniformly from the pool. Here the pool
    is sorted by directed edges and cut into ``batch_size`` bands of equal
    length, and a batch draws one graph from each band. Every batch then
    has the same size mix, so the step-time percentiles measure the
    program rather than which sizes a seed happened to draw together.
    """

    def __init__(self, w: Workload, prog: Program, seed: int):
        self.w, self.prog = w, prog
        self.batch_rng = np.random.default_rng([seed, 2])
        by_edges = sorted(range(len(prog.eg_train)),
                          key=lambda i: (prog.eg_train[i].n_edges, i))
        self.bands = np.array_split(np.array(by_edges), w.batch_size)
        # decay_factor 1 keeps lr_at constant at LEARNING_RATE
        self.train_cfg = training.TrainConfig(
            total_steps=1, batch_size=w.batch_size, init_lr=LEARNING_RATE,
            decay_factor=1.0, targets=TARGET)
        self.steps = 0
        self.failed = 0
        self.losses: list[float] = []
        self.first_batch: np.ndarray | None = None

    def step(self, counter: tt.MultiplyCounter | None = None) -> tuple[float, int]:
        """One train step; returns (wall seconds, tape entries recorded)."""
        prog = self.prog
        self.steps += 1
        entries = 0
        start = time.perf_counter()
        picks = self.batch_rng.integers(0, [len(b) for b in self.bands])
        idx = np.array([b[k] for b, k in zip(self.bands, picks)])
        try:
            preds, loss = _batch_loss(prog, idx, counter)
            loss_value = loss.item()
            entries = len(tt.active_tape())
            tt.backward(loss)
            prog.opt.step(training.lr_at(self.steps, self.train_cfg))
            prog.opt.zero_grad()
        except tt.NumericError:
            tt.active_tape().clear()
            prog.opt.zero_grad()
            preds, loss_value = None, float("nan")
        elapsed = time.perf_counter() - start
        if self.first_batch is None:
            self.first_batch = idx
        if preds is None or not (np.isfinite(loss_value)
                                 and np.all(np.isfinite(preds.data))):
            self.failed += 1
        self.losses.append(loss_value)
        return elapsed, entries

    def first_batch_loss(self) -> float:
        """Loss of the step-1 batch under the current weights."""
        with tt.no_grad():
            _, loss = _batch_loss(self.prog, self.first_batch)
        return loss.item()


def eval_chunk(prog: Program, k: int) -> tuple[np.ndarray, bool, float]:
    """Forward under ``no_grad`` over the ``k``-th chunk of the held-out
    set, as ``training._evaluate`` does it.

    Returns (predicted rows, ok, wall seconds); the chunk is not ok when
    it raises ``NumericError`` or predicts a non-finite value.
    """
    chunk = prog.eg_held_out[k * EVAL_CHUNK:(k + 1) * EVAL_CHUNK]
    start = time.perf_counter()
    try:
        with tt.no_grad():
            rows = model.predict_batch(chunk, prog.params, prog.cfg).data
        ok = True
    except tt.NumericError:
        rows = np.full((len(chunk), prog.cfg.n_targets), np.nan)
        ok = False
    seconds = time.perf_counter() - start
    return rows, ok and bool(np.all(np.isfinite(rows))), seconds


def eval_chunks(prog: Program) -> int:
    """How many chunks the held-out set makes."""
    return -(-len(prog.eg_held_out) // EVAL_CHUNK)


def eval_pass(prog: Program) -> tuple[np.ndarray, list[bool], float]:
    """Forward over the whole held-out set, chunk by chunk.

    Returns (predictions, per-chunk ok flags, wall seconds of the chunks).
    """
    chunks = [eval_chunk(prog, k) for k in range(eval_chunks(prog))]
    return (np.concatenate([rows for rows, _, _ in chunks], axis=0),
            [ok for _, ok, _ in chunks], sum(sec for _, _, sec in chunks))


def gate(prog: Program, eval_rows: np.ndarray, seed: int) -> dict:
    """Oracle and invariance checks on the first ``GATE_SAMPLE`` held-out
    graphs, whose predicted rows from the eval pass are ``eval_rows``."""
    egs = prog.eg_held_out[:GATE_SAMPLE]
    rng = np.random.default_rng([seed, 3])
    with tt.no_grad():
        ref = np.stack([model.model_forward(eg, prog.params, prog.cfg).data
                        for eg in egs])
        permuted = np.stack([
            model.model_forward(
                checks.permute_graph(eg, rng.permutation(eg.n_atoms)),
                prog.params, prog.cfg).data
            for eg in egs])
    oracle = float(np.max(np.abs(eval_rows[:GATE_SAMPLE] - ref)))
    invariance = float(np.max(np.abs(permuted - ref)))
    return {"oracle_max_dev": oracle,
            "oracle_ok": oracle <= ORACLE_TOLERANCE,
            "invariance_max_dev": invariance,
            "invariance_ok": invariance <= checks.INVARIANCE_TOLERANCE}


@dataclass
class Result:
    """What one run prints: the result line plus a record for people."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    record: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": self.units[k]}
                            for k, v in self.metrics.items()}}


def _prepare(w: Workload, seed: int, workdir: str) -> tuple[str, str, dict]:
    pool, held_out = make_inputs(w, seed)
    pool_path = os.path.join(workdir, "train.jsonl")
    held_out_path = os.path.join(workdir, "held_out.jsonl")
    qm9.write_dataset(pool_path, pool)
    qm9.write_dataset(held_out_path, held_out)
    return pool_path, held_out_path, traffic(w, pool + held_out)


def _finish(trainer: Trainer, earlier_ok: list[bool], gated_ok: list[bool],
            gate_report: dict, record: dict) -> tuple[int, int]:
    """Apply the gate to the operations; returns (attempted, failed).

    ``gated_ok`` are the chunk flags of the eval pass the gate checked,
    ``earlier_ok`` those of any eval chunks before it.
    """
    final_loss = trainer.first_batch_loss()
    loss_ok = final_loss < trainer.losses[0]
    failed = trainer.failed + earlier_ok.count(False) + gated_ok.count(False)
    if not loss_ok:
        failed += 1          # the last train step
    if not (gate_report["oracle_ok"] and gate_report["invariance_ok"]) \
            and gated_ok[0]:
        failed += 1          # eval chunk 0 holds the gate sample
    gate_report.update(step1_loss=trainer.losses[0],
                       final_loss_on_step1_batch=final_loss, loss_ok=loss_ok)
    record["gate"] = gate_report
    return trainer.steps + len(earlier_ok) + len(gated_ok), failed


def _eval_mae(prog: Program, preds: np.ndarray) -> float:
    """Held-out MAE of target 0 in units of the train pool's std;
    deterministic at a given seed and ``--seconds``."""
    return float(np.mean(np.abs(preds - prog.yn_held_out)))


def _timings(w: Workload, eval_graphs: int, steps: list[float],
             eval_seconds: list[float], setups: list[float]) -> dict[str, float]:
    """The timing metrics from the seconds of each operation."""
    p50, p90 = np.percentile(np.array(steps) * 1e3, [50, 90])
    return {
        "train_graphs_per_s": w.batch_size * len(steps) / sum(steps),
        "train_step_ms_p50": float(p50),
        "train_step_ms_p90": float(p90),
        "eval_graphs_per_s": eval_graphs / sum(eval_seconds),
        "setup_s": statistics.median(setups),
    }


def measure(w: Workload, seed: int, seconds: float, workdir: str) -> Result:
    """The untraced run: every end-to-end metric.

    Every timed operation is preceded by a reading of the speed reference,
    and the timing metrics are taken from the scaled times (``speed``).
    The record keeps the same metrics from plain wall times under
    ``"wall"``, and the readings under ``"reference"``.
    """
    pool_path, held_out_path, traffic_record = _prepare(w, seed, workdir)
    clock = speed.Clock()
    prog = _timed_setup(w, pool_path, held_out_path, clock)
    trainer = Trainer(w, prog, seed)
    for _ in range(WARMUP_STEPS):
        trainer.step()
    # The chunks of the eval passes and the further set-ups are spread
    # evenly over the train phase, one by one, so that every metric sees
    # the same machine conditions: on a shared VM the speed drifts by tens
    # of percent within seconds. Neither changes the weights, and each
    # further set-up's Program is dropped as soon as it is timed. An
    # untimed eval pass after the last step feeds the gate and eval_mae.
    n_steps = w.train_steps(seconds)
    passes = w.eval_passes(seconds)
    n_chunks = eval_chunks(prog)
    timed_chunks = passes * n_chunks
    extra_setups = max(SETUP_MIN_REPEATS,
                       round(SETUP_SHARE * seconds / clock.wall("setup")[0])) - 1
    chunk_after = Counter(n_steps * k // timed_chunks
                          for k in range(1, timed_chunks + 1))
    setup_after = Counter(n_steps * (2 * k + 1) // (2 * extra_setups)
                          for k in range(extra_setups))
    eval_ok = []
    for done in range(n_steps + 1):
        if done:
            clock.reading()
            clock.record("step", trainer.step()[0])
        for _ in range(setup_after[done]):
            _timed_setup(w, pool_path, held_out_path, clock)
        for _ in range(chunk_after[done]):
            clock.reading()
            _, ok, chunk_seconds = eval_chunk(prog, len(eval_ok) % n_chunks)
            clock.record("eval", chunk_seconds)
            eval_ok.append(ok)
    clock.reading()
    preds, ok, _ = eval_pass(prog)

    eval_graphs = len(prog.eg_held_out) * passes
    readings = np.array(clock.readings) * 1e3
    record = {"traffic": traffic_record, "train_step_samples": n_steps,
              "eval_mae": _eval_mae(prog, preds),
              "warmup_steps": WARMUP_STEPS, "eval_passes": passes,
              "setup_repeats": len(clock.wall("setup")),
              "wall": _timings(w, eval_graphs, clock.wall("step"),
                               clock.wall("eval"), clock.wall("setup")),
              "reference": {
                  "reference_ms": speed.REFERENCE_S * 1e3,
                  "readings": len(readings),
                  "reading_ms_min_p50_max": [
                      float(readings.min()), float(np.median(readings)),
                      float(readings.max())]}}
    attempted, failed = _finish(trainer, eval_ok, ok, gate(prog, preds, seed),
                                record)
    metrics = _timings(w, eval_graphs, clock.scaled("step"),
                       clock.scaled("eval"), clock.scaled("setup"))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024)
    return Result(attempted, failed, metrics, END_TO_END, record)


def _peak_alloc_mb(trainer: Trainer, steps: int) -> float:
    """Median over ``steps`` train steps of the bytes numpy and Python
    allocate above the step's starting level (tracemalloc)."""
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(steps):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.step()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


def trace(w: Workload, seed: int, seconds: float, workdir: str) -> Result:
    """The traced run: every per-layer metric.

    The timed train steps alternate in blocks between untraced and traced,
    so the traced p50 against the untraced p50 of the same process gives
    the tracing overhead without drift between the halves. Both halves
    count multiplies, so the two differ only by the spans. Multiplies,
    tape entries and spans come from the traced steps; peak allocation
    from extra steps under tracemalloc alone.
    """
    pool_path, held_out_path, traffic_record = _prepare(w, seed, workdir)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        prog = setup(w, pool_path, held_out_path)

    trainer = Trainer(w, prog, seed)
    for _ in range(WARMUP_STEPS):
        trainer.step()
    plain, traced, entries, multiplies = [], [], [], []
    tracer.phase = "train"
    for block in range(0, max(2 * OVERHEAD_BLOCK, w.train_steps(seconds)),
                       OVERHEAD_BLOCK):
        spans = block // OVERHEAD_BLOCK % 2 == 1
        with (tracing.installed(tracer) if spans
              else contextlib.nullcontext()):
            for _ in range(OVERHEAD_BLOCK):
                counter = tt.MultiplyCounter()
                elapsed, n_entries = trainer.step(counter)
                if not spans:
                    plain.append(elapsed)
                    continue
                traced.append(elapsed)
                entries.append(n_entries)
                multiplies.append(counter.total)
    n_traced = len(traced)
    with tracing.installed(tracer):
        tracer.phase = "eval"
        preds, eval_ok, _ = eval_pass(prog)
    # the gate must see the weights the eval pass used
    gate_report = gate(prog, preds, seed)
    peak_alloc = _peak_alloc_mb(trainer, TRACEMALLOC_STEPS)
    towers = checks.bench_towers(d=200, n=9, k=8, T=1)

    record = {"traffic": traffic_record, "untraced_steps": len(plain),
              "traced_steps": n_traced, "spans": len(tracer),
              "bench_towers": towers}
    attempted, failed = _finish(trainer, [], eval_ok, gate_report, record)
    tracer.write(os.path.join(workdir, "spans.jsonl"))

    train = tracer.totals("train")
    ev = tracer.totals("eval")
    setup_totals = tracer.totals("setup")
    n_graphs = len(prog.eg_held_out)

    def per_step(name, key):
        return train[name][key] / n_traced if name in train else 0.0

    def per_graph(name, key):
        return ev[name][key] / n_graphs if name in ev else 0.0

    metrics = {
        "tensor.tape_entries_per_step": float(np.mean(entries)),
        "tensor.multiplies_per_step": float(np.mean(multiplies)),
        "tensor.backward.ms_per_step": per_step("tensor.backward", "ms"),
    }
    for op in tracing.REPORTED_OPS:
        metrics[f"tensor.{op}.calls_per_step"] = per_step(f"tensor.{op}", "calls")
        metrics[f"tensor.{op}.self_ms_per_step"] = per_step(f"tensor.{op}", "self_ms")
    metrics.update({
        "tensor.peak_alloc_mb_per_step": peak_alloc,
        "engine.propagate.ms_per_step": per_step("engine.propagate", "ms"),
        "engine.propagate.self_ms_per_step": per_step("engine.propagate", "self_ms"),
        "engine.mlp2.ms_per_step": per_step("engine.mlp2", "ms"),
        "readout.apply_readout.ms_per_step": per_step("readout.apply_readout", "ms"),
        "model.predict_batch.self_ms_per_step": per_step("model.predict_batch", "self_ms"),
        "training.Adam.step.ms_per_step": per_step("training.Adam.step", "ms"),
    })
    for op in tracing.REPORTED_OPS:
        metrics[f"eval.tensor.{op}.self_ms_per_graph"] = per_graph(f"tensor.{op}", "self_ms")
    metrics.update({
        "eval.engine.propagate.ms_per_graph": per_graph("engine.propagate", "ms"),
        "eval.engine.propagate.self_ms_per_graph": per_graph("engine.propagate", "self_ms"),
        "eval.engine.mlp2.ms_per_graph": per_graph("engine.mlp2", "ms"),
        "eval.readout.apply_readout.ms_per_graph": per_graph("readout.apply_readout", "ms"),
        "eval.model.predict_batch.self_ms_per_graph": per_graph("model.predict_batch", "self_ms"),
        "qm9.read_dataset.ms_total": setup_totals["qm9.read_dataset"]["ms"],
        "model.prepare_graph.ms_total": setup_totals["model.prepare_graph"]["ms"],
        "molgraph.encode.ms_total": setup_totals["molgraph.encode"]["ms"],
        "trace.overhead_pct": 100.0 * (statistics.median(traced)
                                       / statistics.median(plain) - 1.0),
        "training.eval_mae": _eval_mae(prog, preds),
        "checks.bench_towers.multiply_ratio": float(towers["multiply_ratio"]),
        "checks.bench_towers.wall_clock_ratio": float(towers["wall_clock_ratio"]),
    })
    return Result(attempted, failed, metrics, PER_LAYER, record)


def keep_freed_memory() -> bool:
    """Make glibc keep freed blocks of up to 32 MB in the process.

    By default glibc hands large freed arrays back to the kernel and maps
    them afresh on the next allocation. On dense-explicit-h that cost
    about 25,000 page faults and 35% of every train step in the kernel,
    and the cost of a fault on the shared VM rose and fell with the other
    guests' load in a way the speed reference does not follow. With the
    blocks kept, a step faults no page after warm-up and the peak RSS is
    the same. Returns False where there is no glibc ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def environment(freed_memory_kept: bool) -> dict:
    """What the numbers depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "freed_memory_kept": freed_memory_kept,
    }


def run(w: Workload, seed: int, seconds: float, traced: bool,
        root: str) -> Result:
    """One run in a fresh work directory under ``root``.

    The directory is named by workload and mode only, so the next such run
    replaces it and a traced run's spans (tens of MB) do not pile up.
    """
    kept = keep_freed_memory()
    workdir = os.path.join(root, ".perfbench_work",
                           f"{w.name}-trace{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = (trace if traced else measure)(w, seed, seconds, workdir)
    result.record.update(workload=w.name, seed=seed, seconds=seconds,
                         trace=int(traced), environment=environment(kept),
                         attempted=result.attempted, failed=result.failed,
                         metrics=result.metrics)
    for name in ("train.jsonl", "held_out.jsonl"):
        os.remove(os.path.join(workdir, name))
    with open(os.path.join(workdir, "record.json"), "w") as f:
        json.dump(result.record, f, sort_keys=True, indent=1)
    return result
