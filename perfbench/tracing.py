"""Spans around calls into mpnnkit's modules, recorded from outside them.

``installed`` swaps timing wrappers onto the public names the callers look
up (``mpnnkit.tensor.matmul``, ``mpnnkit.model.propagate``, ...) and puts
the originals back on exit. Every call through a wrapper records one span:
name, phase, parent span and start and end in nanoseconds. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import defaultdict

from mpnnkit import engine, model, qm9, training
from mpnnkit import tensor as tt

__all__ = ["TENSOR_OPS", "REPORTED_OPS", "Tracer", "installed", "span_targets"]

# Every public op is wrapped, so a parent's self time never includes an op.
TENSOR_OPS = ("matmul", "batched_matvec", "add", "sub", "mul", "sigmoid",
              "tanh", "relu", "reduce_sum", "softmax", "concat", "reshape",
              "gather_rows", "scatter_sum_rows", "slice_cols", "repeat_rows",
              "gru_cell")
# The ops a planned optimisation is expected to move; see README.md.
REPORTED_OPS = ("matmul", "batched_matvec", "add", "mul", "sigmoid",
                "repeat_rows", "gather_rows", "scatter_sum_rows", "concat",
                "slice_cols", "gru_cell")


def span_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped callable.

    The owner is where the caller looks the name up: ``model`` imported
    ``propagate``, ``apply_readout`` and ``encode`` by name, ``propagate``
    finds ``mlp2`` in the engine module, and the benchmark itself calls
    ``model.predict_batch``, ``model.prepare_graph`` and
    ``qm9.read_dataset``. Only the edge-network matrix build in
    ``propagate`` goes through ``engine.mlp2`` on the benchmark's configs;
    the readouts hold their own reference to ``mlp2``.
    """
    targets = [(tt, op, f"tensor.{op}") for op in TENSOR_OPS]
    targets += [
        (tt, "backward", "tensor.backward"),
        (model, "propagate", "engine.propagate"),
        (engine, "mlp2", "engine.mlp2"),
        (model, "apply_readout", "readout.apply_readout"),
        (model, "predict_batch", "model.predict_batch"),
        (model, "prepare_graph", "model.prepare_graph"),
        (model, "encode", "molgraph.encode"),
        (training.Adam, "step", "training.Adam.step"),
        (qm9, "read_dataset", "qm9.read_dataset"),
    ]
    return targets


class Tracer:
    """In-memory span recorder; ``phase`` labels the spans opened next.

    Spans live in flat integer arrays rather than one Python object each:
    a few hundred thousand tracked objects would make the interpreter's
    cyclic garbage collector, and so the traced steps, slower.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.phases: list[str] = []
        self.name_id = array("i")
        self.phase_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.phase = "setup"

    @property
    def phase(self) -> str:
        return self.phases[self._phase]

    @phase.setter
    def phase(self, label: str) -> None:
        if label not in self.phases:
            self.phases.append(label)
        self._phase = self.phases.index(label)

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, phase_id, parent = self.name_id, self.phase_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            phase_id.append(self._phase)
            parent.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: calls, total ms and self ms."""
        child_ns = [0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        if phase not in self.phases:
            return out
        want = self.phases.index(phase)
        for i in range(len(self)):
            if self.phase_id[i] != want:
                continue
            duration = self.end[i] - self.start[i]
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[i]) / 1e6
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: name, phase, parent, start ns, end ns."""
        with open(path, "w") as f:
            for i in range(len(self)):
                span = [self.names[self.name_id[i]],
                        self.phases[self.phase_id[i]], self.parent[i],
                        self.start[i], self.end[i]]
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call in ``span_targets`` through ``tracer``."""
    saved = []
    try:
        for owner, attr, name in span_targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
