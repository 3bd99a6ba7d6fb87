"""Wall times rescaled by a fixed reference loop timed next to them.

The shared VM the benchmark was sized on changes speed by up to half from
one minute to the next, in CPU time as well as wall time, because other
guests contend for the same cores. Ten runs of the same code then spread
by more than any bound a metric may have. So right before every timed
operation the harness takes a reading of ``reference_seconds()``: one pass
of a fixed loop made of the three kinds of work the program does, plain
interpreter work, chains of numpy calls on small arrays, and per-edge
d x d products with row gathers and scatter sums. Each operation's wall
time is multiplied by ``REFERENCE_S`` over the mean of the readings just
before and just after it.

A scaled time is the wall time the operation would have taken had the
machine run at the speed where a reading is ``REFERENCE_S``. The reference
loop is benchmark code: a change to the program moves the operation's wall
time and not the readings, so it moves the scaled time by the same share.

On the VM, over nine minutes in which the wall time of fixed train steps
swung by a factor of 1.5, the quartile spread of 30-second means was
0.17-0.23 of the median in wall time and 0.03-0.05 scaled. Each of the
three parts alone tracked some workloads worse than their sum did.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_seconds", "Clock"]

# About the median reading on the 2-core Xeon the benchmark was sized on,
# so that scaled times there read close to wall times.
REFERENCE_S = 0.0088

_rng = np.random.default_rng(0)
_W = _rng.normal(size=(32, 32))
_H = _rng.normal(size=(40, 32))
_EDGE_MATRICES = _rng.normal(size=(200, 32, 32))
_SOURCES = _rng.integers(0, 40, size=200)


def _interpreter() -> int:
    total = 0
    for i in range(60000):
        total += i * i
    return total


def _small_arrays() -> np.ndarray:
    x = _H
    for _ in range(60):
        x = np.tanh(x @ _W * 0.1) + 1.0
        x = x[:, ::-1].copy()
    return x


def _edge_products() -> np.ndarray:
    h = _H
    for _ in range(8):
        messages = np.matmul(_EDGE_MATRICES, h[_SOURCES][:, :, None])[:, :, 0]
        summed = np.zeros_like(h)
        np.add.at(summed, _SOURCES, messages)
        z = 1.0 / (1.0 + np.exp(-(summed @ _W + 1.0)))
        h = np.concatenate([z[:, :16], h[:, 16:]], axis=1) * 0.5
    return h


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _edge_products()
    return time.perf_counter() - start


class Clock:
    """Wall times of operations and the reference readings around them.

    Call ``reading()`` right before each timed operation and once after
    the last one; ``record(kind, seconds)`` after each operation.
    """

    def __init__(self, reference=reference_seconds):
        self._reference = reference
        self.readings: list[float] = []
        self._ops: dict[str, list[tuple[float, int]]] = {}

    def reading(self) -> None:
        self.readings.append(self._reference())

    def record(self, kind: str, seconds: float) -> None:
        """Wall time of an operation that began after the latest reading."""
        self._ops.setdefault(kind, []).append((seconds, len(self.readings) - 1))

    def wall(self, kind: str) -> list[float]:
        return [seconds for seconds, _ in self._ops[kind]]

    def scaled(self, kind: str) -> list[float]:
        """Wall times of ``kind`` at the reference speed."""
        r = self.readings
        return [seconds * 2 * REFERENCE_S / (r[i] + r[i + 1])
                for seconds, i in self._ops[kind]]
