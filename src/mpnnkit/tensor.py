"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Only the operations the graph models in this package actually need are
implemented: 2-D matrix products and their per-tower stack (alone or with a
bias, as one affine op), per-row and per-pair matrix-vector products, a
bias added to every row, a small set of pointwise functions, reductions,
softmax (over an axis or per segment of rows), concatenation/slicing, row
gather/scatter, and a GRU cell over row-stacked states composed from the
primitives. Elementwise operands must match in shape, so every backward
rule stays auditable at a glance.

A backward rule is a pure function of its output's gradient: it returns
one gradient per parent and writes nothing. ``backward`` is the only code
that stores and sums gradients; taped intermediates never hold one, and
leaves (tensors created with ``requires_grad``) accumulate into ``grad``.
A rule may hand a parent's gradient back as the two factors of a batched
product instead of a dense array (``pair_matvec`` does, for its matrices);
``backward`` keeps an intermediate's factors until they are needed and
sums them all in one matmul.

Every forward result is checked for NaN/Inf; divergence surfaces as a
:class:`NumericError` at the op that produced it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GruParams",
    "DimensionError",
    "ContractError",
    "NumericError",
    "no_grad",
    "backward",
    "active_tape",
    "matmul",
    "tower_matmul",
    "affine",
    "batched_matvec",
    "pair_matvec",
    "add",
    "add_bias",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "relu",
    "reduce_sum",
    "softmax",
    "segment_softmax",
    "concat",
    "reshape",
    "gather_rows",
    "scatter_sum_rows",
    "slice_cols",
    "repeat_rows",
    "gru_cell",
    "MultiplyCounter",
    "count_multiplies",
    "save_params",
    "load_params",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(ValueError):
    """An operation precondition was violated."""


class NumericError(ArithmeticError):
    """A computation produced NaN or Inf (divergence)."""


@dataclass
class MultiplyCounter:
    """Accumulates the number of scalar multiplications performed by taped ops."""

    total: int = 0


# Tapes are confined to one worker; thread-local state keeps that true even
# if callers use threads instead of processes.
_local = threading.local()


def _ctx():
    if not hasattr(_local, "tape"):
        _local.tape = []
        _local.grad_enabled = True
        _local.mul_counter = None
    return _local


def active_tape() -> list[tuple["Tensor", tuple["Tensor", ...], Callable]]:
    """The ordered record of taped operations for one reverse pass.

    Entries (output, parents, backward rule) are appended in execution
    order, so the list is topologically sorted by construction: every op's
    inputs were created before the op itself. ``backward`` walks it once in
    reverse and then clears it.
    """
    return _ctx().tape


@contextlib.contextmanager
def no_grad():
    """Disable taping inside the block (forward values only)."""
    ctx = _ctx()
    prev = ctx.grad_enabled
    ctx.grad_enabled = False
    try:
        yield
    finally:
        ctx.grad_enabled = prev


@contextlib.contextmanager
def count_multiplies(counter: MultiplyCounter):
    """Route multiply counts of ops executed inside the block to ``counter``."""
    ctx = _ctx()
    prev = ctx.mul_counter
    ctx.mul_counter = counter
    try:
        yield counter
    finally:
        ctx.mul_counter = prev


def _count_muls(n: int) -> None:
    c = _ctx().mul_counter
    if c is not None:
        c.total += int(n)


class Tensor:
    """Dense float64 array, row-major, with optional gradient participation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: Sequence[Tensor], rule: Callable) -> Tensor:
    """Wrap a forward result, check finiteness, and tape it when needed."""
    data = np.asarray(data, dtype=np.float64, order="C")
    if not np.isfinite(data).all():
        raise NumericError("non-finite value produced by a forward op")
    ctx = _ctx()
    rg = ctx.grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = rg
    out.grad = None
    if rg:
        ctx.tape.append((out, tuple(parents), rule))
    return out


@dataclass(frozen=True)
class _Factors:
    """A gradient handed back as the two factors of a batched product:
    ``left`` (..., p, r) @ ``right`` (..., r, q), flattened to the parent's
    shape. ``backward`` stacks the factors of an intermediate's pending
    contributions along r and multiplies once, so their sum is one matmul."""

    left: np.ndarray
    right: np.ndarray


def _dense(factors: Sequence[_Factors], shape) -> np.ndarray:
    """The sum of the products of ``factors``, from one batched matmul."""
    if len(factors) == 1:
        left, right = factors[0].left, factors[0].right
    else:
        left = np.concatenate([f.left for f in factors], axis=-1)
        right = np.concatenate([f.right for f in factors], axis=-2)
    return (left @ right).reshape(shape)


def _accumulate(pending: dict, t: Tensor, g) -> None:
    """Add one gradient contribution for ``t``.

    A leaf sums into its ``grad`` in place. A taped intermediate keeps its
    first contribution uncopied in ``pending`` and adds later ones out of
    place, so an array a rule handed to several parents is never written
    into. ``g`` may be ``(index, rows)``: the rows are added one at a time
    onto the running total, in the order ``np.add.at`` gives. ``g`` may be
    :class:`_Factors`: an intermediate collects them in a list until its own
    rule runs or a contribution of another kind arrives, and then makes the
    list dense with one matmul; a leaf makes them dense at once.
    """
    if t.grad is not None:
        if isinstance(g, tuple):
            np.add.at(t.grad, *g)
        else:
            t.grad += _dense([g], t.data.shape) if isinstance(g, _Factors) else g
        return
    total = pending.get(t)
    if isinstance(g, _Factors):
        if total is None:
            pending[t] = [g]
            return
        if isinstance(total, list):
            total.append(g)
            return
        g = _dense([g], t.data.shape)
    elif isinstance(total, list):
        total = _dense(total, t.data.shape)
    if isinstance(g, tuple):
        total = np.zeros_like(t.data) if total is None else total.copy()
        np.add.at(total, *g)
        pending[t] = total
    else:
        pending[t] = g if total is None else total + g


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into ``grad`` of every leaf the scalar ``loss``
    depends on.

    Walks the active tape once in reverse and clears it afterwards. An
    intermediate's pending gradient is dropped once its own rule has run.
    """
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any tracked tensor")
    pending: dict = {}
    _accumulate(pending, loss, np.ones_like(loss.data))
    tape = _ctx().tape
    for out, parents, rule in reversed(tape):
        g = pending.pop(out, None)
        if g is None:
            continue
        if isinstance(g, list):
            g = _dense(g, out.data.shape)
        for parent, pg in zip(parents, rule(g)):
            if pg is not None:
                _accumulate(pending, parent, pg)
    tape.clear()


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def _matmul_parts(a: Tensor, b: Tensor):
    """Checked forward value and backward rule of ``matmul``."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul operands must be 2-D")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    m, k = a.data.shape
    n = b.data.shape[1]
    _count_muls(m * k * n)

    def rule(g: np.ndarray):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return a.data @ b.data, rule


def _tower_matmul_parts(x: Tensor, w: Tensor):
    """Checked forward value and backward rule of ``tower_matmul``; the
    value is a tower-major product seen through a transpose."""
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError("tower_matmul needs (m, k, q) rows and (k, q, p) weights")
    m, k, q = x.data.shape
    if w.data.shape[:2] != (k, q):
        raise DimensionError(
            f"tower_matmul towers or inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    p = w.data.shape[2]
    xt = x.data.transpose(1, 0, 2)
    _count_muls(m * k * q * p)

    def rule(g: np.ndarray):
        gt = g.transpose(1, 0, 2)
        return ((gt @ w.data.transpose(0, 2, 1)).transpose(1, 0, 2)
                if x.requires_grad else None,
                xt.transpose(0, 2, 1) @ gt if w.requires_grad else None)

    return (xt @ w.data).transpose(1, 0, 2), rule


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors; dY flows as dA = g @ B^T, dB = A^T @ g."""
    data, rule = _matmul_parts(a, b)
    return _result(data, (a, b), rule)


def tower_matmul(x: Tensor, w: Tensor) -> Tensor:
    """Per-tower matrix products: (m, k, q) rows times (k, q, p) weights
    give (m, k, p), with ``out[:, t] = x[:, t] @ w[t]`` for every tower t.

    One ``np.matmul`` over the tower-major view (k, m, q) of ``x``; each
    tower's product is the same BLAS call ``matmul`` makes for it alone.
    """
    data, rule = _tower_matmul_parts(x, w)
    return _result(data, (x, w), rule)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one taped op: a 2-D ``w`` maps (n, q) rows with a
    (p,) bias, a tower stack ``w`` (k, q, p) maps (n, k, q) rows tower by
    tower with a (k, p) bias. The bias is added in the pass that lays the
    product out row-major, with the bits of ``matmul`` (or
    ``tower_matmul``) followed by ``add_bias``, forward and backward.
    """
    prod, mm_rule = (_tower_matmul_parts if w.data.ndim == 3 else _matmul_parts)(x, w)
    if b.data.shape != prod.shape[1:]:
        raise DimensionError(
            f"affine needs a bias of the output's row shape: {prod.shape} + {b.data.shape}")
    out = prod if prod.flags.c_contiguous else np.empty(prod.shape)
    np.add(prod, b.data, out=out)

    def rule(g: np.ndarray):
        return (*mm_rule(g), g.sum(axis=0) if b.requires_grad else None)

    return _result(out, (x, w, b), rule)


def batched_matvec(mats: Tensor, vecs: Tensor) -> Tensor:
    """Row-wise matrix-vector products.

    ``mats`` holds one row-major (p x q) matrix per row, flattened to
    (m, p*q); ``vecs`` is (m, q). Returns (m, p) with row i equal to
    ``mats[i] @ vecs[i]``.
    """
    if mats.data.ndim != 2 or vecs.data.ndim != 2:
        raise DimensionError("batched_matvec operands must be 2-D")
    m, q = vecs.data.shape
    if mats.data.shape[0] != m or mats.data.shape[1] % q != 0:
        raise DimensionError(
            f"matrix rows of width {mats.data.shape[1]} do not factor over q={q}"
        )
    p = mats.data.shape[1] // q
    m3 = mats.data.reshape(m, p, q)
    _count_muls(m * p * q)

    def rule(g: np.ndarray):
        return (np.einsum("ip,iq->ipq", g, vecs.data).reshape(m, p * q)
                if mats.requires_grad else None,
                np.einsum("ipq,ip->iq", m3, g) if vecs.requires_grad else None)

    return _result(np.einsum("ipq,iq->ip", m3, vecs.data), (mats, vecs), rule)


def pair_matvec(mats: Tensor, vecs: Tensor, pair, side) -> Tensor:
    """Matrix-vector products where each matrix serves up to two rows.

    ``mats`` holds one row-major (p x q) matrix per pair, flattened to
    (P, ..., p*q); ``vecs`` is (m, ..., q), with the same middle axes (the
    towers, if any). Row i of ``vecs`` takes slot ``side[i]`` (0 or 1) of
    pair ``pair[i]``, and no two rows may share a slot. Returns (m, ..., p)
    with ``out[i, j] = mats[pair[i], j] @ vecs[i, j]``. The vectors are
    stacked as (P, ..., q, 2), an empty slot as a zero column, and
    multiplied in one batched matmul; each matrix's gradient sums both of
    its slots and is handed back as :class:`_Factors`, so ``backward`` sums
    the gradients of every call that shares ``mats`` in one matmul.
    """
    if mats.data.ndim < 2 or vecs.data.ndim != mats.data.ndim:
        raise DimensionError("pair_matvec operands must share a rank of at least 2")
    m, q = vecs.data.shape[0], vecs.data.shape[-1]
    n_pairs, width = mats.data.shape[0], mats.data.shape[-1]
    mid = vecs.data.shape[1:-1]
    if mats.data.shape[1:-1] != mid:
        raise DimensionError(
            f"pair_matvec middle axes disagree: {mats.data.shape} vs {vecs.data.shape}")
    if width % q != 0:
        raise DimensionError(f"matrix rows of width {width} do not factor over q={q}")
    pair = np.asarray(pair, dtype=np.intp)
    side = np.asarray(side, dtype=np.intp)
    if pair.shape != (m,) or side.shape != (m,):
        raise DimensionError("pair_matvec needs one pair and one side per vector row")
    if m and (pair.min() < 0 or pair.max() >= n_pairs
              or side.min() < 0 or side.max() > 1):
        raise ContractError("pair_matvec pair or side out of range")
    if m and np.bincount(2 * pair + side).max() > 1:
        raise ContractError("two pair_matvec rows share a slot")
    p = width // q
    m3 = mats.data.reshape((n_pairs, *mid, p, q))
    x = np.zeros((n_pairs, *mid, q, 2))
    x[pair, ..., side] = vecs.data
    _count_muls(vecs.data.size * p)

    def rule(g: np.ndarray):
        gy = np.zeros((n_pairs, *mid, p, 2))
        gy[pair, ..., side] = g
        return (_Factors(gy, x.swapaxes(-1, -2)) if mats.requires_grad else None,
                (m3.swapaxes(-1, -2) @ gy)[pair, ..., side]
                if vecs.requires_grad else None)

    return _result((m3 @ x)[pair, ..., side], (mats, vecs), rule)


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"elementwise op needs matching shapes: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _result(a.data + b.data, (a, b), rule)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """The row ``b`` added to every row of ``x`` (a (d,) row for (n, d)
    rows, a (k, d) row for (n, k, d) rows); backward sums the rows'
    gradients into ``b``."""
    if x.data.ndim < 2 or b.data.shape != x.data.shape[1:]:
        raise DimensionError(
            f"add_bias needs rows and a bias of their width: {x.data.shape} + {b.data.shape}")

    def rule(g: np.ndarray):
        return (g if x.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _result(x.data + b.data, (x, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _result(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    out = a.data * b.data
    _count_muls(out.size)

    def rule(g: np.ndarray):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _result(out, (a, b), rule)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows; each sign takes its own stable form.
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def rule(g: np.ndarray):
        return (g * (y * (1.0 - y)),)

    return _result(y, (x,), rule)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def rule(g: np.ndarray):
        return (g * (1.0 - y * y),)

    return _result(y, (x,), rule)


def relu(x: Tensor) -> Tensor:
    def rule(g: np.ndarray):
        return (g * (x.data > 0),)

    return _result(np.maximum(x.data, 0.0), (x,), rule)


def _check_axis(x: Tensor, axis: int) -> int:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {x.data.shape}")
    return axis % x.data.ndim


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements; backward broadcasts the gradient."""
    def rule(g: np.ndarray):
        return (np.full(x.data.shape, g),)

    return _result(x.data.sum(), (x,), rule)


def softmax(x: Tensor, axis: int) -> Tensor:
    ax = _check_axis(x, axis)
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def rule(g: np.ndarray):
        s = (g * y).sum(axis=ax, keepdims=True)
        return (y * (g - s),)

    return _result(y, (x,), rule)


def segment_softmax(x: Tensor, index, num_segments: int) -> Tensor:
    """Softmax down each column over the rows of one segment.

    ``index[i]`` is the segment of row i of the 2-D ``x``; the rows of a
    segment need not be adjacent. A segment with one row gets weight 1; a
    segment with no rows produces nothing. The per-segment maximum is
    subtracted before exponentiating, so large logits do not overflow.
    """
    if x.data.ndim != 2:
        raise DimensionError("segment_softmax needs a 2-D tensor")
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape != (x.data.shape[0],):
        raise DimensionError("segment index length must match rows")
    if idx.size and (idx.min() < 0 or idx.max() >= num_segments):
        raise ContractError("segment_softmax index out of range")
    if not np.isfinite(x.data).all():
        raise NumericError("non-finite logits in segment_softmax")
    shape = (int(num_segments), x.data.shape[1])
    peak = np.full(shape, -np.inf)
    np.maximum.at(peak, idx, x.data)
    e = np.exp(x.data - peak[idx])
    total = np.zeros(shape)
    np.add.at(total, idx, e)
    y = e / total[idx]

    def rule(g: np.ndarray):
        s = np.zeros(shape)
        np.add.at(s, idx, g * y)
        return (y * (g - s[idx]),)

    return _result(y, (x,), rule)


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    if not xs:
        raise DimensionError("concat of an empty sequence")
    ax = _check_axis(xs[0], axis)
    base = list(xs[0].data.shape)
    for t in xs[1:]:
        other = list(t.data.shape)
        if len(other) != len(base):
            raise DimensionError("concat inputs must share rank")
        if other[:ax] != base[:ax] or other[ax + 1:] != base[ax + 1:]:
            raise DimensionError("concat inputs disagree off the concat axis")
    sizes = [t.data.shape[ax] for t in xs]
    offsets = np.cumsum([0] + sizes)

    def rule(g: np.ndarray):
        parts = np.split(g, offsets[1:-1], axis=ax)
        return [part if t.requires_grad else None for t, part in zip(xs, parts)]

    return _result(np.concatenate([t.data for t in xs], axis=ax), tuple(xs), rule)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.data.shape} to {shape}")

    def rule(g: np.ndarray):
        return (g.reshape(x.data.shape),)

    return _result(x.data.reshape(shape), (x,), rule)


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows (slices along the first axis) of a tensor of any rank by
    integer index (repeats allowed)."""
    if x.data.ndim < 1:
        raise DimensionError("gather_rows needs a tensor with rows")
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError("gather_rows index out of range")

    def rule(g: np.ndarray):
        return ((idx, g),)

    return _result(x.data[idx], (x,), rule)


def scatter_sum_rows(x: Tensor, index, num_rows: int) -> Tensor:
    """Sum rows of ``x`` (any rank) into ``num_rows`` output rows grouped by
    ``index``."""
    if x.data.ndim < 1:
        raise DimensionError("scatter_sum_rows needs a tensor with rows")
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape != (x.data.shape[0],):
        raise DimensionError("scatter index length must match rows")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ContractError("scatter_sum_rows index out of range")
    out = np.zeros((int(num_rows),) + x.data.shape[1:])
    np.add.at(out, idx, x.data)

    def rule(g: np.ndarray):
        return (g[idx],)

    return _result(out, (x,), rule)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("slice_cols needs a 2-D tensor")
    if not 0 <= start < stop <= x.data.shape[1]:
        raise DimensionError(f"column slice [{start}:{stop}] invalid for {x.data.shape}")

    def rule(g: np.ndarray):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _result(x.data[:, start:stop].copy(), (x,), rule)


def repeat_rows(x: Tensor, n: int) -> Tensor:
    """Tile a (d,) or (1, d) tensor into n identical rows; backward sums rows."""
    if x.data.ndim == 1:
        row = x.data.reshape(1, -1)
    elif x.data.ndim == 2 and x.data.shape[0] == 1:
        row = x.data
    else:
        raise DimensionError("repeat_rows needs a single-row tensor")

    def rule(g: np.ndarray):
        return (g.sum(axis=0).reshape(x.data.shape),)

    return _result(np.broadcast_to(row, (int(n), row.shape[1])).copy(), (x,), rule)


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------


@dataclass
class GruParams:
    """Weights of one gated recurrent cell; the update uses no bias terms.

    Input-to-hidden matrices are stored (d_in, d) and hidden-to-hidden
    matrices (d, d) so states multiply on the left as row vectors.
    """

    wz: Tensor
    uz: Tensor
    wr: Tensor
    ur: Tensor
    wh: Tensor
    uh: Tensor

    def tensors(self) -> dict[str, Tensor]:
        return {"wz": self.wz, "uz": self.uz, "wr": self.wr,
                "ur": self.ur, "wh": self.wh, "uh": self.uh}


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """Gated recurrent update:

        z = sigmoid(x Wz + h Uz)
        r = sigmoid(x Wr + h Ur)
        hbar = tanh(x Wh + (r * h) Uh)
        h' = (1 - z) * h + z * hbar

    States are row stacks: ``x`` is (n, d_in), ``h`` and the result (n, d).
    Weights with a leading tower axis, (k, d_in, d) and (k, d, d), run k
    independent cells over (n, k, d_in) and (n, k, d) states through
    ``tower_matmul``.
    """
    lead = params.wz.data.shape[:-2]
    d_in, d = params.wz.data.shape[-2:]
    if len(lead) > 1:
        raise DimensionError(f"GRU weights of shape {params.wz.data.shape} are neither "
                             f"a matrix nor a tower stack")
    for name, t in params.tensors().items():
        expect = lead + ((d_in, d) if name.startswith("w") else (d, d))
        if t.data.shape != expect:
            raise DimensionError(f"GRU weight {name} has shape {t.data.shape}, expected {expect}")
    rows = h.data.shape[:1]
    if x.data.shape != rows + lead + (d_in,) or h.data.shape != rows + lead + (d,):
        raise DimensionError(
            f"GRU inputs {x.data.shape}, {h.data.shape} do not match weights "
            f"{params.wz.data.shape}")
    mm = tower_matmul if lead else matmul
    z = sigmoid(add(mm(x, params.wz), mm(h, params.uz)))
    r = sigmoid(add(mm(x, params.wr), mm(h, params.ur)))
    hbar = tanh(add(mm(x, params.wh), mm(mul(r, h), params.uh)))
    return add(mul(sub(Tensor(np.ones_like(z.data)), z), h), mul(z, hbar))


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old or the new file,
    never a partial one."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _refuse_constant(token: str):
    """``parse_constant`` for every JSON reader: NaN and +-Infinity are not
    JSON, and a non-finite number must not enter the program."""
    raise ValueError(f"{token} is not a JSON number")


def _read_json(path: str):
    """The JSON value in ``path``; text that does not parse, or holds NaN or
    Infinity, raises a ContractError naming the file."""
    with open(path) as f:
        try:
            return json.load(f, parse_constant=_refuse_constant)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ContractError(f"{path}: not valid JSON: {exc}") from None


def save_params(params: Mapping[str, Tensor], path: str) -> None:
    """Write a flat name -> {shape, values} JSON checkpoint (bit-exact floats).

    Values are row-major float64 rendered with Python's shortest round-trip
    repr, so load(save(p)) reproduces every bit. The write is atomic.
    """
    obj = {
        name: {"shape": list(t.data.shape), "values": t.data.ravel().tolist()}
        for name, t in params.items()
    }
    _atomic_write(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def load_params(path: str) -> dict[str, Tensor]:
    """The checkpoint ``save_params`` wrote; a missing field or a value of
    the wrong JSON type raises a ContractError naming the file and entry."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ContractError(f"{path}: checkpoint is not a JSON object")
    out: dict[str, Tensor] = {}
    for name, entry in obj.items():
        where = f"{path}: checkpoint entry {name!r}"
        if not isinstance(entry, dict):
            raise ContractError(f"{where} is not a JSON object")
        for key in ("shape", "values"):
            if key not in entry:
                raise ContractError(f"{where} lacks field {key!r}")
        shape, values = entry["shape"], entry["values"]
        if not (isinstance(shape, list) and set(map(type, shape)) <= {int}
                and min(shape, default=0) >= 0):
            raise ContractError(f"{where}: field 'shape' is not a list of sizes")
        if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
            raise ContractError(f"{where}: field 'values' is not a list of numbers")
        if len(values) != int(np.prod(shape)):
            raise ContractError(f"{where}: {len(values)} values do not fill "
                                f"shape {tuple(shape)}")
        out[name] = Tensor(np.array(values, dtype=np.float64).reshape(shape),
                           requires_grad=True)
    return out
