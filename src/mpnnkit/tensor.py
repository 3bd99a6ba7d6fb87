"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Only the operations the graph models in this package actually need are
implemented: one weight product, ``matmul``, of rows by a matrix or by a
per-tower stack of matrices (with an optional bias added in the same op),
per-row matrix-vector products, a small set of pointwise functions,
reductions, softmax (over an axis or per segment of rows),
concatenation/slicing/axis permutation, row gather/scatter, rows laid
out in zero-padded blocks per segment, one matrix message summed at each
node, ``edge_message`` (each node's state times the unit matrices once,
each edge's message then read at its label or contracted with its hidden
row, whose last unit weighs the bias's matrix, so that no matrix is built
per edge), and a GRU cell over
row-stacked states. The message and the GRU cell are each
one taped op whose rule replays, with the same bits, the tape the op
composed from simpler ops would record. Elementwise operands must match
in shape, so every backward rule stays auditable at a glance.

A backward rule is a pure function of its output's gradient: it returns
one gradient per parent and writes nothing. ``backward`` is the only code
that stores and sums gradients; taped intermediates never hold one, and
leaves (tensors created with ``requires_grad``) accumulate into ``grad``.
Leaves that ``training.Adam`` optimizes hold views into its flat
buffers as ``data`` and ``grad``; ``backward`` adds into ``grad`` in place
and never rebinds it, so the sums land in Adam's buffer.

Row indexes arrive as :class:`Segments` plans (``segments``), built once
per index and reused by every op over it: ``gather_rows``,
``scatter_sum_rows``, ``segment_softmax``, ``segment_blocks`` and
``edge_message``. A plan orders the segments by decreasing row count and
lists the rows slot-major, slot j holding the j-th row of every segment
that has one, so a sum over segments is one take of the rows, one add per
slot onto the prefix of segments that slot covers, and one take back
(``_segment_sum``; rows of one value each summed from zeros go through
``np.bincount``), touching each row once, in the order and with the bits
``np.add.at`` would give. ``gather_rows``' rule hands back ``(plan,
rows)``, which ``backward`` sums the same way. A row's slot is also its
place in a zero-padded block of its segment's rows (``segment_blocks``).
The edge network lays each node's edges' hidden rows out in such blocks
once per forward, with a :class:`BlockPlan` (``block_plan``) of where each
edge's cell is and which node its message goes to, and every step's
``edge_message`` reads both; ``backward`` sums the steps' gradients of
the blocks before one gather takes the rows' out.

Every op that computes new values checks its forward result for NaN/Inf,
so divergence surfaces as a :class:`NumericError` at the op that produced
it. The ops that only move values, ``reshape``, ``transpose``, ``concat``,
``gather_rows`` and ``segment_blocks``, do not scan their result again:
each input was checked where it was made, so what they pass on is
finite, and a value made non-finite past that check (written into a
leaf in place) still raises at the first op that computes from it.
``relu`` clips, and checks only its input's least entry, the -inf that a
clip would turn into 0. The fused ops check less and say in their
docstrings why that is enough: ``edge_message`` checks only its result,
and ``gru_cell`` its three pre-activations and its result.
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
    "batched_matvec",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "relu",
    "reduce_sum",
    "softmax",
    "segment_softmax",
    "Segments",
    "segments",
    "BlockPlan",
    "block_plan",
    "concat",
    "reshape",
    "gather_rows",
    "scatter_sum_rows",
    "segment_blocks",
    "edge_message",
    "transpose",
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


def _taped(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` is taped: taping is on and some parent
    needs a gradient."""
    return _ctx().grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor], rule: Callable,
            muls: int = 0, check: bool = True) -> Tensor:
    """Count the op's ``muls`` scalar multiplies, wrap its forward result,
    check finiteness unless ``check`` is false, and tape it when needed.

    Only an op that moves or clips values already checked passes ``check``
    false, and its docstring says why that is enough."""
    ctx = _ctx()
    if ctx.mul_counter is not None:
        ctx.mul_counter.total += int(muls)
    data = np.asarray(data, dtype=np.float64, order="C")
    if check and not np.isfinite(data).all():
        raise NumericError("non-finite value produced by a forward op")
    rg = _taped(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = rg
    out.grad = None
    if rg:
        ctx.tape.append((out, tuple(parents), rule))
    return out


@dataclass(frozen=True, eq=False)
class Segments:
    """A checked row index and the slot-major layout that sums rows by it;
    build one with :func:`segments`.

    ``index[i]`` is the segment of row i, in ``[0, num_segments)``.
    ``order`` lists the segments by decreasing row count (ties in segment
    order) and ``back[s]`` is segment s's place in it. Slot j holds the
    j-th row, in row order, of each of the first ``widths[j]`` segments of
    ``order``, those with more than j rows, so the widths never increase
    and add up to the row count. ``row_order`` is every row's number, slot
    0 first, each slot in ``order``, and ``slot[i]`` is row i's slot, its
    place among its segment's rows. Nothing is padded. The arrays are
    read-only and ``widths`` is a tuple.
    """

    index: np.ndarray
    num_segments: int
    row_order: np.ndarray
    widths: tuple[int, ...]
    order: np.ndarray
    back: np.ndarray
    slot: np.ndarray


def segments(index, num_segments: int) -> Segments:
    """The plan for ops over rows grouped by ``index`` into
    ``num_segments`` segments, from one stable argsort of the rows, one of
    the counts and two bincounts; each row's place is ``offset[rank] +
    back[segment]``, its rank within its segment found from the sorted
    rows, so no second row sort is needed.

    This is the only check of an index: it must be 1-D (DimensionError)
    with every entry in ``[0, num_segments)`` (ContractError).
    """
    idx = np.array(index, dtype=np.intp)
    n = int(num_segments)
    if idx.ndim != 1:
        raise DimensionError("segment index must be 1-D")
    if n < 0 or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise ContractError(f"segment index out of range for {n} segments")
    counts = np.bincount(idx, minlength=n)
    order = np.argsort(-counts, kind="stable")
    back = np.empty(n, dtype=np.intp)
    back[order] = np.arange(n)
    # widths[j]: the segments with more than j rows
    widths = n - np.cumsum(np.bincount(counts))[:-1]
    offset = np.cumsum(widths) - widths
    # the same permutation; numpy sorts keys of 16 bits or less by radix,
    # in O(rows), and larger ones by merging
    rows = np.argsort(idx.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    ranked = idx[rows]
    rank = np.arange(idx.size) - (np.cumsum(counts) - counts)[ranked]
    row_order = np.empty(idx.size, dtype=np.intp)
    row_order[offset[rank] + back[ranked]] = rows
    slot = np.empty(idx.size, dtype=np.intp)
    slot[rows] = rank
    # checked once and shared by every op over it, so nothing may edit it
    for arr in (idx, row_order, order, back, slot):
        arr.flags.writeable = False
    return Segments(idx, n, row_order, tuple(widths.tolist()), order, back, slot)


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """Where ``edge_message`` reads each edge's message among the blocks
    ``segment_blocks(rows, far)`` lays out, and where it writes each
    message's gradient; build one with :func:`block_plan`, once for every
    step that reads the same blocks.

    ``far`` lays the edges out in blocks of depth D = ``len(far.widths)``
    and ``near`` sums their messages. ``taken[j]`` is the cell, among the
    blocks' n * D flattened, of edge ``near.row_order[j]``, so one take
    reads the messages straight into ``near``'s slot order. ``source[c]``
    is the near node of cell c's edge, or ``near.num_segments`` for a pad
    cell, so one take of the message gradients with a zero row appended
    fills every cell. The arrays are read-only.
    """

    far: Segments
    near: Segments
    taken: np.ndarray
    source: np.ndarray


def block_plan(far: Segments, near: Segments) -> BlockPlan:
    """The plan of edges laid out by ``far`` and summed by ``near``; the two
    must index the same edges (DimensionError)."""
    if far.index.shape != near.index.shape:
        raise DimensionError(f"block plan needs one far and one near node per edge: "
                             f"{far.index.shape[0]} vs {near.index.shape[0]}")
    depth = len(far.widths)
    cells = far.index * depth + far.slot
    source = np.full(far.num_segments * depth, near.num_segments)
    source[cells] = near.index
    taken = cells[near.row_order]
    for arr in (taken, source):
        arr.flags.writeable = False
    return BlockPlan(far, near, taken, source)


def _slot_fold(seg: Segments, ufunc, out: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Fold ``taken``, rows in the plan's slot-major order, into ``out``,
    one running row per segment in ``seg.order``: slot j goes into the
    first ``widths[j]`` rows through ``ufunc``, in place, so each segment
    takes its rows one at a time in row order."""
    start = 0
    for width in seg.widths:
        head = out[:width]
        ufunc(head, taken[start:start + width], out=head)
        start += width
    return out


def _slot_sum(seg: Segments, taken: np.ndarray, total=None) -> np.ndarray:
    """``total`` (zeros when None) plus ``taken``, rows already in the
    plan's slot-major order, each added onto its segment's row: the
    running totals are kept in ``seg.order`` and one take puts them back
    in segment order."""
    out = (np.zeros((seg.num_segments,) + taken.shape[1:]) if total is None
           else np.take(total, seg.order, axis=0))
    return np.take(_slot_fold(seg, np.add, out, taken), seg.back, axis=0)


def _segment_sum(seg: Segments, rows: np.ndarray, total=None) -> np.ndarray:
    """A copy of ``total`` (zeros when None) plus each segment's ``rows``.

    One take lays the rows out slot-major (``_slot_sum``), and slot 0, 1,
    ... is added in turn onto the segments that have such a row
    (``_slot_fold``). Each segment thus adds its rows one at a time in row
    order, as ``np.add.at`` does, with the same bits. Neither
    ``sum(axis=0)`` (pairwise) nor ``np.add.reduceat`` keeps that order.

    Rows of one value each, summed from zeros, go through ``np.bincount``
    instead: it too adds each segment's values in row order onto a +0.0
    start, without the takes or one add per slot. (With no rows it would
    return integers, so those take the slot path.)
    """
    if total is None and rows.shape[0] and rows.size == rows.shape[0]:
        return np.bincount(seg.index, rows.ravel(), minlength=seg.num_segments
                           ).reshape((seg.num_segments,) + rows.shape[1:])
    return _slot_sum(seg, np.take(rows, seg.row_order, axis=0), total)


def _accumulate(pending: dict, t: Tensor, g) -> None:
    """Add one gradient contribution for ``t``.

    A leaf sums into its ``grad`` in place. A taped intermediate keeps its
    first contribution uncopied in ``pending`` and adds later ones out of
    place, so an array a rule handed to several parents is never written
    into. ``g`` may be ``(seg, rows)``, a :class:`Segments` plan and one
    row per index entry: ``_segment_sum`` adds each segment's rows onto
    its row of the running total.
    """
    if t.grad is not None:
        if isinstance(g, tuple):
            t.grad[...] = _segment_sum(*g, t.grad)
        else:
            t.grad += g
        return
    total = pending.get(t)
    if isinstance(g, tuple):
        pending[t] = _segment_sum(*g, total)
    else:
        pending[t] = g if total is None else total + g


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into ``grad`` of every leaf the scalar ``loss``
    depends on.

    Walks the active tape once in reverse, taking each entry off it before
    its rule runs, so that an entry's output and the arrays its rule holds
    are freed as soon as nothing later needs them, not when the whole walk
    ends. An intermediate's pending gradient is dropped once its own rule
    has run.
    """
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any tracked tensor")
    pending: dict = {}
    _accumulate(pending, loss, np.ones_like(loss.data))
    tape = _ctx().tape
    while tape:
        out, parents, rule = tape.pop()
        g = pending.pop(out, None)
        if g is None:
            continue
        for parent, pg in zip(parents, rule(g)):
            if pg is not None:
                _accumulate(pending, parent, pg)


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m, q) rows times a (q, p) matrix, or (m, k, q) rows times a (k, q,
    p) stack tower by tower, ``out[:, t] = x[:, t] @ w[t]``. A stack runs
    one ``np.matmul`` over the tower-major view (k, m, q) of ``x`` into the
    tower-major view of a fresh row-major (m, k, p) array, each tower's
    product the same BLAS call a matrix makes alone; a matrix stays on
    ``x @ w``, which skips the views and costs less per call. This rank
    test and the one in ``_product_grads`` are the only places where the
    code picks a product."""
    if w.ndim == 2:
        return x @ w
    out = np.empty(x.shape[:2] + w.shape[2:])
    np.matmul(x.transpose(1, 0, 2), w, out=out.transpose(1, 0, 2))
    return out


def _product_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray, x_rg: bool,
                   w_rg: bool):
    """The gradients of ``_product(x, w)``'s rows and weights for its
    gradient ``g``, each None where not needed."""
    if w.ndim == 2:
        return (g @ w.T if x_rg else None, x.T @ g if w_rg else None)
    gt = g.transpose(1, 0, 2)
    return ((gt @ w.transpose(0, 2, 1)).transpose(1, 0, 2) if x_rg else None,
            x.transpose(1, 2, 0) @ gt if w_rg else None)


def _product_parts(x: Tensor, w: Tensor):
    """Checked forward value, backward rule and multiply count of
    ``_product(x, w)``: the ranks must be equal, 2 or 3, and ``w``'s shape
    without its last axis must be ``x``'s without its first."""
    xs, ws = x.data.shape, w.data.shape
    if not (len(xs) == len(ws) in (2, 3) and ws[:-1] == xs[1:]):
        raise DimensionError(
            f"matmul needs (m, q) rows and a (q, p) matrix, or (m, k, q) rows "
            f"and a (k, q, p) stack: {xs} x {ws}")

    def rule(g: np.ndarray):
        return _product_grads(x.data, w.data, g, x.requires_grad, w.requires_grad)

    return _product(x.data, w.data), rule, x.data.size * ws[-1]


def matmul(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w`` (plus ``b``) as one taped op: a (q, p) matrix ``w`` maps
    (m, q) rows, with a (p,) bias; a (k, q, p) stack maps (m, k, q) rows
    tower by tower, ``out[:, t] = x[:, t] @ w[t]``, with a (k, p) bias.

    dX = g @ W^T and dW = X^T @ g, per tower for a stack. A bias is added
    in place into the fresh row-major product, with the bits of adding it
    to every row afterwards, and its gradient sums the rows'.
    """
    out, product_rule, muls = _product_parts(x, w)
    if b is not None:
        if b.data.shape != out.shape[1:]:
            raise DimensionError(
                f"matmul needs a bias of the output's row shape: {out.shape} + {b.data.shape}")
        out += b.data

    def rule(g: np.ndarray):
        grads = product_rule(g)
        return grads if b is None else (*grads, g.sum(axis=0) if b.requires_grad else None)

    return _result(out, (x, w) if b is None else (x, w, b), rule, muls)


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

    def rule(g: np.ndarray):
        return (np.einsum("ip,iq->ipq", g, vecs.data).reshape(m, p * q)
                if mats.requires_grad else None,
                np.einsum("ipq,ip->iq", m3, g) if vecs.requires_grad else None)

    return _result(np.einsum("ipq,iq->ip", m3, vecs.data), (mats, vecs), rule,
                   m * p * q)


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"elementwise op needs matching shapes: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _result(a.data + b.data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _result(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    out = a.data * b.data

    def rule(g: np.ndarray):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _result(out, (a, b), rule, out.size)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` from ``e = exp(-|x|)``, which never overflows:
    ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` elsewhere. The
    numerator ``max(e, x >= 0)`` picks each sign's form without a branch
    per element (``e <= 1``), with the bits of choosing between the two."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0)
    e += 1.0
    y /= e
    return y


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def rule(g: np.ndarray):
        return (g * (y * (1.0 - y)),)

    return _result(y, (x,), rule)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def rule(g: np.ndarray):
        return (g * (1.0 - y * y),)

    return _result(y, (x,), rule)


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``, elementwise.

    The result is not scanned for NaN/Inf: the clip of a finite input is
    finite, and the input was checked where it was made. A clip is also
    where a non-finite value would vanish, -inf turning into 0, so relu
    checks its input's least entry instead, one reduction that makes no
    array: NaN or -inf there raises, and +inf passes on to the next op
    that computes from it."""
    if x.data.size and not np.isfinite(x.data.min()):
        raise NumericError("non-finite input to relu")

    def rule(g: np.ndarray):
        return (g * (x.data > 0),)

    return _result(np.maximum(x.data, 0.0), (x,), rule, check=False)


def _check_axis(x: Tensor, axis: int) -> int:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {x.data.shape}")
    return axis % x.data.ndim


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements; backward broadcasts the gradient."""
    def rule(g: np.ndarray):
        return (np.full(x.data.shape, g),)

    return _result(x.data.sum(), (x,), rule)


# no caller in src/; kept while perfbench's tracer wraps it by name (tests/test_exports.py)
def softmax(x: Tensor, axis: int) -> Tensor:
    ax = _check_axis(x, axis)
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def rule(g: np.ndarray):
        s = (g * y).sum(axis=ax, keepdims=True)
        return (y * (g - s),)

    return _result(y, (x,), rule)


def segment_softmax(x: Tensor, seg: Segments) -> Tensor:
    """Softmax down each column over the rows of one segment.

    ``seg.index[i]`` is the segment of row i of the 2-D ``x``; the rows of
    a segment need not be adjacent. A segment with one row gets weight 1; a
    segment with no rows produces nothing. The per-segment maximum, one
    prefix ``np.maximum`` per slot of the plan, is subtracted before
    exponentiating, so large logits do not overflow.
    """
    if x.data.ndim != 2:
        raise DimensionError("segment_softmax needs a 2-D tensor")
    if seg.index.shape != (x.data.shape[0],):
        raise DimensionError("segment index length must match rows")
    if not np.isfinite(x.data).all():
        raise NumericError("non-finite logits in segment_softmax")
    idx = seg.index
    # the maxima are in the plan's segment order
    peak = np.full((seg.num_segments, x.data.shape[1]), -np.inf)
    _slot_fold(seg, np.maximum, peak, np.take(x.data, seg.row_order, axis=0))
    e = np.exp(x.data - peak[seg.back[idx]])
    y = e / _segment_sum(seg, e)[idx]

    def rule(g: np.ndarray):
        return (y * (g - _segment_sum(seg, g * y)[idx]),)

    return _result(y, (x,), rule)


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    """The tensors joined along ``axis``. It only moves values, each
    checked where it was made, so the result is not scanned again."""
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

    return _result(np.concatenate([t.data for t in xs], axis=ax), tuple(xs), rule,
                   check=False)


def reshape(x: Tensor, shape) -> Tensor:
    """``x``'s values in another shape, a view where numpy gives one. It
    moves no value, so the result is not scanned again."""
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.data.shape} to {shape}")

    def rule(g: np.ndarray):
        return (g.reshape(x.data.shape),)

    return _result(x.data.reshape(shape), (x,), rule, check=False)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    """The axes of ``x`` in the order ``axes`` lists them, as
    ``np.transpose`` gives them, in a fresh row-major array. It only moves
    values, so the result is not scanned again."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"transpose needs a permutation of {x.data.ndim} axes: {axes}")

    def rule(g: np.ndarray):
        return (g.transpose(np.argsort(axes)),)

    return _result(x.data.transpose(axes), (x,), rule, check=False)


def gather_rows(x: Tensor, seg: Segments) -> Tensor:
    """Select rows (slices along the first axis) of a tensor of any rank:
    row i of the result is row ``seg.index[i]`` of ``x`` (repeats
    allowed). ``seg`` has one segment per row of ``x``; backward sums the
    gradients of each row's copies through it.

    It only copies rows, so the result is not scanned again. A row it
    leaves out reaches neither the value nor a gradient."""
    if x.data.ndim < 1:
        raise DimensionError("gather_rows needs a tensor with rows")
    if seg.num_segments != x.data.shape[0]:
        raise DimensionError(
            f"gather_rows plan has {seg.num_segments} segments for {x.data.shape[0]} rows")

    def rule(g: np.ndarray):
        return ((seg, g),)

    return _result(x.data[seg.index], (x,), rule, check=False)


def scatter_sum_rows(x: Tensor, seg: Segments) -> Tensor:
    """Sum rows of ``x`` (any rank) into ``seg.num_segments`` output rows:
    row i of ``x`` goes to row ``seg.index[i]``."""
    if x.data.ndim < 1:
        raise DimensionError("scatter_sum_rows needs a tensor with rows")
    if seg.index.shape != (x.data.shape[0],):
        raise DimensionError("scatter index length must match rows")

    def rule(g: np.ndarray):
        return (g[seg.index],)

    return _result(_segment_sum(seg, x.data), (x,), rule)


def segment_blocks(x: Tensor, seg: Segments) -> Tensor:
    """Each segment's rows of ``x`` (any rank) as one zero-padded block:
    row i goes to slot ``seg.slot[i]`` of block ``seg.index[i]``, so the
    result is (seg.num_segments, D) plus the row shape, D the largest count
    (``len(seg.widths)``). Backward is one take of each row's slot out of
    the blocks' gradient, however many ops read the blocks.

    It only moves rows and writes zeros, so the result is not scanned
    again."""
    if x.data.ndim < 1 or seg.index.shape != (x.data.shape[0],):
        raise DimensionError(f"segment_blocks plan has {seg.index.shape[0]} rows "
                             f"for {x.data.shape}")
    depth, row = len(seg.widths), x.data.shape[1:]
    # each row's cell in the blocks flattened to their (num_segments * D) rows
    cells = seg.index * depth + seg.slot
    out = np.zeros((seg.num_segments * depth,) + row)
    out[cells] = x.data

    def rule(g: np.ndarray):
        return (np.take(g.reshape(out.shape), cells, axis=0),)

    return _result(out.reshape((seg.num_segments, depth) + row), (x,), rule, check=False)


def edge_message(h: Tensor, edges, w2: Tensor, b2: Tensor | None, plan) -> Tensor:
    """A matrix message summed at each node, all towers at once, as one
    taped op that builds no matrix per edge: the edge network's, over raw
    vectors or over labels, and the matmul message.

    ``h`` is (n, k, q) and ``w2`` (k, u, p*q), u row-major (p x q) unit
    matrices per tower. Edge i's message in tower t is ``A @ h[w, t]``, w
    its far node, summed onto its near node, row i of the near plan; the
    result is (near.num_segments, k, p). What ``edges`` is picks how each
    edge gets its A, and what ``plan`` is:

    - hidden blocks, an (n, D, k, u + 1) Tensor, with the
      :class:`BlockPlan` of the edges' far and near plans: each edge's
      hidden row laid out in its far node's block by
      ``segment_blocks(hidden, plan.far)``, D the largest count of
      ``plan.far``. The rows are in homogeneous coordinates, their last
      unit 1 (and 0 in a pad cell), so ``A = hidden[i, t, :u] @ w2[t] +
      b2[t]``, with ``b2`` (k, p*q): the edge network's last layer over raw
      vectors, whose bias is one more unit matrix;
    - labels, a :class:`Segments` plan of each edge's (far node, label)
      pair, ``far * u + label`` over n * u segments, with the near plan
      itself: A is the label's unit matrix, and ``b2`` is None.

    A's last layer is linear, so the forward takes the states first: every
    node's products with the unit matrices, ``U``. With labels they are
    one product per tower and label, written in place as one (k, p) row
    per (node, label) pair, and a message is its pair's row, so the op
    makes n * u products, not one per edge. With hidden blocks U is (n, k,
    u + 1, p), one product per tower with w2's matrices (``_product``) and
    one with b2's, written in place into the last unit. One batched matmul
    contracts every node's (D, u + 1) block with its U, through the
    blocks' tower-major view, into messages laid out as the blocks are:
    the last unit adds each edge's bias, and a pad cell's zeros add none.
    So it makes n products with u + 1 matrices, not E matrices, and its
    largest arrays are U and the (n, D, k, p) messages; a call that is not
    taped frees U once the messages are made. Either way the
    messages are read straight into ``near``'s slot order, with blocks by
    one flat take of the plan's cells, and added onto the nodes
    (``_slot_sum``), each node adding its messages one at a time in edge
    order, as a scatter does. With no labelled edge the result is zeros,
    and nothing is taped.

    The rule runs the same products transposed. With labels, the message
    gradients ``g[near.index]`` are summed through the pairs plan into U's.
    With hidden blocks, a taped step holds U, its one array of its own;
    the blocks and the plan are the caller's, made once for every step.
    One take fills each cell with its edge's message gradient, a pad cell
    with zeros. Their products with the blocks give U's gradient, whose
    last unit is the bias's, and then with U the blocks'; U's gradient is
    freed before the blocks' is made. U's gradient times the states gives
    ``w2``'s and ``b2``'s, dense and of their own shapes, which a leaf adds
    into its ``grad`` in place; times the matrices it gives h's. The
    blocks' gradient keeps their layout, so ``backward`` sums the steps'
    block gradients elementwise and ``segment_blocks``' rule gathers the
    rows out once. The parents are ``(w2, b2, blocks, h)``, or ``(w2, h)``
    with labels, in the order the tape of the node products, the
    contraction or gather, and a scatter would deliver them. The multiply
    count is the edges' contractions over the u hidden units and the node
    products, not the padding's or the bias unit's; with labels, only the
    products at the (node, label) pairs some edge reads
    (``edges.widths[0]`` of them), so that a union counts what its graphs
    would count alone, whatever labels the others bring.

    Only the result is checked for NaN/Inf. That is enough: h was checked
    where it was made, and the hidden blocks hold the first layer's
    checked products, clipped by relu and moved by their layout, their
    unit exactly 1; every entry of a unit matrix, b2's included, reaches
    each node's U (zero times inf is NaN); every entry of a sending node's
    U is multiplied into each of its messages with hidden blocks, the
    bias's unit by 1 (a pad cell's product may be NaN, but no message
    reads it), and with labels every unit is some edge's label (the
    callers stack only the labels present), whose message copies it; every
    message is added into exactly one result row, and IEEE addition never
    turns inf or NaN back into a finite number. The U that no message
    reads reaches neither the value nor a gradient.
    """
    labelled = isinstance(edges, Segments)
    if (h.data.ndim != 3 or w2.data.ndim != 3
            or not (isinstance(plan, Segments) if labelled
                    else edges.data.ndim == 4 and isinstance(plan, BlockPlan))):
        raise DimensionError("edge_message needs (n, k, q) states, (k, u, p*q) matrices "
                             "and (n, D, k, u + 1) hidden blocks with their BlockPlan, "
                             "or a plan of labels with the near plan")
    n, k, q = h.data.shape
    _, units, width = w2.data.shape
    near = plan if labelled else plan.near
    if w2.data.shape[0] != k or width % q:
        raise DimensionError(f"edge_message needs ({k}, u, p*{q}) matrices for states "
                             f"{h.data.shape}: {w2.data.shape}")
    if labelled:
        if b2 is not None or edges.num_segments != n * units:
            raise DimensionError(f"edge_message needs labels over {n} x {units} (node, "
                                 f"label) pairs and no bias: {edges.num_segments} pairs")
        if edges.index.shape != near.index.shape:
            raise DimensionError("edge_message plans and edges disagree on the edges")
    else:
        depth = len(plan.far.widths)
        if plan.far.num_segments != n:
            raise DimensionError(f"edge_message far plan has {plan.far.num_segments} "
                                 f"segments for {n} states")
        if (edges.data.shape != (n, depth, k, units + 1) or b2 is None
                or b2.data.shape != (k, width)):
            raise DimensionError(f"edge_message needs ({n}, {depth}, {k}, {units + 1}) "
                                 f"hidden blocks and a ({k}, {width}) bias for matrices "
                                 f"{w2.data.shape}: {edges.data.shape}, "
                                 f"{None if b2 is None else b2.data.shape}")
    p = width // q
    m = near.index.shape[0]
    if labelled and not m:
        return _result(np.zeros((near.num_segments, k, p)), (), None)
    w = w2.data.reshape(k, units * p, q)
    rows = h.data.transpose(1, 0, 2)

    def node_grads(g_u):
        # w2's and h's gradients from U's, (n, k, u * p)
        return ((g_u.transpose(1, 2, 0) @ rows).reshape(w2.data.shape)
                if w2.requires_grad else None,
                _product(g_u, w) if h.requires_grad else None)

    if labelled:
        # U one row per (node, label) pair, (n * u, k, p), each tower and
        # label's product written in place
        u = np.empty((n, units, k, p))
        np.matmul(rows[:, None], w.reshape(k, units, p, q).swapaxes(-1, -2),
                  out=u.transpose(2, 1, 0, 3))
        msgs = np.take(u.reshape(n * units, k, p), edges.index[near.row_order], axis=0)
        del u  # not needed past here: freeing it lowers the call's peak
        total = _slot_sum(near, msgs)

        def rule(g: np.ndarray):
            # the message gradients g[near.index], taken straight into the
            # pairs plan's slot order and summed there
            g_u = _slot_sum(edges, np.take(g, near.index[edges.row_order], axis=0))
            return node_grads(g_u.reshape(n, units, k, p).transpose(0, 2, 1, 3)
                              .reshape(n, k, units * p))

        return _result(total, (w2, h), rule, edges.widths[0] * k * q * p)

    blocks, r = edges, units
    b = b2.data.reshape(k, p, q)
    # U, (n, k, r + 1, p): the products with w2's matrices, and b2's in the
    # last unit, each written through U's tower-major view
    u = np.empty((n, k, r + 1, p))
    for mats, cols in ((w, slice(None, r * p)), (b, slice(r * p, None))):
        np.matmul(rows, mats.transpose(0, 2, 1),
                  out=u.reshape(n, k, (r + 1) * p)[:, :, cols].transpose(1, 0, 2))
    # the messages in the blocks' layout, (n, D, k, p), written through
    # their tower-major view
    y = np.empty((n, depth, k, p))
    np.matmul(blocks.data.transpose(0, 2, 1, 3), u, out=y.transpose(0, 2, 1, 3))
    parents = (w2, b2, blocks, h)
    if not _taped(parents):
        del u  # no rule will read it: freeing it lowers the call's peak
    total = _slot_sum(near, np.take(y.reshape(n * depth, k, p), plan.taken, axis=0))

    def rule(g: np.ndarray):
        # each cell's message gradient, a pad cell's from an appended zero row
        g_y = np.take(np.concatenate([g, np.zeros((1, k, p))]), plan.source, axis=0
                      ).reshape(n, depth, k, p).transpose(0, 2, 1, 3)
        g_u = (blocks.data.transpose(0, 2, 3, 1) @ g_y).reshape(n, k, (r + 1) * p)
        g_w2, g_h = node_grads(g_u[:, :, :r * p])
        g_c = g_u[:, :, r * p:]
        g_b2 = ((g_c.transpose(1, 2, 0) @ rows).reshape(b2.data.shape)
                if b2.requires_grad else None)
        if h.requires_grad:
            g_h += _product(g_c, b)
        del g_u, g_c  # freed before the blocks' gradient is made
        g_blocks = None
        if blocks.requires_grad:
            g_blocks = np.empty((n, depth, k, r + 1))
            np.matmul(g_y, u.swapaxes(-1, -2), out=g_blocks.transpose(0, 2, 1, 3))
        return g_w2, g_b2, g_blocks, g_h

    return _result(total, parents, rule, n * k * q * (r + 1) * p + m * k * r * p)


# no caller in src/; kept while perfbench's tracer wraps it by name (tests/test_exports.py)
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


# no caller in src/; kept while perfbench's tracer wraps it by name (tests/test_exports.py)
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
    """Gated recurrent update, as one taped op:

        z = sigmoid(x Wz + h Uz)
        r = sigmoid(x Wr + h Ur)
        hbar = tanh(x Wh + (r * h) Uh)
        h' = (1 - z) * h + z * hbar

    States are row stacks: ``x`` is (n, d_in), ``h`` and the result (n, d).
    Weights with a leading tower axis, (k, d_in, d) and (k, d, d), run k
    independent cells over (n, k, d_in) and (n, k, d) states.

    The bits are those of the cell composed from ``matmul``, ``add``,
    ``sigmoid``, ``tanh``, ``sub`` and ``mul``, forward and backward, and so
    is the multiply count: the six products plus three per output element.
    The rule replays that composition's tape in reverse through the
    products' own rules. The parents name x three times and h four times,
    once per gradient contribution, among the weights in the order that tape
    delivered them, so ``backward`` adds each contribution into a pending
    total one at a time, as it did. That order shows when h has another
    consumer, such as the master node's per-graph sum of h.

    Only the three pre-activations and the result are checked for NaN/Inf.
    That is enough: a non-finite product makes its pre-activation
    non-finite; the gates and ``tanh`` lie in [-1, 1], so ``r * h`` is
    finite for a finite ``h``; and ``|h'| <= |h| + 1``.
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
    p = params

    def pre_activation(u, wu, v, wv):
        # u wu + v wv, each product from matmul's kernel, for either rank
        (a, a_rule, a_muls), (b, b_rule, b_muls) = _product_parts(u, wu), _product_parts(v, wv)
        a += b
        if not np.isfinite(a).all():
            raise NumericError("non-finite GRU pre-activation")
        return a, a_rule, b_rule, a_muls + b_muls

    s_z, xz_rule, hz_rule, muls_z = pre_activation(x, p.wz, h, p.uz)
    s_r, xr_rule, hr_rule, muls_r = pre_activation(x, p.wr, h, p.ur)
    z, r = _sigmoid(s_z), _sigmoid(s_r)
    del s_z, s_r  # not needed past here: freeing them lowers the call's peak
    needs = lambda *ts: any(t.requires_grad for t in ts)
    z_rg, r_rg = needs(x, h, p.wz, p.uz), needs(x, h, p.wr, p.ur)
    rh = Tensor.__new__(Tensor)  # unchecked: |r| <= 1, so r * h is finite
    rh.data, rh.requires_grad, rh.grad = r * h.data, r_rg, None
    s_h, xh_rule, rhh_rule, muls_h = pre_activation(x, p.wh, rh, p.uh)
    hbar = np.tanh(s_h, out=s_h)
    hbar_rg = r_rg or needs(x, p.wh, p.uh)
    # (1 - z) is made again where needed rather than kept: same bits
    out = 1.0 - z
    out *= h.data
    out += z * hbar
    none = (None, None)

    def rule(g: np.ndarray):
        # out = (1 - z) * h + z * hbar: h's first contribution is g * (1 - z),
        # and z's gradient is g * hbar plus -(g * h), in that order
        g_h1 = g * (1.0 - z) if h.requires_grad else None
        g_sh = (g * z) * (1.0 - hbar * hbar) if hbar_rg else None
        g_rh, g_uh = rhh_rule(g_sh) if hbar_rg else none
        g_h2 = g_rh * r if h.requires_grad else None
        g_x1, g_wh = xh_rule(g_sh) if hbar_rg else none
        g_sr = (g_rh * h.data) * (r * (1.0 - r)) if r_rg else None
        g_h3, g_ur = hr_rule(g_sr) if r_rg else none
        g_x2, g_wr = xr_rule(g_sr) if r_rg else none
        g_sz = (g * hbar + -(g * h.data)) * (z * (1.0 - z)) if z_rg else None
        g_h4, g_uz = hz_rule(g_sz) if z_rg else none
        g_x3, g_wz = xz_rule(g_sz) if z_rg else none
        return (g_h1, g_uh, g_h2, g_x1, g_wh, g_h3, g_ur, g_x2, g_wr,
                g_h4, g_uz, g_x3, g_wz)

    parents = (h, p.uh, h, x, p.wh, h, p.ur, x, p.wr, h, p.uz, x, p.wz)
    return _result(out, parents, rule, muls_z + muls_r + muls_h + 3 * out.size)


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old or the new file,
    never a partial one. A failed write or replace removes its temporary
    file and re-raises."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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
