"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Only the operations the graph models in this package actually need are
implemented: one weight product, ``matmul``, of rows by a matrix or by a
per-tower stack of matrices (with an optional bias added in the same op),
per-row and per-pair matrix-vector products, a small set of pointwise
functions, reductions, softmax (over an axis or per segment of rows),
concatenation/slicing, row gather/scatter, the matmul message of every edge
label (gathered, multiplied per tower and summed at each node), and a GRU
cell over row-stacked states. The message and the GRU cell are each one
taped op whose rule replays, with the same bits, the tape the op composed
from the primitives would record. Elementwise operands must match in shape,
so every backward rule stays auditable at a glance.

A backward rule is a pure function of its output's gradient: it returns
one gradient per parent and writes nothing. ``backward`` is the only code
that stores and sums gradients; taped intermediates never hold one, and
leaves (tensors created with ``requires_grad``) accumulate into ``grad``.
A rule may hand a parent's gradient back as the two factors of a batched
product instead of a dense array (``pair_matvec`` does, for its matrices);
``backward`` keeps an intermediate's factors until they are needed and
sums them all in one matmul. Both factors hold the summed axis second to
last, (..., r, p) and (..., r, q), so stacking them copies whole rows.
Leaves that ``training.Adam`` optimizes hold views into its flat buffers
as ``data`` and ``grad``; ``backward`` adds into ``grad`` in place and
never rebinds it, so the sums land in Adam's buffer.

Row indexes arrive as :class:`Segments` plans (``segments``), built once
per index and reused by every op over it: ``gather_rows``,
``scatter_sum_rows``, ``segment_softmax`` and ``matmul_message``. A plan
orders the segments by decreasing row count and lists the rows
slot-major, slot j holding the j-th row of every segment that has one, so
a sum over segments is one take of the rows, one add per slot onto the
prefix of segments that slot covers, and one take back (``_segment_sum``;
rows of one value each summed from zeros go through ``np.bincount``),
touching each row once, in the order and with the bits ``np.add.at``
would give. ``gather_rows``' rule hands back ``(plan, rows)``, which
``backward`` sums the same way.

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
    "batched_matvec",
    "pair_matvec",
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
    "concat",
    "reshape",
    "gather_rows",
    "scatter_sum_rows",
    "matmul_message",
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


def _result(data: np.ndarray, parents: Sequence[Tensor], rule: Callable,
            muls: int = 0) -> Tensor:
    """Count the op's ``muls`` scalar multiplies, wrap its forward result,
    check finiteness, and tape it when needed."""
    ctx = _ctx()
    if ctx.mul_counter is not None:
        ctx.mul_counter.total += int(muls)
    data = np.asarray(data, dtype=np.float64, order="C")
    if not np.isfinite(data).all():
        raise NumericError("non-finite value produced by a forward op")
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
    ``left`` (..., r, p) and ``right`` (..., r, q), summed over r as
    ``left^T @ right`` and flattened to the parent's shape. ``backward``
    stacks the factors of an intermediate's pending contributions along r,
    whole rows at a time, and multiplies once, so their sum is one
    matmul."""

    left: np.ndarray
    right: np.ndarray


def _dense(factors: Sequence[_Factors], shape) -> np.ndarray:
    """The sum of the products of ``factors``, from one batched matmul."""
    if len(factors) == 1:
        left, right = factors[0].left, factors[0].right
    else:
        left = np.concatenate([f.left for f in factors], axis=-2)
        right = np.concatenate([f.right for f in factors], axis=-2)
    return (left.swapaxes(-1, -2) @ right).reshape(shape)


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
    0 first, each slot in ``order``. Nothing is padded. The arrays are
    read-only and ``widths`` is a tuple.
    """

    index: np.ndarray
    num_segments: int
    row_order: np.ndarray
    widths: tuple[int, ...]
    order: np.ndarray
    back: np.ndarray


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
    # checked once and shared by every op over it, so nothing may edit it
    for arr in (idx, row_order, order, back):
        arr.flags.writeable = False
    return Segments(idx, n, row_order, tuple(widths.tolist()), order, back)


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
    its row of the running total. ``g`` may be :class:`_Factors`: an
    intermediate collects them in a list until its own rule runs or a
    contribution of another kind arrives, and then makes the list dense
    with one matmul; a leaf makes them dense at once.
    """
    if t.grad is not None:
        if isinstance(g, tuple):
            t.grad[...] = _segment_sum(*g, t.grad)
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
        pending[t] = _segment_sum(*g, total)
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


def pair_matvec(mats: Tensor, vecs: Tensor, pair, side) -> Tensor:
    """Matrix-vector products where each matrix serves up to two rows.

    ``mats`` holds one row-major (p x q) matrix per pair, flattened to
    (P, ..., p*q); ``vecs`` is (m, ..., q), with the same middle axes (the
    towers, if any). Row i of ``vecs`` takes slot ``side[i]`` (0 or 1) of
    pair ``pair[i]``, and no two rows may share a slot. Returns (m, ..., p)
    with ``out[i, j] = mats[pair[i], j] @ vecs[i, j]``. The forward
    stacks the vectors as (P, ..., q, 2) columns, an empty slot as a zero
    column, and multiplies in one batched matmul. Its rule lays the output
    gradient and the vectors out slot-major, (P, ..., 2, p) and
    (P, ..., 2, q), writing whole rows through ``sel = (pair, :, ...,
    side)``. Each matrix's gradient sums both of its slots and is handed
    back as those two :class:`_Factors`, so ``backward`` sums the
    gradients of every call that shares ``mats`` in one matmul, stacking
    whole rows. (Multiplying the slot-major vectors in the forward too
    changes its bits at q = 16 and 25, so the forward keeps columns.)
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
    sel = (pair, *(slice(None),) * len(mid), side)

    def rule(g: np.ndarray):
        gy = np.zeros((n_pairs, *mid, 2, p))
        gy[sel] = g
        g_mats = None
        if mats.requires_grad:
            xt = np.zeros((n_pairs, *mid, 2, q))
            xt[sel] = vecs.data
            g_mats = _Factors(gy, xt)
        return (g_mats,
                (m3.swapaxes(-1, -2) @ gy.swapaxes(-1, -2))[pair, ..., side]
                if vecs.requires_grad else None)

    return _result((m3 @ x)[pair, ..., side], (mats, vecs), rule,
                   vecs.data.size * p)


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


def gather_rows(x: Tensor, seg: Segments) -> Tensor:
    """Select rows (slices along the first axis) of a tensor of any rank:
    row i of the result is row ``seg.index[i]`` of ``x`` (repeats
    allowed). ``seg`` has one segment per row of ``x``; backward sums the
    gradients of each row's copies through it."""
    if x.data.ndim < 1:
        raise DimensionError("gather_rows needs a tensor with rows")
    if seg.num_segments != x.data.shape[0]:
        raise DimensionError(
            f"gather_rows plan has {seg.num_segments} segments for {x.data.shape[0]} rows")

    def rule(g: np.ndarray):
        return ((seg, g),)

    return _result(x.data[seg.index], (x,), rule)


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


def matmul_message(h: Tensor, weights: Sequence[Tensor], far: Sequence[Segments],
                   near: Sequence[Segments], sources: Sequence[np.ndarray]) -> Tensor:
    """The matmul message of every edge label summed at each node, all
    towers at once, as one taped op: the value of ``scatter_sum_rows(
    matmul(gather_rows(h, far[l]), weights[l]), near[l])`` per label l,
    the labels' parts added in order (zeros of h's shape for no label).

    ``h`` is (n, k, q) and ``weights[l]`` (k, q, p). Label l's edges are
    the rows of its two plans: ``far[l]`` (one segment per row of h) picks
    the state each message is computed from, ``near[l]`` the node it is
    summed onto. ``sources[l]`` must be ``far[l].index`` in ``near[l]``'s
    slot-major order, ``far[l].index[near[l].row_order]``; a caller builds
    it once per pair of plans. The forward takes h's rows straight into
    that order, multiplies them there, adds the slots onto the nodes
    (``_slot_sum``) and takes the sums back once: no message is copied
    into slots. Each node still adds its messages one at a time in edge
    order, as the scatter does. A product row has the composed product's
    bits where BLAS gives a row the same bits wherever it sits in the
    block; at some tower widths (17-19, 25-27 and 33-35 on one OpenBLAS
    build, among them the paper's d=200, k=8) it may not, and the sums
    then differ in the last bits.

    The rule replays the composed tape in reverse with its parts' own numpy
    calls, last label first, in edge order: ``g[near.index]``, the product
    kernel's gradients (``_product_grads``) for the weight and the rows,
    and ``(far, rows)`` for h, which ``backward`` sums through the plan.
    The parents name each label's weight and then h, last label first, as
    the composed tape delivered them, so every gradient keeps the composed
    bits and h's contributions add onto its running total one label at a
    time. The multiply count is the products', as before.

    Only the result is checked for NaN/Inf. That is enough: every product
    row is added into exactly one result row, and IEEE addition never turns
    inf or NaN back into a finite number, so a non-finite product or
    partial sum leaves the result non-finite.
    """
    if h.data.ndim != 3:
        raise DimensionError("matmul_message needs (n, k, q) states")
    groups = list(zip(weights, far, near, sources))
    if not len(groups) == len(weights) == len(far) == len(near) == len(sources):
        raise DimensionError(
            "matmul_message needs a weight, two plans and sources per label")
    n, k, q = h.data.shape
    out_shape = ((near[0].num_segments, k, weights[0].data.shape[-1]) if groups
                 else h.data.shape)
    for w, f, nr, src in groups:
        if w.data.shape[:2] != (k, q) or w.data.ndim != 3:
            raise DimensionError(
                f"matmul_message weight {w.data.shape} does not fit states {h.data.shape}")
        if (nr.num_segments, k, w.data.shape[2]) != out_shape:
            raise DimensionError("matmul_message labels disagree on the result's shape")
        if f.num_segments != n:
            raise DimensionError(f"matmul_message far plan has {f.num_segments} "
                                 f"segments for {n} states")
        if not f.index.shape == nr.index.shape == np.shape(src):
            raise DimensionError("matmul_message plans and sources disagree on the edges")
    parts = [_slot_sum(nr, _product(np.take(h.data, src, axis=0), w.data))
             for w, _, nr, src in groups]
    total = parts[0] if parts else np.zeros(h.data.shape)
    for part in parts[1:]:
        total += part

    def rule(g: np.ndarray):
        grads = []
        for w, f, nr, _ in reversed(groups):
            g_rows, g_w = _product_grads(h.data[f.index], w.data, g[nr.index],
                                         h.requires_grad, w.requires_grad)
            grads += [g_w, None if g_rows is None else (f, g_rows)]
        return grads

    parents = [t for w, *_ in reversed(groups) for t in (w, h)]
    return _result(total, parents, rule,
                   sum(src.size * w.data.size for w, _, _, src in groups))


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
    needs = lambda *ts: any(t.requires_grad for t in ts)
    z_rg, r_rg = needs(x, h, p.wz, p.uz), needs(x, h, p.wr, p.ur)
    rh = Tensor.__new__(Tensor)  # unchecked: |r| <= 1, so r * h is finite
    rh.data, rh.requires_grad, rh.grad = r * h.data, r_rg, None
    s_h, xh_rule, rhh_rule, muls_h = pre_activation(x, p.wh, rh, p.uh)
    hbar = np.tanh(s_h)
    hbar_rg = r_rg or needs(x, p.wh, p.uh)
    omz = 1.0 - z
    out = omz * h.data + z * hbar
    none = (None, None)

    def rule(g: np.ndarray):
        # out = (1 - z) * h + z * hbar: h's first contribution is g * (1 - z),
        # and z's gradient is g * hbar plus -(g * h), in that order
        g_h1 = g * omz if h.requires_grad else None
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
