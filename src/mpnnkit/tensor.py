"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Only the operations the graph models in this package actually need are
implemented: one weight product, ``matmul``, of rows by a matrix or by a
stack of matrices, one or more per tower (with an optional bias added in
the same op),
per-row matrix-vector products, a small set of pointwise functions,
reductions, softmax (over an axis or per segment of rows),
concatenation/slicing/axis permutation and a leading block, row
gather/scatter, rows laid out in zero-padded blocks per segment, the two
matrix messages summed at each node with no matrix built per edge, both
channels at once
(``label_message`` over discrete labels, ``edge_message`` over the edge
network's hidden rows; each docstring gives its layout), and a GRU cell over
row-stacked states. The
messages and the GRU cell are each one taped op whose rule replays, with
the same bits, the tape the op composed from simpler ops would record.
Elementwise operands must match in shape, so every backward rule stays
auditable at a glance.

A backward rule is a pure function of its output's gradient: it returns
one gradient per parent and writes nothing. ``backward`` is the only code
that stores and sums gradients; taped intermediates never hold one, and
leaves (tensors created with ``requires_grad``) accumulate into ``grad``.
Leaves that ``training.Adam`` optimizes hold views into its flat
buffers as ``data`` and ``grad``; ``backward`` adds into ``grad`` in place
and never rebinds it, so the sums land in Adam's buffer.

Row indexes arrive as :class:`Segments` plans (``segments``), built once
per index and reused by every op over it: ``gather_rows``,
``scatter_sum_rows``, ``segment_softmax``, ``segment_blocks``,
``label_message`` and ``edge_message``. A plan orders the segments by
decreasing row count and lists the rows slot-major, slot j holding the
j-th row of every segment that has one, so a sum over segments is one
take of the rows, one add per slot onto the prefix of segments that slot
covers, and one take back (``_segment_sum``; rows of one value each
summed from zeros go through ``np.bincount``), touching each row once, in
the order and with the bits ``np.add.at`` would give. ``gather_rows``'
rule hands back ``(plan, rows)``, which ``backward`` sums the same way.
The message ops sum a node's messages in the same order, but past the
first ``SUM_BLOCK`` slots in blocks summed apart (``_slot_sum``). A row's
slot is also its place in a zero-padded block of its segment's rows,
and ``Segments.cells`` its cell among the blocks flattened, computed once
per plan for ``segment_blocks`` and ``block_plan``. Each message op reads
its edges through a plan made once per forward and shared by every step: a
:class:`LabelPlan` (``label_plan``, which builds its own plan of the
(far node, label) pairs) or a :class:`BlockPlan` (``block_plan``).

Every op that computes new values checks its forward result for NaN/Inf,
so divergence surfaces as a :class:`NumericError` at the op that produced
it. The ops that only move values, ``reshape``, ``transpose``, ``concat``,
``leading_block``, ``gather_rows`` and ``segment_blocks``, do not scan
their result again: each input was checked where it was made, so what they pass on is
finite, and a value made non-finite past that check (written into a
leaf in place) still raises at the first op that computes from it.
``relu`` clips, and checks only its input's least entry, the -inf that a
clip would turn into 0; ``segment_softmax`` checks its logits the same
way, since ``exp`` would turn -inf into a weight of 0, and a +inf logit
makes its segment's weights NaN, which its result's check catches. The
fused ops check less and say in their docstrings why that is enough:
``label_message`` and ``edge_message`` check only their result, and
``gru_cell`` its three pre-activations and its result. ``_result`` is the
only code that makes a Tensor without ``Tensor()``'s check.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import reprlib
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
    "grad_enabled",
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
    "LabelPlan",
    "label_plan",
    "concat",
    "reshape",
    "gather_rows",
    "scatter_sum_rows",
    "segment_blocks",
    "label_message",
    "edge_message",
    "transpose",
    "slice_cols",
    "leading_block",
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


class _TapingState(threading.local):
    """The taping state of one thread: its tape, whether ops are taped and
    the counter multiplies go to. Tapes are confined to one worker; each
    thread starts with its own defaults, so that stays true even if callers
    use threads instead of processes."""

    def __init__(self):
        self.tape: list = []
        self.grad_enabled = True
        self.mul_counter: MultiplyCounter | None = None


_state = _TapingState()


def active_tape() -> list[tuple["Tensor", tuple["Tensor", ...], Callable]]:
    """The ordered record of taped operations for one reverse pass.

    Entries (output, parents, backward rule) are appended in execution
    order, so the list is topologically sorted by construction: every op's
    inputs were created before the op itself. ``backward`` walks it once in
    reverse and then clears it.
    """
    return _state.tape


def grad_enabled() -> bool:
    """Whether ops are taped here: true outside ``no_grad``."""
    return _state.grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable taping inside the block (forward values only)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextlib.contextmanager
def count_multiplies(counter: MultiplyCounter):
    """Route multiply counts of ops executed inside the block to ``counter``."""
    prev = _state.mul_counter
    _state.mul_counter = counter
    try:
        yield counter
    finally:
        _state.mul_counter = prev


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
    return _state.grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor], rule: Callable,
            muls: int = 0, check: bool = True) -> Tensor:
    """Count the op's ``muls`` scalar multiplies, wrap its forward result,
    check finiteness unless ``check`` is false, and tape it when needed.

    Only an op that moves or clips values already checked passes ``check``
    false, and its docstring says why that is enough."""
    if _state.mul_counter is not None:
        _state.mul_counter.total += int(muls)
    data = np.asarray(data, dtype=np.float64, order="C")
    if check and not np.isfinite(data).all():
        raise NumericError("non-finite value produced by a forward op")
    rg = _taped(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = rg
    out.grad = None
    if rg:
        _state.tape.append((out, tuple(parents), rule))
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

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """Row i's cell, ``index[i] * D + slot[i]``, among the zero-padded
        blocks of the segments' rows flattened to ``num_segments * D`` rows,
        D = ``len(widths)`` (``segment_blocks``). Made once, by the first op
        that reads it, and read-only."""
        cells = self.index * len(self.widths) + self.slot
        cells.flags.writeable = False
        return cells


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an array, refused (ContractError) unless it is empty or
    of integer dtype: a float would truncate to another row's number, and a
    boolean read as 0 and 1."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ContractError(f"{what} must hold integers, not {arr.dtype}")
    return arr


def segments(index, num_segments: int) -> Segments:
    """The plan for ops over rows grouped by ``index`` into
    ``num_segments`` segments, from one stable argsort of the rows, one of
    the counts and two bincounts; each row's place is ``offset[rank] +
    back[segment]``, its rank within its segment found from the sorted
    rows, so no second row sort is needed.

    This is the only check of an index: it must be 1-D (DimensionError)
    and of integer dtype, unless empty, with every entry in
    ``[0, num_segments)`` (ContractError).
    """
    idx = np.array(_integers(index, "segment index"), dtype=np.intp)
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
    reads the messages straight into ``near``'s slot order. The arrays are
    read-only.
    """

    far: Segments
    near: Segments
    taken: np.ndarray

    @functools.cached_property
    def source(self) -> np.ndarray:
        """Each cell's edge's near node, ``near.num_segments`` for a pad cell:
        one take of the message gradients, a zero row appended, fills every
        cell. The first rule to read it makes it; an untaped forward never."""
        source = np.full(self.far.num_segments * len(self.far.widths), self.near.num_segments)
        source[self.far.cells] = self.near.index
        source.flags.writeable = False
        return source


def block_plan(far: Segments, near: Segments) -> BlockPlan:
    """The plan of edges laid out by ``far`` and summed by ``near``, taking
    the edges' cells from ``far.cells``, as ``segment_blocks`` lays them
    out; the two must index the same edges (DimensionError)."""
    if far.index.shape != near.index.shape:
        raise DimensionError(f"block plan needs one far and one near node per edge: "
                             f"{far.index.shape[0]} vs {near.index.shape[0]}")
    taken = far.cells[near.row_order]
    taken.flags.writeable = False
    return BlockPlan(far, near, taken)


@dataclass(frozen=True, eq=False)
class LabelPlan:
    """Where ``label_message`` reads both channels' messages among the node
    products, and where it sums each message's gradient; build one with
    :func:`label_plan`, once for every step over the same edges.

    Row i is edge i, which carries both channels' messages to its near
    node from its far node under its label. ``pairs`` groups the edges by
    (far node, label), ``far * L + label`` over n * L segments for L
    labels, and ``near`` sums their messages. ``taken[j]`` is the pair of
    edge ``near.row_order[j]``, so one take reads the messages straight
    into ``near``'s slot order. The arrays are read-only.
    """

    pairs: Segments
    near: Segments
    taken: np.ndarray

    @functools.cached_property
    def source(self) -> np.ndarray:
        """The near node of edge ``pairs.row_order[j]``: one take reads the
        message gradients into ``pairs``' slot order. The first rule to read
        it makes it; an untaped forward never."""
        source = self.near.index[self.pairs.row_order]
        source.flags.writeable = False
        return source


def label_plan(src, dst: Segments, label, labels: int) -> LabelPlan:
    """The plan of the directed edges ``src[i]`` -> ``dst.index[i]`` of
    label ``label[i]``, each sending both channels' messages from its
    source to its destination. The pairs plan is built here, ``src *
    labels + label`` over ``n * labels`` segments, n = ``dst.num_segments``;
    it is also the check of ``src``, which needs no plan of its own, since a
    source outside ``[0, n)`` would be a pair outside the plan's.

    A source and a label must be integers, a label in ``[0, labels)``
    (ContractError), or it would index another node's pair; ``src``,
    ``label`` and ``dst`` must index the same edges (DimensionError)."""
    src = np.asarray(_integers(src, "edge source"), dtype=np.intp)
    label = np.asarray(_integers(label, "edge label"), dtype=np.intp)
    if not src.shape == label.shape == dst.index.shape:
        raise DimensionError(f"label plan needs one source, label and destination per "
                             f"edge: {src.shape}, {label.shape}, {dst.index.shape}")
    if label.size and (label.min() < 0 or label.max() >= labels):
        raise ContractError(f"edge label out of range for {labels} labels")
    pairs = segments(src * labels + label, dst.num_segments * labels)
    taken = pairs.index[dst.row_order]
    taken.flags.writeable = False
    return LabelPlan(pairs, dst, taken)


def _slot_fold(widths, ufunc, out: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Fold ``taken``, rows in a plan's slot-major order, into ``out``, one
    running row per segment in the plan's ``order``: slot j goes into the
    first ``widths[j]`` rows through ``ufunc``, in place, so each segment
    takes its rows one at a time in row order."""
    start = 0
    for width in widths:
        head = out[:width]
        ufunc(head, taken[start:start + width], out=head)
        start += width
    return out


# The slots a message sum folds one at a time; each further run of this
# many slots is summed apart, then added on (``_slot_sum``).
SUM_BLOCK = 32


def _slot_sum(seg: Segments, taken: np.ndarray) -> np.ndarray:
    """Each segment's sum of ``taken``, rows already in the plan's
    slot-major order, as the message ops sum a node's messages: blocked.
    Slots 0 to ``SUM_BLOCK`` - 1 are folded one at a time into the running
    totals, kept in ``seg.order``; each further run of ``SUM_BLOCK`` slots
    is folded into a zeroed partial of the segments it reaches, which is
    then added onto their totals. A segment of m rows thus adds about
    ``SUM_BLOCK`` + m / ``SUM_BLOCK`` terms in a row, not m, so a hub's sum
    loses less (Higham, SIAM J. Sci. Comput. 14(4), 1993), and one of at
    most ``SUM_BLOCK`` rows adds them in row order, as a scatter does. One
    take puts the totals back in segment order."""
    out = np.zeros((seg.num_segments,) + taken.shape[1:])
    start = 0
    for first in range(0, len(seg.widths), SUM_BLOCK):
        widths = seg.widths[first:first + SUM_BLOCK]
        part = np.zeros((widths[0],) + taken.shape[1:]) if first else out
        _slot_fold(widths, np.add, part, taken[start:])
        if first:
            out[:widths[0]] += part
        start += sum(widths)
    return np.take(out, seg.back, axis=0)


def _segment_sum(seg: Segments, rows: np.ndarray, total=None) -> np.ndarray:
    """A copy of ``total`` (zeros when None) plus each segment's ``rows``.

    One take lays the rows out slot-major, the running totals are kept in
    ``seg.order``, and slot 0, 1, ... is added in turn onto the segments
    that have such a row (``_slot_fold``); one take puts the totals back in
    segment order. Each segment thus adds its rows one at a time in row
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
    out = (np.zeros((seg.num_segments,) + rows.shape[1:]) if total is None
           else np.take(total, seg.order, axis=0))
    return np.take(_slot_fold(seg.widths, np.add, out, np.take(rows, seg.row_order, axis=0)),
                   seg.back, axis=0)


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
    tape = _state.tape
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
    """(m, q) rows times a (q, p) matrix, or (m, k, q) rows times a (k c,
    q, p) stack of c matrices per tower, ``out[:, t c + j] = x[:, t] @ w[t c
    + j]``, (m, k c, p). A stack runs one ``np.matmul`` over the
    tower-major view (k, m, q) of ``x``, each tower's rows read by each of
    its c matrices, into the tower-major view of a fresh row-major (m, k c,
    p) array, each product the same BLAS call a matrix makes alone; a
    matrix stays on ``x @ w``. A stack of one matrix per tower, the GRU's
    and the tower mix's, skips the broadcast view: through it a product
    cost 1.2-1.5 us more and a gradient 3 us more, and a towers-matmul
    train step 3.2% more (BENCH_33.json). These tests and the ones in
    ``_product_grads`` are the only places where the code picks a
    product."""
    if w.ndim == 2:
        return x @ w
    m, k, _ = x.shape
    c = w.shape[0] // k
    out = np.empty((m, w.shape[0], w.shape[2]))
    if c == 1:
        np.matmul(x.transpose(1, 0, 2), w, out=out.transpose(1, 0, 2))
    else:
        np.matmul(x.transpose(1, 0, 2)[:, None], w.reshape(k, c, *w.shape[1:]),
                  out=out.reshape(m, k, c, w.shape[2]).transpose(1, 2, 0, 3))
    return out


def _product_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray, x_rg: bool,
                   w_rg: bool):
    """The gradients of ``_product(x, w)``'s rows and weights for its
    gradient ``g``, each None where not needed. With c matrices per tower,
    a tower's rows get their gradient from one product with its matrices
    transposed side by side."""
    if w.ndim == 2:
        return (g @ w.T if x_rg else None, x.T @ g if w_rg else None)
    m, k, q = x.shape
    c, p = w.shape[0] // k, w.shape[2]
    if c == 1:
        gt = g.transpose(1, 0, 2)
        return ((gt @ w.transpose(0, 2, 1)).transpose(1, 0, 2) if x_rg else None,
                x.transpose(1, 2, 0) @ gt if w_rg else None)
    wt = np.swapaxes(w.reshape(k, c, q, p), 2, 3).reshape(k, c * p, q)
    return ((g.reshape(m, k, c * p).transpose(1, 0, 2) @ wt).transpose(1, 0, 2)
            if x_rg else None,
            (x.transpose(1, 2, 0)[:, None] @ g.reshape(m, k, c, p).transpose(1, 2, 0, 3)
             ).reshape(w.shape) if w_rg else None)


def matmul(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w`` (plus ``b``) as one taped op: a (q, p) matrix ``w`` maps
    (m, q) rows, with a (p,) bias; a (k c, q, p) stack maps (m, k, q) rows
    to (m, k c, p), c matrices per tower, ``out[:, t c + j] = x[:, t] @
    w[t c + j]``, with a (k c, p) bias. With c = 1 that is tower by tower;
    the engine's pair message and DTNN use c = 2, both channels' weights
    side by side in each tower, so a channel's products keep the bits it
    has alone.

    dX = g @ W^T and dW = X^T @ g, per tower for a stack, dX summing the
    tower's c products. A bias is added in place into the fresh row-major
    product, with the bits of adding it to every row afterwards, and its
    gradient sums the rows'.
    """
    xs, ws = x.data.shape, w.data.shape
    if not (len(xs) == len(ws) in (2, 3) and ws[-2] == xs[-1]
            and (len(ws) == 2 or xs[1] and ws[0] % xs[1] == 0)):
        raise DimensionError(f"matmul needs (m, q) rows and a (q, p) matrix, or (m, k, q) "
                             f"rows and a (k c, q, p) stack: {xs} x {ws}")
    out = _product(x.data, w.data)
    if b is not None:
        if b.data.shape != out.shape[1:]:
            raise DimensionError(
                f"matmul needs a bias of the output's row shape: {out.shape} + {b.data.shape}")
        out += b.data

    def rule(g: np.ndarray):
        grads = _product_grads(x.data, w.data, g, x.requires_grad, w.requires_grad)
        return grads if b is None else (*grads, g.sum(axis=0) if b.requires_grad else None)

    return _result(out, (x, w) if b is None else (x, w, b), rule, out.size * xs[-1])


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

    As in ``relu``, only the logits' least entry is checked, one reduction
    that makes no array: NaN or -inf there raises, where ``exp`` would turn
    -inf into a weight of 0. A +inf logit makes its segment's maximum +inf
    and so its weights NaN, which the result's check catches.
    """
    if x.data.ndim != 2:
        raise DimensionError("segment_softmax needs a 2-D tensor")
    if seg.index.shape != (x.data.shape[0],):
        raise DimensionError("segment index length must match rows")
    if x.data.size and not np.isfinite(x.data.min()):
        raise NumericError("non-finite logits in segment_softmax")
    idx = seg.index
    # the maxima are in the plan's segment order
    peak = np.full((seg.num_segments, x.data.shape[1]), -np.inf)
    _slot_fold(seg.widths, np.maximum, peak, np.take(x.data, seg.row_order, axis=0))
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
    # each input's gradient is a view of g: its span of the concat axis
    lead = (slice(None),) * ax
    cuts, end = [], 0
    for t in xs:
        start, end = end, end + t.data.shape[ax]
        cuts.append(lead + (slice(start, end),))

    def rule(g: np.ndarray):
        return [g[cut] if t.requires_grad else None for t, cut in zip(xs, cuts)]

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
    (``len(seg.widths)``). The rows are written to, and backward takes them
    from, their cells ``seg.cells`` among the blocks flattened, which the
    plan computes once for every op over it: backward is one take of each
    row's cell out of the blocks' gradient, however many ops read the
    blocks.

    It only moves rows and writes zeros, so the result is not scanned
    again."""
    if x.data.ndim < 1 or seg.index.shape != (x.data.shape[0],):
        raise DimensionError(f"segment_blocks plan has {seg.index.shape[0]} rows "
                             f"for {x.data.shape}")
    depth, row = len(seg.widths), x.data.shape[1:]
    out = np.zeros((seg.num_segments * depth,) + row)
    out[seg.cells] = x.data

    def rule(g: np.ndarray):
        return (np.take(g.reshape(out.shape), seg.cells, axis=0),)

    return _result(out.reshape((seg.num_segments, depth) + row), (x,), rule, check=False)


# Most bytes one group of towers of ``label_message`` makes at once: its
# node products, n x L rows of 2q per tower, and its messages, one row of
# 2q per edge and tower. A training batch's union runs every tower in
# one group. On perfbench's towers-matmul eval unions (seed 7: 128-247
# atoms, 968-1114 edges, 3 labels, k = 8, q = 16) the op's tracemalloc
# peak, against 1.45-2.06 MB for the two per-channel calls and their
# concat, was 0.99-1.40 MB at this bound (two or three towers per group),
# 0.59-0.95 MB at 0.625 MiB, which ran the smaller unions 15-20% slower,
# 1.58-1.85 MB at 1.5 MiB and 2.65-3.63 MB with every tower at once.
LABEL_GROUP_BYTES = 2**20


def label_message(h: Tensor, stack: Tensor, plan: LabelPlan) -> Tensor:
    """Both channels' messages over discrete edge labels, summed at each
    node, all towers at once, as one taped op that builds no matrix per
    edge: the matmul message, and the edge network over labels.

    ``h`` is (n, k, q) and ``stack`` each label's in- and out-channel q x q
    matrices side by side, (k, q, L * 2q) = [A_0 | B_0 | A_1 | B_1 | ...].
    Edge w -> v of label l sends ``h[w, t] @ A_l`` in tower t to v's in
    half and ``h[w, t] @ B_l`` to v's out half; the result is
    (near.num_segments, k, 2q), each tower's in half first, so it is the
    update's input as it stands. (The engine's edge lists hold each edge's
    reverse with its label, so the out half that edge w -> v delivers is
    the out-message of v -> w.)

    The forward takes the states first: U, the states times each label's
    two matrices, one product per tower and label written in place into
    U's row for its (node, label) pair, (k, 2q), which holds both
    channels' products; the op makes n * L of them, not one per edge. An
    edge reads its pair's row once: one take of ``plan.taken`` reads the
    rows straight into ``near``'s slot order, and ``_slot_sum`` adds each
    node's rows in edge order: one at a time, as a scatter does, up to
    ``SUM_BLOCK`` of them, and past that in blocks of ``SUM_BLOCK``, each
    summed apart and added on, so a hub's sum loses less. Each half thus
    sums the edges with the bits of its channel alone summed that way.
    The towers go in groups whose U and messages fit in
    ``LABEL_GROUP_BYTES``, all at once on a training batch, so that a
    large union never holds every tower's products and messages together.
    With no edge the result is zeros, and nothing is taped. The multiply
    count is the products at the ``plan.pairs.widths[0]`` pairs some edge
    reads, so a union counts what its graphs would count alone: both
    channels' own counts added.

    The rule takes the message gradients by ``plan.source`` into the pairs
    plan's slot order and sums them there into U's, blocked as the forward
    sums its messages (``_slot_sum``). The stack's gradient
    is ``(g_U^T h)^T`` and h's is g_U times a row-major copy of the stack
    transposed, both channels in one product: ``h^T g_U`` would move the
    last bits of the weights' gradients. The parents are ``(stack, h)``, in
    the order the tape of the node products, a gather and a scatter would
    deliver them.

    Only the result is checked for NaN/Inf. That is enough: h was checked
    where it was made; every entry of the stack reaches each node's U (zero
    times inf is NaN); every block of the stack is some edge's label (the
    callers stack only the labels present), and every edge copies its
    pair's row of U, both halves; and each edge is added into exactly one
    result row, where IEEE addition never turns inf or NaN finite again.
    The U that no message reads reaches neither the value nor a gradient.
    """
    if h.data.ndim != 3 or stack.data.ndim != 3 or not isinstance(plan, LabelPlan):
        raise DimensionError("label_message needs (n, k, q) states, a (k, q, L*2q) label "
                             "stack and a LabelPlan")
    n, k, q = h.data.shape
    width = 2 * q
    units = stack.data.shape[2] // width
    if stack.data.shape != (k, q, units * width) or plan.pairs.num_segments != n * units:
        raise DimensionError(f"label_message needs a ({k}, {q}, L*2*{q}) label stack for "
                             f"states {h.data.shape} and n x L (node, label) pairs: "
                             f"{stack.data.shape}, {plan.pairs.num_segments} pairs")
    pairs, near, taken = plan.pairs, plan.near, plan.taken
    if not taken.size:
        return _result(np.zeros((near.num_segments, k, width)), (), None)

    def towers_sum(towers: slice) -> np.ndarray:
        # U of these towers, one (kg, 2q) row per (node, label) pair, each
        # tower and label's product written in place through U's view,
        # and the messages taken from it; U is freed once read
        rows, mats = h.data[:, towers].transpose(1, 0, 2), stack.data[towers]
        kg = rows.shape[0]
        u = np.empty((n, units, kg, width))
        np.matmul(rows[:, None], mats.reshape(kg, q, units, width).transpose(0, 2, 1, 3),
                  out=u.transpose(2, 1, 0, 3))
        msgs = np.take(u.reshape(n * units, kg, width), taken, axis=0)
        del u
        return _slot_sum(near, msgs)

    group = max(1, LABEL_GROUP_BYTES // (8 * width * (n * units + taken.size)))
    if group >= k:
        total = towers_sum(slice(None))
    else:
        total = np.empty((near.num_segments, k, width))
        for t0 in range(0, k, group):
            total[:, t0:t0 + group] = towers_sum(slice(t0, t0 + group))
    rows = h.data.transpose(1, 0, 2)

    def rule(g: np.ndarray):
        # the message gradients taken straight into the pairs plan's slot
        # order and summed there into U's, laid out (n, k, L * 2q)
        g_u = (_slot_sum(pairs, np.take(g, plan.source, axis=0)).reshape(n, units, k, width)
               .transpose(0, 2, 1, 3).reshape(n, k, units * width))
        return ((g_u.transpose(1, 2, 0) @ rows).transpose(0, 2, 1)
                if stack.requires_grad else None,
                _product(g_u, np.ascontiguousarray(stack.data.transpose(0, 2, 1)))
                if h.requires_grad else None)

    return _result(total, (stack, h), rule, pairs.widths[0] * k * q * width)


def edge_message(h: Tensor, channels: Sequence[tuple[Tensor, Tensor, Tensor]],
                 plan: BlockPlan) -> Tensor:
    """The edge network's message over raw edge vectors, summed at each
    node, all towers and channels at once, as one taped op that builds no
    matrix per edge.

    ``h`` is (n, k, q), and each of ``channels`` is one channel's
    ``(blocks, w2, b2)``. ``blocks``, (n, D, k, u + 1), holds each edge's
    hidden row in its far node's block, as ``segment_blocks(hidden,
    plan.far)`` lays it out, D the largest count of ``plan.far``. ``w2``
    is (k, u, p*q), u row-major p x q unit matrices per tower, and ``b2``
    (k, p*q). The rows are in homogeneous coordinates, their last unit 1 (0
    in a pad cell), so edge i's message in tower t is ``A @ h[w, t]``, w
    its far node and ``A = hidden[i, t, :u] @ w2[t] + b2[t]`` the
    channel's last layer, whose bias is one more unit matrix, summed onto
    its near node, row i of ``plan.near``. The result is
    (near.num_segments, k, c p) for c channels, each tower's channels side
    by side, so with the engine's two it is the update's input as it
    stands.

    The layer is linear, so the forward takes the states first, one
    channel at a time: U, (n, k, u + 1, p), one product per tower with w2's
    matrices and one with b2's, written in place into the last unit. One
    batched matmul contracts every node's (D, u + 1) block with its U,
    through the blocks' tower-major view, into messages laid out as the
    blocks are, the last unit adding each edge's bias and a pad cell's
    zeros none: n products with u + 1 matrices, not E matrices. Its largest
    arrays are U, which a call that is not taped frees once the messages
    are made, and the (n, D, k, p) messages, read by ``plan.taken`` into
    ``near``'s slot order and summed as ``label_message`` sums its own:
    in edge order, in blocks of ``SUM_BLOCK`` past the first
    (``_slot_sum``).
    Going channel by channel keeps those arrays, and each channel's bits,
    what the channel has alone; both channels' at once are twice the size,
    and were slower (CHANGES.md). The multiply count is the edges'
    contractions over the u hidden units and the node products, not the
    padding's or the bias unit's.

    The rule holds each channel's U, its only arrays of its own; the
    blocks and the plan are the caller's, made once for every step. A take
    by ``plan.source`` fills each cell with its edge's message gradient, a
    pad cell with zeros. Their products with the blocks give U's gradient
    (its last unit the bias's), which times the states gives ``w2``'s and
    ``b2``'s, dense, and times the matrices h's, the channels' summed in
    order; it is freed before the blocks' gradient, the cells' times U, is
    made. That keeps the blocks' layout, so ``backward`` sums the steps'
    block gradients elementwise and ``segment_blocks``' rule gathers the
    rows out once. The parents are each channel's ``(w2, b2, blocks)``, in
    the order the tape of the node products, the contraction and a scatter
    would deliver them, then ``h``.

    Only the result is checked for NaN/Inf, as in ``label_message`` and for
    the same reasons. Here the blocks hold the first layer's checked
    products, clipped by relu and moved by their layout, their unit exactly
    1; every entry of w2 and b2 reaches each node's U; and every entry of a
    sending node's U is multiplied into each of its messages, the bias's
    unit by 1 (a pad cell's product may be NaN, but no message reads it).
    """
    if (h.data.ndim != 3 or not channels or not isinstance(plan, BlockPlan)
            or any(len(ch) != 3 or ch[1].data.ndim != 3 for ch in channels)):
        raise DimensionError("edge_message needs (n, k, q) states, (n, D, k, u + 1) hidden "
                             "blocks, (k, u, p*q) matrices and a (k, p*q) bias per channel, "
                             "and a BlockPlan")
    n, k, q = h.data.shape
    _, r, width = channels[0][1].data.shape
    depth = len(plan.far.widths)
    shapes = [(n, depth, k, r + 1), (k, r, width), (k, width)]
    if (width % q or plan.far.num_segments != n
            or any([x.data.shape for x in ch] != shapes for ch in channels)):
        raise DimensionError(f"edge_message needs ({n}, {depth}, {k}, r + 1) hidden blocks, "
                             f"({k}, r, p*{q}) matrices and a ({k}, p*{q}) bias per channel "
                             f"and {n} far segments for states {h.data.shape}: "
                             f"{[[x.data.shape for x in ch] for ch in channels]}, "
                             f"{plan.far.num_segments}")
    c, p, near = len(channels), width // q, plan.near
    rows = h.data.transpose(1, 0, 2)
    parents = tuple(x for blocks, w2, b2 in channels for x in (w2, b2, blocks)) + (h,)
    keep = _taped(parents)
    us = []  # each channel's U, for the rule
    total = np.empty((near.num_segments, k, c, p))
    for j, (blocks, w2, b2) in enumerate(channels):
        # U, (n, k, r + 1, p): the products with w2's matrices, and b2's in
        # the last unit, each written through U's tower-major view
        u = np.empty((n, k, r + 1, p))
        for mats, cols in ((w2.data.reshape(k, r * p, q), slice(None, r * p)),
                           (b2.data.reshape(k, p, q), slice(r * p, None))):
            np.matmul(rows, mats.transpose(0, 2, 1),
                      out=u.reshape(n, k, (r + 1) * p)[:, :, cols].transpose(1, 0, 2))
        # the messages in the blocks' layout, (n, D, k, p), written through
        # their tower-major view
        y = np.empty((n, depth, k, p))
        np.matmul(blocks.data.transpose(0, 2, 1, 3), u, out=y.transpose(0, 2, 1, 3))
        if keep:
            us.append(u)
        del u  # without a rule to read it, freed before the messages are summed
        total[:, :, j] = _slot_sum(near, np.take(y.reshape(n * depth, k, p), plan.taken,
                                                 axis=0))
        del y  # freed before the next channel's U is made

    def rule(g: np.ndarray):
        g = g.reshape(near.num_segments, k, c, p)
        grads, g_h = [], None
        for j, ((blocks, w2, b2), u) in enumerate(zip(channels, us)):
            # each cell's message gradient, a pad cell's from an appended zero row
            g_y = np.take(np.concatenate([g[:, :, j], np.zeros((1, k, p))]), plan.source,
                          axis=0).reshape(n, depth, k, p).transpose(0, 2, 1, 3)
            g_u = (blocks.data.transpose(0, 2, 3, 1) @ g_y).reshape(n, k, (r + 1) * p)
            g_w, g_c = g_u[:, :, :r * p], g_u[:, :, r * p:]
            g_w2 = ((g_w.transpose(1, 2, 0) @ rows).reshape(w2.data.shape)
                    if w2.requires_grad else None)
            g_b2 = ((g_c.transpose(1, 2, 0) @ rows).reshape(b2.data.shape)
                    if b2.requires_grad else None)
            if h.requires_grad:
                g_hj = _product(g_w, w2.data.reshape(k, r * p, q))
                g_hj += _product(g_c, b2.data.reshape(k, p, q))
                g_h = g_hj if g_h is None else g_h + g_hj
            del g_u, g_w, g_c  # freed before the blocks' gradient is made
            g_blocks = None
            if blocks.requires_grad:
                g_blocks = np.empty((n, depth, k, r + 1))
                np.matmul(g_y, u.swapaxes(-1, -2), out=g_blocks.transpose(0, 2, 1, 3))
            del g_y  # freed before the next channel's is made
            grads += [g_w2, g_b2, g_blocks]
        return (*grads, g_h)

    return _result(total.reshape(near.num_segments, k, c * p), parents, rule,
                   c * (n * k * q * (r + 1) * p + near.index.shape[0] * k * r * p))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start`` to ``stop`` of the last axis of ``x``, in a fresh
    array: the residual update takes each channel's messages out of its
    input this way."""
    if x.data.ndim < 1:
        raise DimensionError("slice_cols needs a tensor with columns")
    if not 0 <= start < stop <= x.data.shape[-1]:
        raise DimensionError(f"column slice [{start}:{stop}] invalid for {x.data.shape}")

    def rule(g: np.ndarray):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return (full,)

    return _result(x.data[..., start:stop].copy(), (x,), rule)


def leading_block(x: Tensor, shape: Sequence[int]) -> Tensor:
    """The block of ``x`` of the given shape that starts at its first
    entry, ``x.data[:shape[0], :shape[1], ...]``, in a fresh row-major
    array: the engine's first propagation step reads the first towers of a
    stacked weight or of the raw edge network's blocks this way. At ``x``'s
    own shape it is ``x`` itself, and nothing is taped. The rule pads the
    block's gradient with zeros to ``x``'s shape.

    It only moves values, so the result is not scanned again; an entry
    outside the block reaches neither the value nor a gradient."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != x.data.ndim or not all(0 <= s <= m for s, m in zip(shape, x.data.shape)):
        raise DimensionError(f"leading block {shape} invalid for {x.data.shape}")
    if shape == x.data.shape:
        return x
    block = tuple(slice(s) for s in shape)

    def rule(g: np.ndarray):
        full = np.zeros_like(x.data)
        full[block] = g
        return (full,)

    return _result(x.data[block], (x,), rule, check=False)


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
    The pre-activations come from ``matmul``'s kernel (``_product``), and
    the rule replays that composition's tape in reverse through the
    products' gradients as ``matmul``'s rule computes them
    (``_product_grads``); ``r * h`` is an array, not a Tensor. The parents
    name x three times and h four times, once per gradient contribution,
    among the weights in the order that tape delivered them, so
    ``backward`` adds each contribution into a pending total one at a
    time, as it did. That order shows when h has another consumer, such as
    the master node's per-graph sum of h.

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
        a = _product(u, wu.data)
        a += _product(v, wv.data)
        if not np.isfinite(a).all():
            raise NumericError("non-finite GRU pre-activation")
        return a

    def grads(u, u_rg, w, g):
        # the gradients of one product u w, as matmul's rule gives them
        return _product_grads(u, w.data, g, u_rg, w.requires_grad)

    s_z = pre_activation(x.data, p.wz, h.data, p.uz)
    s_r = pre_activation(x.data, p.wr, h.data, p.ur)
    z, r = _sigmoid(s_z), _sigmoid(s_r)
    del s_z, s_r  # not needed past here: freeing them lowers the call's peak
    needs = lambda *ts: any(t.requires_grad for t in ts)
    z_rg, r_rg = needs(x, h, p.wz, p.uz), needs(x, h, p.wr, p.ur)
    rh = r * h.data  # not checked: |r| <= 1, so r * h is finite
    s_h = pre_activation(x.data, p.wh, rh, p.uh)
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
        g_rh, g_uh = grads(rh, r_rg, p.uh, g_sh) if hbar_rg else none
        g_h2 = g_rh * r if h.requires_grad else None
        g_x1, g_wh = grads(x.data, x.requires_grad, p.wh, g_sh) if hbar_rg else none
        g_sr = (g_rh * h.data) * (r * (1.0 - r)) if r_rg else None
        g_h3, g_ur = grads(h.data, h.requires_grad, p.ur, g_sr) if r_rg else none
        g_x2, g_wr = grads(x.data, x.requires_grad, p.wr, g_sr) if r_rg else none
        g_sz = (g * hbar + -(g * h.data)) * (z * (1.0 - z)) if z_rg else None
        g_h4, g_uz = grads(h.data, h.requires_grad, p.uz, g_sz) if z_rg else none
        g_x3, g_wz = grads(x.data, x.requires_grad, p.wz, g_sz) if z_rg else none
        return (g_h1, g_uh, g_h2, g_x1, g_wh, g_h3, g_ur, g_x2, g_wr,
                g_h4, g_uz, g_x3, g_wz)

    parents = (h, p.uh, h, x, p.wh, h, p.ur, x, p.wr, h, p.uz, x, p.wz)
    # six products of d columns: three of x's rows, three of h's or r * h's
    return _result(out, parents, rule, 3 * (x.data.size + h.data.size) * d + 3 * out.size)


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


def _is_number(value) -> bool:
    """An int or a float; a boolean is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _of_type(*kinds: type) -> Callable[[object], bool]:
    """The check of a value whose exact type is one of ``kinds``, so a
    boolean is not an int."""
    return lambda value: type(value) in kinds


def _list_of(*kinds: type) -> Callable[[object], bool]:
    """The check of a list whose items each have one of ``kinds`` as their
    exact type. ``issuperset`` over a ``map`` builds no set of the types."""
    kinds = frozenset(kinds)
    return lambda value: type(value) is list and kinds.issuperset(map(type, value))


def _check_object(obj, checks: Mapping[str, Callable[[object], bool]], where: str,
                  schema: str | None = None) -> None:
    """Refuse ``obj`` unless it is a JSON object with exactly the fields of
    ``checks``, each value passing its field's check, and, when ``schema``
    is given, its ``schema`` field naming it. Every writer writes every
    field, so none is optional; a nullable field's check accepts None. The
    refusals are ContractErrors naming ``where`` and the field, in this
    order: not an object, an unknown field (a misspelled one would
    otherwise read as missing), a missing field, a value that fails, an
    unknown schema."""
    if type(obj) is not dict:
        raise ContractError(f"{where} is not a JSON object")
    if obj.keys() != checks.keys():
        unknown = obj.keys() - checks.keys()
        if unknown:
            raise ContractError(f"{where} has unknown field {min(unknown)!r}")
        raise ContractError(f"{where} is missing field {min(checks.keys() - obj.keys())!r}")
    for name, check in checks.items():
        if not check(obj[name]):
            raise ContractError(f"{where} field {name!r} has the wrong JSON type: "
                                f"{reprlib.repr(obj[name])}")
    if schema is not None and obj["schema"] != schema:
        raise ContractError(f"{where} field 'schema' names an unknown schema: "
                            f"{reprlib.repr(obj['schema'])}, not {schema!r}")


_ENTRY_CHECKS = {"shape": _list_of(int), "values": _list_of(int, float)}


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
    """The checkpoint ``save_params`` wrote. An entry that is not exactly
    {shape, values}, a value of the wrong JSON type, or values that do not
    fill their shape raise a ContractError naming the file and the entry."""
    obj = _read_json(path)
    if type(obj) is not dict:
        raise ContractError(f"{path}: checkpoint is not a JSON object")
    out: dict[str, Tensor] = {}
    for name, entry in obj.items():
        where = f"{path}: checkpoint entry {name!r}"
        _check_object(entry, _ENTRY_CHECKS, where)
        shape, values = entry["shape"], entry["values"]
        if min(shape, default=0) < 0 or len(values) != int(np.prod(shape)):
            raise ContractError(f"{where}: {len(values)} values do not fill "
                                f"shape {tuple(shape)}")
        out[name] = Tensor(np.array(values, dtype=np.float64).reshape(shape),
                           requires_grad=True)
    return out
