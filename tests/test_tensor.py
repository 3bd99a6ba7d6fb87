"""Autodiff core: forward values, gradients vs finite differences, contracts."""

import ast
import functools
import hashlib
import json
import math
import pathlib
import re
import threading
import weakref

import numpy as np
import pytest

from mpnnkit import tensor as T
from mpnnkit.tensor import (
    ContractError,
    DimensionError,
    GruParams,
    MultiplyCounter,
    NumericError,
    Tensor,
    backward,
    count_multiplies,
    no_grad,
)

from support import (check_grad_against_fd, finite_difference_grad, assert_grads_close,
                     node_products, per_channel_label_messages)


def t(data, rg=False):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=rg)


def homogeneous(rows: np.ndarray) -> np.ndarray:
    """Hidden rows (E, k, u) with the unit 1 appended, (E, k, u + 1), as the
    edge network's first layer makes them in homogeneous coordinates."""
    return np.concatenate([rows, np.ones(rows.shape[:-1] + (1,))], axis=-1)


def pair_rows(mats: Tensor, vecs: Tensor, pair) -> Tensor:
    """``T.edge_message`` with one node per vector row at both ends, row
    i's hidden row one-hot on ``pair[i]`` with the unit appended and a
    zero bias, so that the row-major (p x q) matrices ``mats`` (k, P, p*q)
    act as matrices shared by pairs of edges: row i of the result is
    ``mats[j, pair[i]]`` times ``vecs[i, j]`` in tower j."""
    m, k, _ = vecs.data.shape
    hidden = np.zeros((m, k, mats.data.shape[1]))
    hidden[np.arange(m), :, pair] = 1.0
    plan = T.segments(np.arange(m), m)
    return T.edge_message(vecs, [(T.segment_blocks(t(homogeneous(hidden)), plan), mats,
                                  t(np.zeros((k, mats.data.shape[2]))))], T.block_plan(plan, plan))


class TestForwardValues:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2))
        np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)

    def test_matmul_hand_arithmetic(self):
        a = t([[1.0, 2.0]])
        b = t([[3.0], [4.0]])
        assert T.matmul(a, b).data.tolist() == [[11.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))

    def test_sigmoid_zero_is_half(self):
        assert T.sigmoid(t([0.0])).data.tolist() == [0.5]

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = T.sigmoid(t([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_bits_match_the_masked_formula(self):
        # the formulas that split the input by sign with boolean masks, and
        # that chose between each sign's form per element with np.where
        def masked(xd):
            y = np.empty_like(xd)
            pos = xd >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
            ex = np.exp(xd[~pos])
            y[~pos] = ex / (1.0 + ex)
            return y

        def where(xd):
            e = np.exp(-np.abs(xd))
            return np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        rng = np.random.default_rng(5)
        edges = np.array([0.0, 1e-300, 745.2, 750.0, 800.0])
        for scale in (0.1, 1.0, 10.0, 100.0, 800.0):
            xd = np.concatenate([rng.normal(scale=scale, size=(400, 24)).ravel(),
                                 edges, -edges])
            got = T.sigmoid(t(xd)).data.view(np.uint64).tolist()
            assert got == masked(xd).view(np.uint64).tolist()
            assert got == where(xd).view(np.uint64).tolist()

    def test_relu_negative_clamps(self):
        x = t([-3.0], rg=True)
        y = T.relu(x)
        assert y.data.tolist() == [0.0]
        backward(T.reduce_sum(y))
        assert x.grad.tolist() == [0.0]

    def test_softmax_uniform(self):
        y = T.softmax(t([0.0, 0.0, 0.0]), axis=0).data
        np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_softmax_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        a = T.softmax(t(x), axis=0).data
        b = T.softmax(t(x + 1000.0), axis=0).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_reduce_sum_adds_every_element(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        assert T.reduce_sum(x).data.tolist() == 10.0

    def test_concat_axis0_and_axis1(self):
        a = t([[1.0, 2.0]])
        b = t([[3.0, 4.0]])
        assert T.concat([a, b], axis=0).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert T.concat([a, b], axis=1).data.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_concat_gradients_are_views_of_g(self, rng, axis):
        # The rule cuts g at the forward's offsets; no part is copied, and
        # an input that needs no gradient gets None.
        shapes = [[4, 3, 2], [4, 3, 2], [4, 3, 2]]
        for shape, size in zip(shapes, (1, 3, 2)):
            shape[axis] = size
        xs = [t(rng.normal(size=s), rg=rg) for s, rg in zip(shapes, (True, False, True))]
        y = T.concat(xs, axis=axis)
        (out, parents, rule), = T.active_tape()
        assert out is y and parents == tuple(xs)
        g = rng.normal(size=y.data.shape)
        parts = rule(g)
        assert parts[1] is None
        for x, part in zip(xs, parts):
            if part is not None:
                assert part.shape == x.data.shape
                assert np.shares_memory(part, g)
        want = np.split(g, np.cumsum([x.data.shape[axis] for x in xs])[:-1], axis=axis)
        for part, w in zip((parts[0], parts[2]), (want[0], want[2])):
            assert part.tobytes() == w.tobytes()
        backward(T.reduce_sum(y))

    def test_concat_rejects_ragged(self):
        with pytest.raises(DimensionError):
            T.concat([t([[1.0, 2.0]]), t([[1.0, 2.0, 3.0]])], axis=0)

    def test_elementwise_needs_matching_shapes(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        assert T.add(a, a).data.tolist() == [[2.0, 4.0], [6.0, 8.0]]
        for op in (T.add, T.sub, T.mul):
            for other in (t(1.0), t([[1.0]]), t([1.0, 2.0])):
                with pytest.raises(DimensionError):
                    op(a, other)
                with pytest.raises(DimensionError):
                    op(other, a)

    def test_gather_and_scatter_roundtrip(self):
        x = t([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = T.gather_rows(x, T.segments([2, 0, 2], 3))
        assert g.data.tolist() == [[3.0, 3.0], [1.0, 1.0], [3.0, 3.0]]
        s = T.scatter_sum_rows(g, T.segments([0, 0, 1], 2))
        assert s.data.tolist() == [[4.0, 4.0], [3.0, 3.0]]

    def test_scatter_leaves_untouched_rows_zero(self):
        s = T.scatter_sum_rows(t([[5.0]]), T.segments([2], 4))
        assert s.data.tolist() == [[0.0], [0.0], [5.0], [0.0]]

    def test_gather_and_scatter_rows_of_any_rank(self, rng):
        x = rng.normal(size=(3, 2, 4))
        g = T.gather_rows(t(x), T.segments([2, 0, 2], 3))
        np.testing.assert_array_equal(g.data, x[[2, 0, 2]])
        s = T.scatter_sum_rows(g, T.segments([0, 0, 1], 2))
        assert s.data.shape == (2, 2, 4)
        np.testing.assert_array_equal(s.data, [x[2] + x[0], x[2]])

    def test_tower_matmul_is_each_towers_matmul(self, rng):
        # bit for bit: a stack's tower t product is the 2-D matmul of its slices
        x = rng.normal(size=(7, 3, 5))
        w = rng.normal(size=(3, 5, 4))
        out = T.matmul(t(x), t(w)).data
        assert out.shape == (7, 3, 4) and out.flags.c_contiguous
        for k in range(3):
            assert out[:, k].tobytes() == T.matmul(t(x[:, k]), t(w[k])).data.tobytes()

    def test_pair_matvec_over_towers_matches_loop(self, rng):
        # three pairs of two towers, each tower a 2x3 matrix
        mats = rng.normal(size=(2, 3, 6))
        vecs = rng.normal(size=(3, 2, 3))
        pair = [0, 1, 0]
        out = pair_rows(t(mats), t(vecs), pair).data
        for i in range(3):
            for k in range(2):
                np.testing.assert_allclose(
                    out[i, k], mats[k, pair[i]].reshape(2, 3) @ vecs[i, k])

    def test_transpose_swaps_the_last_two_axes(self, rng):
        x = rng.normal(size=(4, 2, 3, 5))
        out = T.transpose(t(x), (0, 1, 3, 2)).data
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, x.swapaxes(-1, -2))

    def test_transpose_permutes_any_axes(self, rng):
        x = rng.normal(size=(4, 2, 3))
        np.testing.assert_array_equal(T.transpose(t(x), (1, 0, 2)).data, x.transpose(1, 0, 2))
        for axes in [(0, 1), (0, 1, 1), (0, 1, 3)]:
            with pytest.raises(DimensionError):
                T.transpose(t(x), axes)

    def test_slice_cols(self):
        x = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert T.slice_cols(x, 1, 3).data.tolist() == [[2.0, 3.0], [5.0, 6.0]]

    def test_repeat_rows(self):
        assert T.repeat_rows(t([1.0, 2.0]), 3).data.tolist() == [[1.0, 2.0]] * 3

    def test_batched_matvec_matches_loop(self, rng):
        mats = rng.normal(size=(4, 6))  # four 2x3 matrices
        vecs = rng.normal(size=(4, 3))
        out = T.batched_matvec(t(mats), t(vecs)).data
        for i in range(4):
            np.testing.assert_allclose(out[i], mats[i].reshape(2, 3) @ vecs[i])

    def test_pair_matvec_matches_loop(self, rng):
        # three 2x3 matrices and one tower; pair 1 has one vector, pair 2 none
        mats = rng.normal(size=(1, 3, 6))
        vecs = rng.normal(size=(3, 1, 3))
        pair = [0, 1, 0]
        out = pair_rows(t(mats), t(vecs), pair).data
        for i in range(3):
            np.testing.assert_allclose(out[i, 0], mats[0, pair[i]].reshape(2, 3) @ vecs[i, 0])

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (4,)),
        ((5, 2, 3), (2, 3, 4), (2, 4)),
    ], ids=["2d", "towers"])
    def test_affine_bits_equal_matmul_then_add_bias(self, rng, x_shape, w_shape, b_shape):
        # a biased product has the bits of the plain product plus a
        # broadcast bias, forward and backward; the bias's gradient is the
        # sum of the rows' gradients
        x, w, b = (t(rng.normal(size=s), rg=True) for s in (x_shape, w_shape, b_shape))
        g = t(rng.normal(size=x_shape[:-1] + w_shape[-1:]))
        got = T.matmul(x, w, b)
        backward(T.reduce_sum(T.mul(got, g)))
        got_grads = [p.grad.copy() for p in (x, w, b)]
        for p in (x, w, b):
            p.zero_grad()
        prod = T.matmul(x, w)
        backward(T.reduce_sum(T.mul(prod, g)))
        assert got.data.flags.c_contiguous
        assert got.data.tobytes() == (prod.data + b.data).tobytes()
        if len(w_shape) == 3:
            # and so each tower's rows are its own 2-D product plus its bias
            for k in range(w_shape[0]):
                tower = T.matmul(t(x.data[:, k]), t(w.data[k])).data + b.data[k]
                assert got.data[:, k].tobytes() == tower.tobytes()
        for grad, want in zip(got_grads, (x.grad, w.grad, g.data.sum(axis=0))):
            assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (4,)),
        ((5, 2, 3), (2, 3, 4), (2, 4)),
    ], ids=["2d", "towers"])
    def test_affine_is_one_tape_entry(self, x_shape, w_shape, b_shape):
        x, w, b = (t(np.ones(s), rg=True) for s in (x_shape, w_shape, b_shape))
        out = T.matmul(x, w, b)
        assert [(o, parents) for o, parents, _ in T.active_tape()] == [(out, (x, w, b))]

    def test_nan_raises_numeric_error(self):
        big = t([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.matmul(big, t([[1e308]]))

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            t([1.0, 2.0]).item()


WEIGHTS = pytest.mark.parametrize("w_shape", [(3, 4), (2, 3, 4)], ids=["matrix", "stack"])
BIAS = pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])


def matmul_operands(rng, w_shape, bias, scale=1.0):
    """Leaf rows, weights and (when ``bias``) a bias for ``T.matmul`` with
    weights of ``w_shape``: five rows, a (p,) bias for a matrix and a (k,
    p) one for a stack."""
    shapes = [(5,) + w_shape[:-1], w_shape] + ([w_shape[:-2] + w_shape[-1:]] if bias else [])
    return [t(rng.normal(size=s) * scale, rg=True) for s in shapes]


class TestMatmul:
    """``T.matmul(x, w, b=None)``, the one weight product, over a matrix
    and a tower stack, with and without a bias."""

    @BIAS
    @WEIGHTS
    def test_bits_tape_and_count(self, rng, w_shape, bias):
        # plain numpy's bits, per tower for a stack, then the bias added to
        # every row; one tape entry and m * q * p multiplies per tower
        x, w, *b = matmul_operands(rng, w_shape, bias)
        g = rng.normal(size=x.shape[:-1] + w_shape[-1:])
        with count_multiplies(MultiplyCounter()) as c:
            out = T.matmul(x, w, *b)
        assert [(o, parents) for o, parents, _ in T.active_tape()] == [(out, (x, w, *b))]
        assert c.total == x.size * w_shape[-1]
        xd, wd = x.data, w.data
        if len(w_shape) == 2:
            want, want_gx, want_gw = xd @ wd, g @ wd.T, xd.T @ g
        else:
            towers = range(w_shape[0])
            want = np.stack([xd[:, k] @ wd[k] for k in towers], axis=1)
            want_gx = np.stack([g[:, k] @ wd[k].T for k in towers], axis=1)
            want_gw = np.stack([xd[:, k].T @ g[:, k] for k in towers])
        if bias:
            want = want + b[0].data
        assert out.data.flags.c_contiguous
        assert out.data.tobytes() == want.tobytes()
        backward(T.reduce_sum(T.mul(out, t(g))))
        assert x.grad.tobytes() == want_gx.tobytes()
        assert w.grad.tobytes() == want_gw.tobytes()
        if bias:
            assert b[0].grad.tobytes() == g.sum(axis=0).tobytes()

    @BIAS
    @WEIGHTS
    def test_gradients_against_finite_differences(self, rng, w_shape, bias):
        # small enough that tanh stays off its flat tails, where the
        # central difference of a small entry misses the relative tolerance
        params = dict(zip("xwb", matmul_operands(rng, w_shape, bias, scale=0.5)))
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.matmul(p["x"], p["w"], p.get("b")))),
            params, label="matmul")

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 6), (2, 3, 4), None),
        ((5, 2, 3), (3, 4), None),
        ((3,), (3,), None),
        ((5, 2, 2, 3), (2, 2, 3, 4), None),
        ((5, 3, 3), (2, 3, 4), None),
        ((5, 2, 3), (2, 4, 4), None),
        ((5, 3), (4, 4), None),
        ((5, 3), (3, 4), (3,)),
        ((5, 3), (3, 4), (1, 4)),
        ((5, 2, 3), (2, 3, 4), (4,)),
    ], ids=["matrix_rows_stack", "stack_rows_matrix", "rank_1", "rank_4", "towers",
            "inner_stack", "inner_matrix", "bias_of_input_width", "bias_with_row_axis",
            "one_bias_for_every_tower"])
    def test_shape_mismatch(self, x_shape, w_shape, b_shape):
        operands = [t(np.ones(s)) for s in (x_shape, w_shape, b_shape) if s is not None]
        with pytest.raises(DimensionError):
            T.matmul(*operands)

    @pytest.mark.parametrize("m", [1, 5, 64, 300])
    def test_matrix_bits_equal_plain_numpy(self, rng, m):
        # a matrix stays on x @ w, g @ w.T and x.T @ g, whatever the sizes
        for q in (1, 25, 200):
            for p in (1, 13, 25, 200):
                x, w = t(rng.normal(size=(m, q)), rg=True), t(rng.normal(size=(q, p)), rg=True)
                g = rng.normal(size=(m, p))
                out = T.matmul(x, w)
                backward(T.reduce_sum(T.mul(out, t(g))))
                assert out.data.tobytes() == (x.data @ w.data).tobytes()
                assert x.grad.tobytes() == (g @ w.data.T).tobytes()
                assert w.grad.tobytes() == (x.data.T @ g).tobytes()


class TestBackward:
    def test_sum_of_squares_gradient(self):
        w = t([1.0, 2.0], rg=True)
        loss = T.reduce_sum(T.mul(w, w))
        backward(loss)
        assert w.grad.tolist() == [2.0, 4.0]

    def test_unused_parameter_gets_zero_grad(self):
        w = t([1.0, 2.0], rg=True)
        unused = t([[7.0]], rg=True)
        backward(T.reduce_sum(T.mul(w, w)))
        assert unused.grad.tolist() == [[0.0]]

    def test_backward_requires_scalar(self):
        w = t([1.0, 2.0], rg=True)
        y = T.mul(w, w)
        with pytest.raises(ContractError):
            backward(y)

    def test_reused_tensor_accumulates(self):
        # y = w * w + w, dy/dw = 2w + 1
        w = t([3.0], rg=True)
        backward(T.reduce_sum(T.add(T.mul(w, w), w)))
        assert w.grad.tolist() == [7.0]

    def test_no_grad_blocks_taping(self):
        w = t([1.0], rg=True)
        with no_grad():
            y = T.mul(w, w)
        assert not y.requires_grad
        assert len(T.active_tape()) == 0

    def test_backward_clears_tape(self):
        w = t([1.0], rg=True)
        backward(T.reduce_sum(T.mul(w, w)))
        assert len(T.active_tape()) == 0

    def test_backward_frees_each_entry_before_the_earlier_rules_run(self):
        # a rule runs with its own entry and every later one off the tape,
        # so their outputs are garbage by the time earlier rules run
        w = t([1.0, 2.0], rg=True)
        seen = []

        def rule(g):
            seen.append((len(T.active_tape()), later() is None))
            return (g,)

        first = T._result(w.data * 1.0, (w,), rule)
        product = T.mul(first, first)
        later = weakref.ref(product.data)
        loss = T.reduce_sum(product)
        del product
        backward(loss)
        assert seen == [(0, True)]
        assert w.grad.tolist() == [2.0, 4.0]

    def test_only_leaves_hold_gradients(self, rng):
        w = t(rng.normal(size=(3, 2)), rg=True)
        v = t(rng.normal(size=(2, 2)), rg=True)
        const = t(rng.normal(size=(3, 2)))
        h = T.tanh(T.matmul(w, v))
        loss = T.reduce_sum(T.mul(T.sub(h, const), T.gather_rows(h, T.segments([2, 0, 2], 3))))
        taped = [out for out, _, _ in T.active_tape()]
        assert len(taped) == 6 and all(out.grad is None for out in taped)
        backward(loss)
        assert len(T.active_tape()) == 0
        assert all(out.grad is None for out in taped)
        assert const.grad is None
        hd = np.tanh(w.data @ v.data)
        g_h = hd[[2, 0, 2]].copy()
        np.add.at(g_h, [2, 0, 2], hd - const.data)
        g_pre = g_h * (1.0 - hd * hd)
        np.testing.assert_allclose(w.grad, g_pre @ v.data.T, rtol=1e-13)
        np.testing.assert_allclose(v.grad, w.data.T @ g_pre, rtol=1e-13)

    def test_shared_pass_through_is_never_written_into(self, rng):
        # add, sub and concat hand one array (or views of it) to both
        # parents; summing the second contribution must not write into it.
        w = t(rng.normal(size=(2, 3)), rg=True)
        u = t(rng.normal(size=(2, 3)), rg=True)
        p, q = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        cases = [
            (lambda x: T.add(x, x), p, 2.0 * p),
            (lambda x: T.sub(x, x), p, np.zeros((2, 3))),
            (lambda x: T.concat([x, x], axis=1), np.concatenate([p, q], axis=1), p + q),
        ]
        for build, weights, want in cases:
            w.zero_grad()
            backward(T.reduce_sum(T.mul(build(T.reshape(w, (2, 3))), t(weights))))
            np.testing.assert_array_equal(w.grad, want)
        # two intermediates share add's gradient, and one of them is read again
        w.zero_grad()
        a, b = T.reshape(w, (2, 3)), T.reshape(u, (2, 3))
        backward(T.add(T.reduce_sum(T.mul(T.add(a, b), t(p))),
                       T.reduce_sum(T.mul(a, t(q)))))
        np.testing.assert_array_equal(u.grad, p)
        np.testing.assert_array_equal(w.grad, q + p)

    def test_gathered_rows_accumulate_in_tape_order(self, rng):
        # Rows of gather_rows are added one at a time onto the running total,
        # so the result matches np.add.at over the consumers in reverse tape
        # order, bit for bit.
        # Thirty rows per gather over five targets: summing them in another
        # order changes low bits of the result for this seed.
        w = t(rng.normal(size=(5, 4)), rg=True)
        m = t(rng.normal(size=(4, 3)))
        p0 = rng.normal(size=(5, 3))
        i1, p1 = rng.integers(0, 5, size=30), rng.normal(size=(30, 4))
        i2, p2 = rng.integers(0, 5, size=30), rng.normal(size=(30, 4))
        x = T.reshape(w, (5, 4))
        s0 = T.reduce_sum(T.mul(T.matmul(x, m), t(p0)))
        s1 = T.reduce_sum(T.mul(T.gather_rows(x, T.segments(i1, 5)), t(p1)))
        s2 = T.reduce_sum(T.mul(T.gather_rows(x, T.segments(i2, 5)), t(p2)))
        backward(T.add(T.add(s0, s1), s2))
        want = np.zeros((5, 4))
        np.add.at(want, i2, p2)
        np.add.at(want, i1, p1)
        want = want + p0 @ m.data.T
        assert w.grad.tobytes() == want.tobytes()


# Three edge_message calls on one (2 towers, 3 pairs, 2x3) matrix stack,
# as the T steps of an edge network use one channel's weights; pair 2 has
# one row in the first call, and the last call has no rows.
SHARED_CALLS = [[0, 1, 2, 0], [2, 1, 0, 2, 1], []]


def _shared_mats_loss(mats, vecs, dense_at, per_call, dense):
    """One scalar from three ``pair_rows`` calls on ``mats`` (each output
    through ``per_call``) and, unless ``dense_at`` is None, one other
    consumer of ``mats`` (``dense``) taped "first" or "last". Backward meets
    its gradient after the calls' if it is taped first, and before them if
    it is taped last."""
    terms = [T.reduce_sum(dense(mats))] if dense_at == "first" else []
    terms += [T.reduce_sum(per_call(j, pair_rows(mats, v, pair)))
              for j, (pair, v) in enumerate(zip(SHARED_CALLS, vecs))]
    if dense_at == "last":
        terms.append(T.reduce_sum(dense(mats)))
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


class TestFactoredMatrixGradient:
    """The gradient of weights that several edge_message calls share, each
    call a step of the edge network, is the sum of every call's products
    with its rows, whichever order backward meets them in."""

    @pytest.mark.parametrize("dense_at", [None, "first", "last"],
                             ids=["no_dense", "dense_first", "dense_last"])
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_equals_sum_of_per_call_products(self, rng, leaf, dense_at):
        shape = (2, 3, 6)
        m = t(rng.normal(size=shape), rg=True)
        vecs = [t(rng.normal(size=(len(pair), 2, 3))) for pair in SHARED_CALLS]
        probes = [rng.normal(size=(len(pair), 2, 2)) for pair in SHARED_CALLS]
        dense_probe = rng.normal(size=shape)
        mats = m if leaf else T.reshape(m, shape)
        backward(_shared_mats_loss(mats, vecs, dense_at,
                                   lambda j, y: T.mul(y, t(probes[j])),
                                   lambda x: T.mul(x, t(dense_probe))))
        want = np.zeros(shape) if dense_at is None else dense_probe.copy()
        for pair, v, probe in zip(SHARED_CALLS, vecs, probes):
            for i, a in enumerate(pair):
                for k in range(2):
                    want[k, a] += np.outer(probe[i, k], v.data[i, k]).ravel()
        assert np.abs(m.grad - want).max() <= 1e-15 * np.abs(want).max()
        assert len(T.active_tape()) == 0

    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_no_pairs(self, leaf):
        m = t(np.zeros((2, 3, 6)), rg=True)
        v = t(np.zeros((0, 2, 3)), rg=True)
        mats = m if leaf else T.reshape(m, (2, 3, 6))
        loss = T.reduce_sum(pair_rows(mats, v, []))
        for _ in range(2):
            loss = T.add(loss, T.reduce_sum(pair_rows(mats, v, [])))
        backward(T.add(loss, T.reduce_sum(T.tanh(mats))))
        assert m.grad.shape == (2, 3, 6) and v.grad.shape == (0, 2, 3)
        np.testing.assert_array_equal(m.grad, np.ones((2, 3, 6)))


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op is checked end to end against central FD."""

    def test_matmul(self, rng):
        params = {
            "a": t(rng.normal(size=(3, 4)), rg=True),
            "b": t(rng.normal(size=(4, 2)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.matmul(p["a"], p["b"]),
                                         T.matmul(p["a"], p["b"]))),
            params, label="matmul")

    def test_batched_matvec(self, rng):
        params = {
            "m": t(rng.normal(size=(5, 12)), rg=True),
            "v": t(rng.normal(size=(5, 4)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.batched_matvec(p["m"], p["v"]))),
            params, label="batched_matvec")

    @pytest.mark.parametrize("pair", [
        [0, 1, 2, 0, 1, 2],  # two rows on every matrix
        [2, 0, 1, 0],        # matrices 1 and 2 on one row each
    ], ids=["full_pairs", "one_way"])
    def test_pair_matvec(self, rng, pair):
        params = {
            "m": t(rng.normal(size=(1, 3, 12)), rg=True),
            "v": t(rng.normal(size=(len(pair), 1, 4)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(pair_rows(p["m"], p["v"], pair))),
            params, label="pair_matvec")

    def test_pair_matvec_over_towers(self, rng):
        pair = [2, 0, 1, 0]
        params = {
            # scaled like the GRU weights: at unit scale the central
            # difference of one small entry misses the relative tolerance
            "m": t(rng.normal(size=(2, 3, 12)) * 0.5, rg=True),
            "v": t(rng.normal(size=(len(pair), 2, 4)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(pair_rows(p["m"], p["v"], pair))),
            params, label="pair_matvec_towers")

    def test_transpose(self, rng):
        params = {"x": t(rng.normal(size=(2, 3, 4)), rg=True)}
        probe = t(rng.normal(size=(3, 4, 2)))
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.tanh(T.transpose(p["x"], (1, 2, 0))), probe)),
            params, label="transpose")

    @pytest.mark.parametrize("dense_at", [None, "first", "last"],
                             ids=["no_dense", "dense_first", "dense_last"])
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_pair_matvec_shared_matrices(self, rng, leaf, dense_at):
        # the gradient of one matrix stack under three calls and one other
        # consumer
        params = {"m": t(rng.normal(size=(2, 3, 6)) * 0.5, rg=True)}
        params.update({f"v{j}": t(rng.normal(size=(len(pair), 2, 3)), rg=True)
                       for j, pair in enumerate(SHARED_CALLS)})
        check_grad_against_fd(
            lambda p: _shared_mats_loss(
                p["m"] if leaf else T.reshape(p["m"], (2, 3, 6)),
                [p[f"v{j}"] for j in range(len(SHARED_CALLS))], dense_at,
                lambda j, y: T.tanh(y), lambda x: T.mul(x, x)),
            params, label="pair_matvec_shared")

    def test_add_sub_mul_scalar_and_matched(self, rng):
        params = {
            "x": t(rng.normal(size=(3, 3)), rg=True),
            "y": t(rng.normal(size=(3, 3)), rg=True),
            "c": t(np.full((3, 3), 0.7), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(
                T.mul(T.sub(T.add(p["x"], p["c"]), p["y"]),
                      T.mul(p["x"], p["y"]))),
            params, label="arith")

    def test_pointwise_chain(self, rng):
        params = {"x": t(rng.normal(size=(4, 3)), rg=True)}
        check_grad_against_fd(
            lambda p: T.reduce_sum(
                T.relu(T.add(T.sigmoid(p["x"]), T.tanh(p["x"])))),
            params, label="pointwise")

    def test_softmax(self, rng):
        params = {"x": t(rng.normal(size=(5, 1)), rg=True)}
        w = t(rng.normal(size=(5, 1)))
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.softmax(p["x"], axis=0), w)),
            params, label="softmax")

    def test_concat_reshape_slice(self, rng):
        params = {
            "a": t(rng.normal(size=(2, 3)), rg=True),
            "b": t(rng.normal(size=(2, 2)), rg=True),
        }

        def loss(p):
            c = T.concat([p["a"], p["b"]], axis=1)
            r = T.reshape(c, (5, 2))
            s = T.slice_cols(r, 0, 1)
            return T.reduce_sum(T.mul(s, s))

        check_grad_against_fd(loss, params, label="concat_reshape_slice")

    def test_gather_scatter_repeat(self, rng):
        params = {"x": t(rng.normal(size=(4, 3)), rg=True),
                  "row": t(rng.normal(size=(3,)), rg=True)}

        def loss(p):
            g = T.gather_rows(p["x"], T.segments([1, 1, 3, 0], 4))
            r = T.repeat_rows(p["row"], 4)
            s = T.scatter_sum_rows(T.mul(g, r), T.segments([0, 1, 1, 2], 3))
            return T.reduce_sum(T.mul(s, s))

        check_grad_against_fd(loss, params, label="gather_scatter_repeat")

    def test_gru_cell(self, rng):
        d_in, d = 3, 4
        params = {
            "wz": t(rng.normal(size=(d_in, d)) * 0.3, rg=True),
            "uz": t(rng.normal(size=(d, d)) * 0.3, rg=True),
            "wr": t(rng.normal(size=(d_in, d)) * 0.3, rg=True),
            "ur": t(rng.normal(size=(d, d)) * 0.3, rg=True),
            "wh": t(rng.normal(size=(d_in, d)) * 0.3, rg=True),
            "uh": t(rng.normal(size=(d, d)) * 0.3, rg=True),
            "x": t(rng.normal(size=(2, d_in)), rg=True),
            "h": t(rng.normal(size=(2, d)), rg=True),
        }

        def loss(p):
            gp = GruParams(wz=p["wz"], uz=p["uz"], wr=p["wr"],
                           ur=p["ur"], wh=p["wh"], uh=p["uh"])
            out = T.gru_cell(p["x"], p["h"], gp)
            return T.reduce_sum(T.mul(out, out))

        check_grad_against_fd(loss, params, label="gru")

    def test_gru_cell_over_towers(self, rng):
        k, d_in, d = 3, 4, 2
        w = lambda *shape: t(rng.normal(size=shape) * 0.3, rg=True)
        params = {"wz": w(k, d_in, d), "uz": w(k, d, d), "wr": w(k, d_in, d),
                  "ur": w(k, d, d), "wh": w(k, d_in, d), "uh": w(k, d, d),
                  "x": t(rng.normal(size=(2, k, d_in)), rg=True),
                  "h": t(rng.normal(size=(2, k, d)), rg=True)}

        def loss(p):
            gp = GruParams(wz=p["wz"], uz=p["uz"], wr=p["wr"],
                           ur=p["ur"], wh=p["wh"], uh=p["uh"])
            out = T.gru_cell(p["x"], p["h"], gp)
            return T.reduce_sum(T.mul(out, out))

        check_grad_against_fd(loss, params, label="gru_towers")


def composed_gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """The GRU cell composed from taped primitives, 17 tape entries: the
    bitwise oracle of the one-op ``T.gru_cell``, forward and backward."""
    z = T.sigmoid(T.add(T.matmul(x, params.wz), T.matmul(h, params.uz)))
    r = T.sigmoid(T.add(T.matmul(x, params.wr), T.matmul(h, params.ur)))
    hbar = T.tanh(T.add(T.matmul(x, params.wh), T.matmul(T.mul(r, h), params.uh)))
    return T.add(T.mul(T.sub(Tensor(np.ones_like(z.data)), z), h), T.mul(z, hbar))


GRU_LEADS = pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "towers"])


class TestGruCell:
    def make_params(self, d_in, d, fill=0.0):
        mk = lambda shape: t(np.full(shape, fill), rg=True)
        return GruParams(wz=mk((d_in, d)), uz=mk((d, d)), wr=mk((d_in, d)),
                         ur=mk((d, d)), wh=mk((d_in, d)), uh=mk((d, d)))

    def test_zero_weights_halve_the_state(self):
        # All-zero weights: z = 0.5, hbar = 0, so h' = 0.5 * h.
        p = self.make_params(2, 3)
        h = t([[1.0, -2.0, 4.0]])
        out = T.gru_cell(t([[5.0, 5.0]]), h, p)
        np.testing.assert_allclose(out.data, [[0.5, -1.0, 2.0]], atol=1e-15)

    def test_vector_state_rejected(self):
        # States are row stacks; a single state is a one-row matrix.
        p = self.make_params(2, 3)
        with pytest.raises(DimensionError):
            T.gru_cell(t([1.0, 1.0]), t([1.0, 1.0, 1.0]), p)
        with pytest.raises(DimensionError):
            T.gru_cell(t([[1.0, 1.0]]), t([1.0, 1.0, 1.0]), p)

    def test_saturated_update_gate_copies_candidate(self):
        # Huge Wz drives z to 1, so h' = tanh(x Wh) regardless of h.
        d_in, d = 2, 2
        p = self.make_params(d_in, d)
        p.wz.data[...] = 1e4
        p.wh.data[...] = np.eye(2) * 0.5
        out = T.gru_cell(t([[1.0, 1.0]]), t([[9.0, -9.0]]), p)
        np.testing.assert_allclose(out.data, np.tanh([[0.5, 0.5]]), atol=1e-12)

    def test_shape_validation(self):
        p = self.make_params(2, 3)
        with pytest.raises(DimensionError):
            T.gru_cell(t([[1.0, 2.0, 3.0]]), t([[1.0, 1.0, 1.0]]), p)
        with pytest.raises(DimensionError):
            T.gru_cell(t([[1.0, 2.0]] * 2), t([[1.0, 1.0, 1.0]]), p)

    def test_towers_are_independent_cells(self, rng):
        # a stack of k weights over (n, k, .) states is k cells, bit for bit
        k, d_in, d = 3, 4, 2
        stack = GruParams(*(t(rng.normal(size=(k, d_in if i % 2 == 0 else d, d)))
                            for i in range(6)))
        x, h = rng.normal(size=(5, k, d_in)), rng.normal(size=(5, k, d))
        out = T.gru_cell(t(x), t(h), stack).data
        for j in range(k):
            one = GruParams(*(t(w.data[j]) for w in stack.tensors().values()))
            assert out[:, j].tobytes() == T.gru_cell(t(x[:, j]), t(h[:, j]), one).data.tobytes()
        with pytest.raises(DimensionError):
            T.gru_cell(t(x[:, :2]), t(h[:, :2]), stack)

    @GRU_LEADS
    @pytest.mark.parametrize("case", [
        "leaves", "intermediates", "h_constant", "x_constant", "h_read_later"])
    def test_bits_equal_composed_cell(self, rng, lead, case):
        # x and h are leaves, or reshapes of leaves, so their gradients
        # collect in backward's pending totals; in "h_read_later" h is also
        # read after the cell, so its total holds that contribution before
        # the cell's four arrive, which must be added one at a time
        n, d_in, d = 6, 5, 4
        xd, hd = rng.normal(size=(n, *lead, d_in)), rng.normal(size=(n, *lead, d))
        wd = [rng.normal(size=(*lead, d_in if i % 2 == 0 else d, d)) * 0.5
              for i in range(6)]
        probe, later = rng.normal(size=hd.shape), rng.normal(size=hd.shape)

        def run(cell):
            x_leaf = t(xd, rg=case != "x_constant")
            h_leaf = t(hd, rg=case != "h_constant")
            gp = GruParams(*(t(w, rg=True) for w in wd))
            x, h = ((x_leaf, h_leaf) if case == "leaves"
                    else (T.reshape(x_leaf, xd.shape), T.reshape(h_leaf, hd.shape)))
            out = cell(x, h, gp)
            loss = T.reduce_sum(T.mul(out, t(probe)))
            if case == "h_read_later":
                loss = T.add(loss, T.reduce_sum(T.mul(T.tanh(h), t(later))))
            backward(loss)
            return [out.data] + [p.grad for p in (x_leaf, h_leaf, *gp.tensors().values())]

        got, want = run(T.gru_cell), run(composed_gru_cell)
        for name, a, b in zip(["out", "x", "h", "wz", "uz", "wr", "ur", "wh", "uh"],
                              got, want):
            if b is None:
                assert a is None, name
            else:
                assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist(), name

    @GRU_LEADS
    def test_one_tape_entry_counting_the_composed_multiplies(self, rng, lead):
        n, d_in, d = 4, 3, 2
        x, h = t(rng.normal(size=(n, *lead, d_in))), t(rng.normal(size=(n, *lead, d)))
        gp = GruParams(*(t(rng.normal(size=(*lead, d_in if i % 2 == 0 else d, d)), rg=True)
                         for i in range(6)))
        with count_multiplies(MultiplyCounter()) as fused:
            out = T.gru_cell(x, h, gp)
        assert [entry[0] for entry in T.active_tape()] == [out]
        with count_multiplies(MultiplyCounter()) as composed:
            composed_gru_cell(x, h, gp)
        assert len(T.active_tape()) == 1 + 17
        towers = lead[0] if lead else 1
        products = 3 * n * towers * (d_in * d + d * d)
        assert fused.total == composed.total == products + 3 * out.size

    @pytest.mark.parametrize("weight", ["wz", "uz", "wr", "ur", "wh", "uh"])
    def test_overflowing_pre_activation_raises(self, weight):
        # one huge weight drives one pre-activation to +inf; its sigmoid or
        # tanh would be a finite 1, and so would every later value
        p = self.make_params(2, 2, fill=0.1)
        getattr(p, weight).data[...] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.gru_cell(t([[2.0, 2.0]]), t([[2.0, 2.0]]), p)


def composed_matmul_message(h: Tensor, weights, far, near) -> Tensor:
    """One channel's matmul message composed per edge from taped
    primitives, a gather, a ``matmul`` and a scatter per label joined by
    ``add``: each edge's far state times its label's (k, q, p) weight, the
    labels' parts added in order. It is the reference of each half of
    ``T.label_message`` where the two need not agree bit for bit."""
    total = None if weights else Tensor(np.zeros(h.data.shape))
    for a, far_label, near_label in zip(weights, far, near):
        part = T.scatter_sum_rows(T.matmul(T.gather_rows(h, far_label), a), near_label)
        total = part if total is None else T.add(total, part)
    return total


def label_stack(weights_in, weights_out):
    """Each label's in- and out-channel (k, q, p) weights, which multiply
    states as ``h @ A``, side by side as ``T.label_message`` takes them,
    (k, q, labels * 2p), from the one taped concat ``engine._sender``
    stacks them with."""
    return T.concat([w for pair in zip(weights_in, weights_out) for w in pair], axis=2)


def node_form_message(h: Tensor, stack: Tensor, plan) -> Tensor:
    """Both channels' labelled messages composed in node form from taped
    primitives: every node's products with the label stack, U, taped with
    the one op's numpy calls and laid out one (node, label) row each
    (``support.node_products``); a gather of each edge's pair; and a
    scatter onto its near nodes. It is the bitwise oracle of
    ``T.label_message``, forward and backward, and counts U's products as
    it does, at the pairs some edge reads."""
    n, k, q = h.data.shape
    if not plan.pairs.index.size:
        return Tensor(np.zeros((plan.near.num_segments, k, 2 * q)))
    rows = T.gather_rows(node_products(h, stack, 2 * q, plan.pairs.widths[0] * k * q * 2 * q),
                         plan.pairs)
    return T.scatter_sum_rows(rows, plan.near)


MESSAGE_CASES = ["leaf", "intermediate", "h_read_later", "one_label", "missing_label",
                 "no_edges", "paired", "unpaired"]


def message_case(rng, case, n, n_edges, k, q, alphabet=3):
    """(h, weights, edges) for the label-message oracles: random edges
    over n nodes with a hub (node 0 receives a third of them), labels drawn
    from the alphabet, and one (k, q, q) weight per label of the alphabet
    and channel, ``weights`` the in channel's list and the out channel's.
    ``edges`` is (src, dst, labels). The op sends both channels of each
    edge from its source to its destination, whatever the edge list;
    "paired" lays the edges out as ``molgraph.EncodedGraph`` holds them,
    pairs then their reverses with the same labels, and "unpaired" lays
    out a list it refuses: half the edges paired, the first reverse moved
    to the end, a one-way edge, a duplicate and a reverse with another
    label."""
    n_edges = 0 if case == "no_edges" else n_edges
    src, dst = rng.integers(0, n, size=(2, n_edges))
    dst[: n_edges // 3] = 0
    labels = {"one_label": np.ones(n_edges, dtype=int),
              "missing_label": rng.choice([0, 2], size=n_edges)
              }.get(case, rng.integers(0, alphabet, size=n_edges))
    if case in ("paired", "unpaired"):
        half = n_edges // 2
        src, dst, labels = (np.concatenate([a[:half], b[:half]])
                            for a, b in ((src, dst), (dst, src), (labels, labels)))
    if case == "unpaired":
        # 1 -> 2 one way, 3 -> 4 twice with one reverse, 5 -> 6 back with
        # another label, and the first reverse moved to the end
        src, dst, labels = (np.concatenate([a[:half], a[half + 1:], a[half:half + 1], extra])
                            for a, extra in ((src, [1, 3, 3, 4, 5, 6]),
                                             (dst, [2, 4, 4, 3, 6, 5]),
                                             (labels, [0, 1, 1, 1, 2, 0])))
    h = rng.normal(size=(n, k, q))
    weights = [[rng.normal(size=(k, q, q)) / np.sqrt(q) for _ in range(alphabet)]
               for _ in range(2)]
    return h, weights, (src, dst, labels)


def label_plans(edges, n):
    """The labels present and the plans ``engine._sender`` builds: the
    edges' sources and destinations over the nodes, and the label plan of
    the edges, each edge's label its place among the labels present."""
    src, dst, labels = edges
    present, label = np.unique(labels, return_inverse=True)
    far, near = T.segments(src, n), T.segments(dst, n)
    return present, far, near, T.label_plan(src, near, label, present.size)


def run_message(send, case, h_data, w_data, edges, probe, later):
    """Forward and backward through the one op (``"fused"``), its node-form
    oracle (``"node_form"``), the two channels composed each on its own
    (``"per_channel"``) or per edge (``"per_edge"``); returns the value and
    the gradients of h and of every weight of the alphabet, the in
    channel's first."""
    h_leaf = t(h_data, rg=True)
    ws = [[t(w, rg=True) for w in channel] for channel in w_data]
    h = h_leaf if case == "leaf" else T.reshape(h_leaf, h_data.shape)
    present, far, near, plan = label_plans(edges, h_data.shape[0])
    used = [[channel[label] for label in present] for channel in ws]
    k, q = h_data.shape[1:]
    src, dst, labels = edges
    if send == "per_edge":
        n = h_data.shape[0]
        halves = [composed_matmul_message(
            h, channel, [T.segments(src[labels == label], n) for label in present],
            [T.segments(dst[labels == label], n) for label in present])
            for channel in used]
        out = T.concat(halves, axis=2)
    elif send == "per_channel":
        stacks = [T.concat(c, axis=2) if c else t(np.zeros((k, q, 0))) for c in used]
        out = per_channel_label_messages(h, stacks, src, dst,
                                         np.unique(labels, return_inverse=True)[1])
    else:
        stack = label_stack(*used) if present.size else t(np.zeros((k, q, 0)))
        if send == "fused":
            out = T.label_message(h, stack, plan)
        else:
            out = node_form_message(h, stack, plan)
    loss = T.reduce_sum(T.mul(out, t(probe)))
    if case in ("h_read_later", "no_edges"):
        # h's pending total holds this contribution before the message's
        # arrive
        loss = T.add(loss, T.reduce_sum(T.mul(T.tanh(h), t(later))))
    backward(loss)
    return [out.data, h_leaf.grad] + [w.grad for channel in ws for w in channel]


def sum_of_products(a: np.ndarray, b: np.ndarray, axes: int = 1) -> np.ndarray:
    """``a * b`` summed over its first ``axes`` axes, correctly rounded: each
    factor is split into two halves of at most 26 significant bits
    (Veltkamp), so that every product of halves is exact, and ``math.fsum``
    adds the products."""
    def halves(x):
        c = x * 134217729.0  # 2**27 + 1
        hi = c - (c - x)
        return hi, x - hi

    shape = np.broadcast_shapes(a.shape, b.shape)[axes:]
    parts = np.concatenate([(x * y).reshape(-1, *shape) for x in halves(a) for y in halves(b)])
    return np.apply_along_axis(math.fsum, 0, parts)


def exact_message(x: np.ndarray, far, near, mats: np.ndarray, nodes: int) -> np.ndarray:
    """``sum_e x[far[e]] @ mats[e]`` onto each of ``nodes`` nodes
    ``near[e]``, per tower, correctly rounded: x is (m, k, q) and mats (E,
    k, q, p)."""
    return np.stack([sum_of_products(x[far[near == v]].transpose(0, 2, 1)[..., None],
                                     mats[near == v].transpose(0, 2, 1, 3), axes=2)
                     for v in range(nodes)])


def channel_weights(ws, present):
    """Each channel's weights of the labels present, as plain arrays."""
    return [[channel[label] for label in present] for channel in ws]


def stacked(weights_in, weights_out):
    """``label_stack``'s value from plain arrays."""
    return label_stack([t(w) for w in weights_in], [t(w) for w in weights_out]).data


# the parts of the tower-width-25 check: the output's in and out halves,
# then the gradients of h and of the in and out channels' label matrices
OUTPUT_HALVES = ("out_in", "out_out")
GRADIENTS = ("h", "A0", "A1", "A2", "B0", "B1", "B2")


def tower_width_25_errors(rng) -> dict:
    """The labelled op at tower width 25 against the per-edge composition
    of each channel (its output's halves) and the correctly rounded sums
    (its gradients): each part's largest deviation and the largest entry
    it is compared with. The output's in half has the bits the in channel
    had alone."""
    h, ws, edges = message_case(rng, "leaf", n=29, n_edges=800, k=8, q=25)
    probe_in, later = rng.normal(size=h.shape), rng.normal(size=h.shape)
    probe_out = rng.normal(size=h.shape)
    probe = np.concatenate([probe_in, probe_out], axis=2)
    got = run_message("fused", "leaf", h, ws, edges, probe, later)
    got[:1] = [got[0][..., :25], got[0][..., 25:]]
    src, dst, labels = edges
    n = h.shape[0]
    want = run_message("per_edge", "leaf", h, ws, edges, probe, later)[0]
    want = [want[..., :25], want[..., 25:]]
    # h's gradient sends each half of the probe back along its edges, from
    # the destination through A^T, or B^T, to the source
    mats = [np.stack(c)[labels].transpose(0, 1, 3, 2) for c in ws]
    want.append(exact_message(np.concatenate([probe_in, probe_out]),
                              np.concatenate([dst, dst + n]), np.concatenate([src, src]),
                              np.concatenate(mats), n))
    want += [sum_of_products(h[src[labels == label]][..., None],
                             p[dst[labels == label]][..., None, :])
             for p in (probe_in, probe_out) for label in range(len(ws[0]))]
    return {name: (np.abs(a - b).max(), np.abs(b).max())
            for name, a, b in zip(OUTPUT_HALVES + GRADIENTS, got, want, strict=True)}


@functools.lru_cache(maxsize=None)
def tower_width_25_draw(seed: int) -> dict:
    """``tower_width_25_errors`` on ``default_rng(seed)``, computed once for
    the tests that each check some of its parts."""
    return tower_width_25_errors(np.random.default_rng(seed))


def assert_within_1e_15(errors: dict, names) -> None:
    for name in names:
        deviation, largest = errors[name]
        assert deviation <= 1e-15 * largest, name


class TestMatmulMessage:
    """``T.label_message``: both channels of the matmul message, and of the
    edge network's over labels, against its node-form oracle, each channel
    computed on its own, the per-edge composition and finite
    differences."""

    @pytest.mark.parametrize("q", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case", MESSAGE_CASES)
    def test_bits_equal_composed_message(self, rng, case, k, q):
        h, ws, edges = message_case(rng, case, n=9, n_edges=40, k=k, q=q)
        probe = rng.normal(size=h.shape[:2] + (2 * q,))
        later = rng.normal(size=h.shape)
        got = run_message("fused", case, h, ws, edges, probe, later)
        want = run_message("node_form", case, h, ws, edges, probe, later)
        names = ["out", "h", "A0", "A1", "A2", "B0", "B1", "B2"]
        for name, a, b in zip(names, got, want, strict=True):
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist(), name

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case", MESSAGE_CASES)
    def test_in_half_has_the_bits_of_the_in_channel_alone(self, rng, case, k):
        # each half sums each node's edges in edge order, as its channel's
        # own op did. (At some wider towers, such as 25, BLAS rounds a
        # column of the op's 2q-column products otherwise than of the in
        # channel's Lq-column one: CHANGES.md.)
        h, ws, edges = message_case(rng, case, n=9, n_edges=40, k=k, q=8)
        probe = rng.normal(size=h.shape[:2] + (16,))
        later = rng.normal(size=h.shape)
        got = run_message("fused", case, h, ws, edges, probe, later)
        want = run_message("per_channel", case, h, ws, edges, probe, later)
        assert got[0][..., :8].tobytes() == want[0][..., :8].tobytes()
        for a, b in zip(got, want, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14 * max(np.abs(b).max(), 1.0))

    def test_agrees_with_composed_message_at_tower_width_25(self, rng):
        # the paper's d=200, k=8: each node adds its messages in row order,
        # and BLAS may give a row other bits in another block. The gradients
        # are held to their correctly rounded sums: the per-edge
        # composition's own error reached 2.2e-15 of the largest entry on
        # other draws. h's gradient sends each channel's probe back along
        # each edge through the transposed matrix, and a weight's gradient
        # sums about 270 edges' outer products. The output is held to the
        # per-edge composition of each channel: the hub's sum of about 290
        # in-messages in slot order is itself 1.3e-15 from its correctly
        # rounded sum at this draw
        assert_within_1e_15(tower_width_25_errors(rng), OUTPUT_HALVES + GRADIENTS)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients_agree_at_tower_width_25_on_other_draws(self, seed):
        # the fixture's gradient checks on six more draws: they hold on each
        assert_within_1e_15(tower_width_25_draw(seed), GRADIENTS)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_composed_message_at_tower_width_25_on_other_draws(self, seed):
        # the fixture's check of the output's in half on six more draws; it
        # holds because the hub's ~290 messages are summed in blocks of
        # T.SUM_BLOCK, not one at a time
        assert_within_1e_15(tower_width_25_draw(seed), ["out_in"])

    @pytest.mark.parametrize("seed", range(6))
    def test_out_half_agrees_with_composed_message_at_tower_width_25_on_other_draws(self,
                                                                                    seed):
        # the fixture's check of the output's out half on six more draws,
        # which the hub's blocked sum holds as it does the in half
        assert_within_1e_15(tower_width_25_draw(seed), ["out_out"])

    def test_agrees_with_correctly_rounded_sums_at_a_hub_of_1000_messages(self, rng):
        # a node that receives about a thousand messages: each half of the
        # op's output within 1e-15 of the largest entry from the per-edge
        # products summed correctly rounded. (The per-edge composition,
        # which sums each label's messages one at a time, was itself 1.0e-15
        # to 2.4e-15 from them on four draws, so it is not the reference.)
        h, ws, (src, dst, labels) = message_case(rng, "leaf", n=29, n_edges=3000, k=2, q=25)
        assert (dst == 0).sum() > 1000 > 30 * T.SUM_BLOCK
        with no_grad():
            present, _, _, plan = label_plans((src, dst, labels), 29)
            got = T.label_message(t(h), t(stacked(*channel_weights(ws, present))), plan).data
        for half, weights in zip((slice(None, 25), slice(25, None)), ws):
            want = exact_message(h, src, dst, np.stack(weights)[labels], 29)
            assert np.abs(got[..., half] - want).max() <= 1e-15 * np.abs(want).max()

    def test_gradients_against_finite_differences(self, rng):
        # both channels in one op, with the states also read after the
        # messages, on random edges, on pairs with their reverses and on a
        # list with a one-way edge, a duplicate and a reverse with another
        # label among paired ones
        for case in ("leaf", "paired", "unpaired"):
            h_data, ws, edges = message_case(rng, case, n=7, n_edges=20, k=2, q=3)
            present, _, _, plan = label_plans(edges, 7)
            params = {"h": t(h_data, rg=True),
                      "w": t(stacked(*channel_weights(ws, present)), rg=True)}

            def loss(p):
                both = T.tanh(T.concat([p["h"], p["h"]], axis=2))
                return T.reduce_sum(T.mul(both, T.label_message(p["h"], p["w"], plan)))

            check_grad_against_fd(loss, params, label=f"label_message:{case}")

    def test_one_tape_entry_counting_the_composed_multiplies(self, rng):
        h_data, ws, edges = message_case(rng, "paired", n=9, n_edges=40, k=3, q=4)
        present, far, near, plan = label_plans(edges, 9)
        h = t(h_data, rg=True)
        stack = t(stacked(*channel_weights(ws, present)), rg=True)
        with count_multiplies(MultiplyCounter()) as fused:
            out = T.label_message(h, stack, plan)
        assert [entry[0] for entry in T.active_tape()] == [out]
        T.active_tape().clear()
        # both channels' counts, each one (q x p) product per tower at each
        # (far node, label) pair it reads
        src, dst, labels = edges
        stacks = [t(np.concatenate(c, axis=2)) for c in channel_weights(ws, present)]
        with count_multiplies(MultiplyCounter()) as per_channel:
            per_channel_label_messages(t(h_data), stacks, src, dst,
                                       np.unique(labels, return_inverse=True)[1])
        reads = len(set(zip(src.tolist(), labels.tolist())))
        assert fused.total == per_channel.total == 2 * reads * 3 * 4 * 4
        # on random edges too: one product of both channels at each pair
        # some edge reads
        h_data, ws, edges = message_case(rng, "leaf", n=9, n_edges=40, k=3, q=4)
        present, _, _, plan = label_plans(edges, 9)
        stack = t(stacked(*channel_weights(ws, present)))
        with count_multiplies(MultiplyCounter()) as fused:
            T.label_message(t(h_data), stack, plan)
        assert fused.total == plan.pairs.widths[0] * 3 * 4 * 8
        # no edges: zeros of both halves, and nothing to tape
        out = T.label_message(h, t(np.zeros((3, 4, 0)), rg=True),
                              T.label_plan([], T.segments([], 9), [], 0))
        assert out.data.tobytes() == np.zeros((9, 3, 8)).tobytes()
        assert not T.active_tape()

    @pytest.mark.parametrize("per_group, groups", [(8, 1), (3, 3), (1, 8), (0, 8)])
    def test_tower_groups_keep_the_bits(self, rng, monkeypatch, per_group, groups):
        # the forward makes U and the messages for as many towers at once as
        # LABEL_GROUP_BYTES holds, one at least, with the bits of all at once
        h, ws, edges = message_case(rng, "leaf", n=9, n_edges=40, k=8, q=4)
        present, _, _, plan = label_plans(edges, 9)
        stack = t(stacked(*channel_weights(ws, present)))
        towers, slot_sum = [], T._slot_sum
        monkeypatch.setattr(T, "_slot_sum", lambda seg, rows: towers.append(rows.shape[1])
                            or slot_sum(seg, rows))
        with no_grad():
            want = T.label_message(t(h), stack, plan).data
        assert towers == [8]
        towers.clear()
        # one tower's U and messages, 2q = 8 values per (node, label) pair and edge
        monkeypatch.setattr(T, "LABEL_GROUP_BYTES",
                            per_group * 8 * 8 * (9 * present.size + plan.taken.size))
        with no_grad():
            got = T.label_message(t(h), stack, plan).data
        assert len(towers) == groups and sum(towers) == 8
        assert got.tobytes() == want.tobytes()

    def test_only_a_rule_makes_the_plans_source(self, rng):
        # the rule's permutation: an untaped call leaves it unmade, and the
        # first rule makes it once for every later step
        h_data, ws, edges = message_case(rng, "leaf", n=9, n_edges=40, k=2, q=3)
        present, _, near, plan = label_plans(edges, 9)
        stack = t(stacked(*channel_weights(ws, present)), rg=True)
        with no_grad():
            T.label_message(t(h_data), stack, plan)
        assert "source" not in vars(plan)
        backward(T.reduce_sum(T.label_message(t(h_data, rg=True), stack, plan)))
        source = plan.source
        assert source.tolist() == plan.near.index[plan.pairs.row_order].tolist()
        assert not source.flags.writeable
        backward(T.reduce_sum(T.label_message(t(h_data, rg=True), stack, plan)))
        assert plan.source is source

    def test_overflowing_label_raises(self, rng):
        # each label's in and out blocks reach some message: an overflow in
        # either is caught by the result's check
        for case in ("leaf", "paired"):
            h_data, ws, edges = message_case(rng, case, n=9, n_edges=40, k=2, q=3)
            present, far, near, plan = label_plans(edges, 9)
            for huge in range(2 * present.size):
                stack = stacked(*channel_weights(ws, present))
                stack[:, :, 3 * huge:3 * huge + 3] = 1e308
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
                    T.label_message(t(np.full(h_data.shape, 2.0)), t(stack), plan)

    def test_shape_validation(self, rng):
        h_data, ws, edges = message_case(rng, "one_label", n=9, n_edges=40, k=2, q=3)
        _, far, near, plan = label_plans(edges, 9)
        h, stack = t(h_data), t(stacked([ws[0][1]], [ws[1][1]]))
        assert T.label_message(h, stack, plan).shape == (9, 2, 6)
        bad = [(t(h_data[:, 0]), stack, plan),                  # no tower axis
               (h, t(stack.data[:, :, :5]), plan),             # not 2q columns per label
               (h, t(stack.data[:, :, :3]), plan),             # one channel
               (h, t(stack.data[:, :2]), plan),                # not q rows
               (h, t(stack.data[:1]), plan),                   # towers
               (h, t(np.concatenate([stack.data] * 2, axis=2)), plan),
               (t(h_data[:5]), stack, plan),                   # states
               (h, stack, T.block_plan(far, near)),            # a block plan
               (h, stack, near)]                               # no label plan
        for args in bad:
            with pytest.raises(DimensionError):
                T.label_message(*args)


class TestLabelPlan:
    """``T.label_plan`` lays out one row per edge, builds the edges' (far
    node, label) pairs plan, and refuses what would index the wrong
    pair."""

    @staticmethod
    def edges(rng, n=7, n_edges=30, labels=3):
        src, dst = rng.integers(0, n, size=(2, n_edges))
        return src, T.segments(dst, n), rng.integers(0, labels, size=n_edges)

    def test_pairs_plan_is_far_times_labels_plus_label(self, rng):
        # the rows are the edges, in edge order, near is the destinations'
        # plan, and each edge reads its (source, label) pair
        for src, near, label in (self.edges(rng), self.edges(rng, n_edges=0)):
            plan = T.label_plan(src, near, label, 3)
            want = T.segments(src * 3 + label, 7 * 3)
            for name in ("index", "row_order", "order", "back", "slot"):
                assert getattr(plan.pairs, name).tolist() == getattr(want, name).tolist()
            assert (plan.pairs.num_segments, plan.pairs.widths) == (21, want.widths)
            assert plan.near is near
            assert plan.taken.tolist() == want.index[near.row_order].tolist()
            assert not plan.taken.flags.writeable

    def test_label_out_of_range_raises(self, rng):
        far, near, label = self.edges(rng)
        for bad in (-1, 3):
            # label 3 of node w would be pair 3w + 3, node w + 1's label 0
            wrong = label.copy()
            wrong[4] = bad
            with pytest.raises(ContractError):
                T.label_plan(far, near, wrong, 3)
        with pytest.raises(ContractError):
            T.label_plan(far, near, np.zeros_like(label), 0)

    def test_labels_that_are_not_integer_raise(self, rng):
        far, near, label = self.edges(rng)
        for bad in (label + 0.5, label.astype(float), label > 0):
            with pytest.raises(ContractError, match="must hold integers"):
                T.label_plan(far, near, bad, 3)

    def test_edge_lists_of_different_lengths_raise(self, rng):
        far, near, label = self.edges(rng)
        short = far[1:]
        for frm, to, lab in ((short, near, label), (far, near, label[1:]),
                             (far, T.segments(near.index[1:], 7), label),
                             (far, near, label[:, None]), (far[:, None], near, label)):
            with pytest.raises(DimensionError):
                T.label_plan(frm, to, lab, 3)

    def test_sources_out_of_range_or_not_integer_raise(self, rng):
        # the sources need no plan of their own: each is the far node of its
        # edge's row, so one outside the nodes names a pair outside the
        # pairs plan, which refuses it
        far, near, label = self.edges(rng)
        paired = np.concatenate([far[:15], near.index[:15]])
        for src, dst, lab in ((far, near, label),
                              (paired, T.segments(paired[::-1], 7), np.zeros(30, int))):
            for bad in (-1, 7):
                wrong = src.copy()
                wrong[4] = bad
                with pytest.raises(ContractError, match="out of range"):
                    T.label_plan(wrong, dst, lab, 3)
        with pytest.raises(ContractError, match="must hold integers"):
            T.label_plan(far + 0.5, near, label, 3)


def composed_edge_message(h: Tensor, hidden: Tensor, w2: Tensor, b2: Tensor, far,
                          near) -> Tensor:
    """The edge network's message composed from three taped ops: the node
    products U, with b2's matrices as the last unit's, the contraction of
    each edge's hidden row, its unit 1 appended, with its far node's U,
    and a scatter. It is the bitwise oracle of the one-op
    ``T.edge_message``, forward and backward. The first two are taped with
    the numpy calls of the fused op: the node products side by side in
    one row-major array, whose rule reads the bias's gradient from the
    last unit of U's, and the contraction, which pads each node's edges
    into a block by ``far.slot``."""
    n, k, q = h.data.shape
    m, _, units = hidden.data.shape
    r = units - 1
    p = b2.data.shape[-1] // q
    w = w2.data.reshape(k, r * p, q)
    b = b2.data.reshape(k, p, q)
    rows = h.data.transpose(1, 0, 2)

    def node_rule(g: np.ndarray):
        g_u, g_c = g[:, :, :r * p], g[:, :, r * p:]
        return ((g_u.transpose(1, 2, 0) @ rows).reshape(w2.data.shape)
                if w2.requires_grad else None,
                (g_c.transpose(1, 2, 0) @ rows).reshape(b2.data.shape)
                if b2.requires_grad else None,
                T._product(g_u, w) + T._product(g_c, b) if h.requires_grad else None)

    uc = T._result(np.concatenate([T._product(h.data, w.transpose(0, 2, 1)),
                                   T._product(h.data, b.transpose(0, 2, 1))], axis=2),
                   (w2, b2, h), node_rule, n * k * q * units * p)
    u = uc.data.reshape(n, k, units, p)
    blocks = np.zeros((n, k, len(far.widths), units))
    blocks[far.index, :, far.slot] = hidden.data
    y = blocks @ u

    def rule(g: np.ndarray):
        g_y = np.zeros(y.shape)
        g_y[far.index, :, far.slot] = g
        return ((g_y @ u.swapaxes(-1, -2))[far.index, :, far.slot]
                if hidden.requires_grad else None,
                (blocks.swapaxes(-1, -2) @ g_y).reshape(n, k, units * p)
                if uc.requires_grad else None)

    msgs = T._result(y[far.index, :, far.slot], (hidden, uc), rule, m * k * r * p)
    return T.scatter_sum_rows(msgs, near)


def pair_edges(rng, n, n_pairs, one_way):
    """Directed edges over n nodes for the edge-network oracle: n_pairs
    distinct undirected pairs, the first ``one_way`` of them in one
    direction only and the rest in both, listed in a shuffled order.
    Returns (src, dst, pair, side): each edge's ends, its pair and its side
    (0 from the lower node to the higher)."""
    ends = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for rank, c in enumerate(rng.choice(len(ends), size=n_pairs, replace=False)):
        a, b = ends[c]
        if rank < one_way:
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        else:
            edges += [(a, b), (b, a)]
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2)[rng.permutation(len(edges))].T
    _, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst), return_inverse=True)
    return src, dst, pair.reshape(-1), (src > dst).astype(np.intp)


# seed, nodes, pairs, one-way pairs, towers k, tower width q
PAIR_CASES = {"k1": (1, 7, 15, 3, 1, 4), "k1_width1": (2, 6, 10, 4, 1, 1),
              "k2_width25": (3, 9, 30, 5, 2, 25), "one_way_shuffled": (4, 8, 20, 20, 3, 8),
              "edgeless": (5, 5, 0, 0, 2, 3)}
PAIR_MODES = ["leaf", "intermediate", "steps"]


def hidden_rows(rng, n_edges, k, r):
    """Hidden rows as the edge network makes them: a relu layer's r units,
    about half of them zero, with the unit 1 appended."""
    return homogeneous(np.maximum(rng.normal(size=(n_edges, k, r)), 0.0))


def run_pair_message(fused, mode, case):
    """Forward and backward through either message, both channels, as one
    step of an edge network with a ``tanh(h + messages)`` update, so h is
    read again after the messages; ``steps`` runs three such steps on one
    pair of weights and hidden rows, whose gradients backward sums over
    the steps. ``leaf passes h, the hidden rows and the weights as
    leaves, the other modes as intermediates. The hidden width is q + 1,
    and the unit appended to it weighs the bias. Returns the final states
    and the gradients of h, the last layer and the hidden rows."""
    seed, n, n_pairs, one_way, k, q = case
    rng = np.random.default_rng(seed)
    src, dst, _, _ = pair_edges(rng, n, n_pairs, one_way)
    r = q + 1
    h0 = t(rng.normal(size=(n, k, q)), rg=True)
    w0 = t(rng.normal(size=(k, r, q * q)) / np.sqrt(q * r), rg=True)
    b0 = t(rng.normal(size=(k, q * q)) / np.sqrt(q), rg=True)
    e0 = t(hidden_rows(rng, src.size, k, r), rg=True)
    probe = t(rng.normal(size=(n, k, q)))
    leaf = mode == "leaf"
    w2, b2, hidden, h = (x if leaf else T.reshape(x, x.shape) for x in (w0, b0, e0, h0))
    a, b = T.segments(src, n), T.segments(dst, n)
    # the one op takes each far node's block of hidden rows; one hidden
    # feeds both channels here, so laying it out per call keeps the order
    # in which backward sums its gradient the composed message's
    send = (lambda h, hidden, w2, b2, far, near: T.edge_message(
        h, [(T.segment_blocks(hidden, far), w2, b2)], T.block_plan(far, near))
            ) if fused else composed_edge_message
    for _ in range(3 if mode == "steps" else 1):
        msgs = [send(h, hidden, w2, b2, far, near) for far, near in ((a, b), (b, a))]
        h = T.tanh(T.add(h, T.add(*msgs)))
    backward(T.reduce_sum(T.mul(h, probe)))
    return [h.data, h0.grad, w0.grad, b0.grad, e0.grad]


class TestSegmentBlocks:
    """``T.segment_blocks``, each segment's rows in one zero-padded block,
    the layout ``T.edge_message`` reads its hidden rows in."""

    def test_rows_at_their_slots_and_pad_rows_zero(self, rng):
        index = [2, 0, 2, 3, 2, 0]
        x = rng.normal(size=(6, 2, 3))
        out = T.segment_blocks(t(x), T.segments(index, 5)).data
        assert out.shape == (5, 3, 2, 3)
        want = np.zeros(out.shape)
        seen = [0] * 5
        for i, s in enumerate(index):
            want[s, seen[s]] = x[i]
            seen[s] += 1
        assert out.tobytes() == want.tobytes()

    def test_rule_is_the_gather_of_each_rows_slot(self, rng):
        plan = T.segments([1, 1, 0, 1], 3)
        x = t(rng.normal(size=(4, 2)), rg=True)
        probe = rng.normal(size=(3, 3, 2))
        backward(T.reduce_sum(T.mul(T.segment_blocks(x, plan), t(probe))))
        assert x.grad.tobytes() == probe[plan.index, plan.slot].tobytes()

    def test_no_rows(self):
        out = T.segment_blocks(t(np.zeros((0, 2, 3))), T.segments([], 4))
        assert out.shape == (4, 0, 2, 3)

    def test_plan_of_the_wrong_size_raises(self):
        for rows in (np.zeros((3, 2)), np.zeros(5)):
            with pytest.raises(DimensionError):
                T.segment_blocks(t(rows), T.segments([0, 1, 0, 1], 2))

    def test_gradients_against_finite_differences(self, rng):
        plan = T.segments([0, 2, 2, 1, 2], 3)
        probe = t(rng.normal(size=(3, 3, 2, 2)))
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.tanh(T.segment_blocks(p["x"], plan)), probe)),
            {"x": t(rng.normal(size=(5, 2, 2)), rg=True)}, label="segment_blocks")


class TestLeadingBlock:
    """``T.leading_block``, the block of a tensor that starts at its first
    entry, as the engine's first step reads the first towers of a weight."""

    def test_value_and_zero_padded_gradient(self, rng):
        x = t(rng.normal(size=(3, 4, 5)), rg=True)
        out = T.leading_block(x, (2, 4, 3))
        assert out.data.tobytes() == np.ascontiguousarray(x.data[:2, :, :3]).tobytes()
        probe = rng.normal(size=(2, 4, 3))
        backward(T.reduce_sum(T.mul(out, t(probe))))
        want = np.zeros((3, 4, 5))
        want[:2, :, :3] = probe
        assert x.grad.tobytes() == want.tobytes()

    def test_gradients_against_finite_differences(self, rng):
        probe = t(rng.normal(size=(2, 1, 3)))
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.tanh(T.leading_block(p["x"], (2, 1, 3))), probe)),
            {"x": t(rng.normal(size=(4, 2, 3)), rg=True)}, label="leading_block")

    def test_the_full_shape_is_the_input_and_tapes_nothing(self, rng):
        x = t(rng.normal(size=(2, 3)), rg=True)
        T.active_tape().clear()
        assert T.leading_block(x, (2, 3)) is x
        assert T.leading_block(x, [2, 3]) is x
        assert not T.active_tape()

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (2, -1), (2,), (2, 3, 1)],
                             ids=["more_rows", "more_columns", "negative", "lower_rank",
                                  "higher_rank"])
    def test_a_block_past_the_input_or_of_another_rank_raises(self, shape):
        with pytest.raises(DimensionError):
            T.leading_block(t(np.ones((2, 3))), shape)


# the digests ``TestPairMessage.test_steps_pinned`` holds each case's steps
# to, kept out of the test ids so that a deliberate re-pin renames no test
PAIR_STEP_DIGESTS = {
    "k1": "710106d83e9e0a1580332417d7e4943c356a38f3c5cfdc7723c762f4010528e8",
    "k1_width1": "e78ee7457bcf0355c752c31d738c6ec3d6bac9f7b047dabc560fefa76fedcd35",
    "k2_width25": "3394abd5ed5e04f2fc767cb24d60d89d5b1c84f4f755f20b3fef2a69f2d2c311",
    "one_way_shuffled": "7a57f9cdfcef19f1522b109d610a1d9f766702e3c98c30adde28adeaf35680fa",
    "edgeless": "d87ef6fb2c4bd67803caabbbaaea117290d1a6ce84bc223fe18fc434e7f41521",
}


class TestPairMessage:
    """``T.edge_message``, the edge network's message over raw vectors,
    against its composed oracle and finite differences, on edges that
    come in two-way and one-way pairs."""

    @pytest.mark.parametrize("mode", PAIR_MODES)
    @pytest.mark.parametrize("case", list(PAIR_CASES))
    def test_bits_equal_composed_message(self, case, mode):
        got = run_pair_message(True, mode, PAIR_CASES[case])
        want = run_pair_message(False, mode, PAIR_CASES[case])
        for name, a, b in zip(["out", "h", "w2", "b2", "hidden"], got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", list(PAIR_STEP_DIGESTS))
    def test_steps_pinned(self, case):
        # pinned on the one op, with the composed oracle's bits as well
        for fused in (True, False):
            blobs = b"".join(a.tobytes() for a in run_pair_message(fused, "steps", PAIR_CASES[case]))
            assert hashlib.sha256(blobs).hexdigest() == PAIR_STEP_DIGESTS[case]

    def test_gradients_against_finite_differences(self, rng):
        # both channels over one-way and two-way pairs; the states are also
        # read after the messages, as the update reads them
        n, k, q, r = 6, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 9, 4)
        a, b = T.segments(src, n), T.segments(dst, n)
        params = {"h": t(rng.normal(size=(n, k, q)), rg=True),
                  # at 0.3 the central difference of one entry of 1e-3
                  # misses the relative tolerance by its truncation error
                  # (a step of 1e-5 agrees to 1e-9)
                  "w2": t(rng.normal(size=(k, r, q * q)) * 0.2, rg=True),
                  "b2": t(rng.normal(size=(k, q * q)) * 0.2, rg=True),
                  "e": t(homogeneous(hidden_rows(rng, src.size, k, r)[..., :r] * 0.5 + 0.1),
                         rg=True)}

        def loss(p):
            # the hidden rows' gradient passes through their blocks
            msgs = [T.edge_message(p["h"], [(T.segment_blocks(p["e"], far), p["w2"], p["b2"])],
                                   T.block_plan(far, near))
                    for far, near in ((a, b), (b, a))]
            return T.reduce_sum(T.tanh(T.add(p["h"], T.add(*msgs))))

        check_grad_against_fd(loss, params, label="edge_message")

    def test_homogeneous_network_equals_the_affine_one(self, rng):
        # the edge network as the engine runs it, each layer's bias a row
        # of weights times a unit 1, against the same network with each
        # bias added after its product, at jittered biases: messages and
        # gradients agree to the last places
        n, k, q, r, width = 7, 2, 3, 4, 5
        src, dst, _, _ = pair_edges(rng, n, 12, 4)
        far, near = T.segments(src, n), T.segments(dst, n)
        x = rng.normal(size=(src.size, k, width))
        leaves = {"h": t(rng.normal(size=(n, k, q)), rg=True),
                  "w1": t(rng.normal(size=(k, width, r)) / np.sqrt(width), rg=True),
                  "b1": t(rng.uniform(-0.3, 0.3, size=(k, r)), rg=True),
                  "w2": t(rng.normal(size=(k, r, q * q)) / np.sqrt(r), rg=True),
                  "b2": t(rng.uniform(-0.3, 0.3, size=(k, q * q)), rg=True)}
        probe = t(rng.normal(size=(n, k, q)))
        unit = np.zeros((k, width + 1, 1))
        unit[:, -1] = 1.0

        def homogeneous_net(p):
            layer = T.concat([T.concat([p["w1"], T.reshape(p["b1"], (k, 1, r))], axis=1),
                              t(unit)], axis=2)
            hidden = T.relu(T.matmul(t(homogeneous(x)), layer))
            return T.edge_message(p["h"], [(T.segment_blocks(hidden, far), p["w2"], p["b2"])],
                                  T.block_plan(far, near))

        def affine_net(p):
            # each edge's matrix, (E * k, q * q), times its far state
            mats = T.matmul(T.relu(T.matmul(t(x), p["w1"], p["b1"])), p["w2"], p["b2"])
            msgs = T.batched_matvec(T.reshape(mats, (src.size * k, q * q)),
                                    T.reshape(T.gather_rows(p["h"], far), (src.size * k, q)))
            return T.scatter_sum_rows(T.reshape(msgs, (src.size, k, q)), near)

        results = []
        for net in (homogeneous_net, affine_net):
            for leaf in leaves.values():
                leaf.zero_grad()
            out = net(leaves)
            backward(T.reduce_sum(T.mul(out, probe)))
            results.append([out.data] + [leaf.grad.copy() for leaf in leaves.values()])
        for name, a, b in zip(["out"] + list(leaves), *results):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), name

    def test_each_channel_has_the_bits_of_its_call_alone(self, rng):
        # two channels in one call against one call per channel joined by a
        # concat: the messages and each channel's weight and hidden-row
        # gradients bit for bit, and h's, which adds the two channels' (an
        # IEEE sum of two terms does not depend on their order)
        n, k, q, r = 7, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 12, 5)
        far, near = T.segments(src, n), T.segments(dst, n)
        plan = T.block_plan(far, near)
        h = t(rng.normal(size=(n, k, q)), rg=True)
        channels = [(t(hidden_rows(rng, src.size, k, r), rg=True),
                     t(rng.normal(size=(k, r, q * q)), rg=True),
                     t(rng.normal(size=(k, q * q)), rg=True)) for _ in range(2)]
        leaves = [h] + [x for channel in channels for x in channel]
        probe = t(rng.normal(size=(n, k, 2 * q)))
        results = []
        for joined in (True, False):
            for leaf in leaves:
                leaf.zero_grad()
            laid = [(T.segment_blocks(hidden, far), w2, b2) for hidden, w2, b2 in channels]
            out = (T.edge_message(h, laid, plan) if joined else
                   T.concat([T.edge_message(h, [channel], plan) for channel in laid], axis=2))
            backward(T.reduce_sum(T.mul(out, probe)))
            results.append([out.data] + [leaf.grad.copy() for leaf in leaves])
        for a, b in zip(*results, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_one_tape_entry_counting_the_composed_multiplies(self, rng):
        n, k, q, r = 7, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 12, 5)
        far, near = T.segments(src, n), T.segments(dst, n)
        h = t(rng.normal(size=(n, k, q)), rg=True)
        w2 = t(rng.normal(size=(k, r, q * q)), rg=True)
        b2 = t(rng.normal(size=(k, q * q)), rg=True)
        hidden = t(hidden_rows(rng, src.size, k, r))
        with count_multiplies(MultiplyCounter()) as fused:
            out = T.edge_message(h, [(T.segment_blocks(hidden, far), w2, b2)],
                                 T.block_plan(far, near))
        assert [entry[0] for entry in T.active_tape()] == [out]
        with count_multiplies(MultiplyCounter()) as composed:
            composed_edge_message(h, hidden, w2, b2, far, near)
        assert len(T.active_tape()) == 1 + 3
        # the node products with r + 1 matrices, the bias's the last, and
        # the edges' contractions over the r hidden units, not the unit
        assert fused.total == composed.total == n * k * q * (r + 1) * q + src.size * k * r * q

    @pytest.mark.parametrize("value, one_way", [(np.inf, False), (np.nan, True)],
                             ids=["inf_in_a_pair", "nan_in_a_one_way_pair"])
    def test_non_finite_matrix_raises(self, rng, value, one_way):
        # the result is the only value checked, so it must show a matrix
        # entry that is not finite, whether the edges use its hidden unit
        # (a one-way pair's edge alone, or every edge) or multiply it by 0
        n, k, q, r = 6, 2, 3, 4
        src, dst, pair, _ = pair_edges(rng, n, 8, 3)
        hidden = hidden_rows(rng, src.size, k, r)
        if one_way:
            j = int(np.flatnonzero(np.bincount(pair, minlength=8) == 1)[0])
            hidden[:, :, 1] = 0.0
            hidden[np.flatnonzero(pair == j), :, 1] = 2.0
        w2 = t(rng.normal(size=(k, r, q * q)), rg=True)
        w2.data[1, 1, 2 * q] = value  # unit 1's matrix in tower 1
        far, near = T.segments(src, n), T.segments(dst, n)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            T.edge_message(t(rng.normal(size=(n, k, q))),
                           [(T.segment_blocks(t(hidden), far), w2, t(np.zeros((k, q * q))))],
                           T.block_plan(far, near))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bias_raises(self, rng, value):
        # the bias is the last unit's matrix, which every edge weighs by 1
        n, k, q, r = 6, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 8, 3)
        far, near = T.segments(src, n), T.segments(dst, n)
        b2 = t(rng.normal(size=(k, q * q)), rg=True)
        b2.data[0, q + 1] = value
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            T.edge_message(t(rng.normal(size=(n, k, q))),
                           [(T.segment_blocks(t(hidden_rows(rng, src.size, k, r)), far),
                             t(rng.normal(size=(k, r, q * q))), b2)], T.block_plan(far, near))

    def test_shape_validation(self, rng):
        n, k, q, r = 5, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 6, 2)
        far, near = T.segments(src, n), T.segments(dst, n)
        plan = T.block_plan(far, near)
        depth = len(far.widths)
        h = t(np.ones((n, k, q)))
        blocks = T.segment_blocks(t(np.ones((src.size, k, r + 1))), far)
        w2, b2 = t(np.ones((k, r, q * q))), t(np.ones((k, q * q)))
        assert T.edge_message(h, [(blocks, w2, b2)], plan).shape == (n, k, q)
        assert T.edge_message(h, [(blocks, w2, b2)] * 2, plan).shape == (n, k, 2 * q)
        bad = [(t(np.ones((n, k * q))), blocks, w2, b2, plan),           # no tower axis
               (h, t(np.ones((n, depth, k * (r + 1)))), w2, b2, plan),   # no tower axis
               (h, t(np.ones((n, depth + 1, k, r + 1))), w2, b2, plan),  # block depth
               (h, t(np.ones((n - 1, depth, k, r + 1))), w2, b2, plan),  # nodes
               (h, t(np.ones((n, depth, 1, r + 1))), w2, b2, plan),      # towers
               (h, t(np.ones((n, depth, k, r))), w2, b2, plan),          # no unit
               (h, blocks, t(np.ones((1, r, q * q))), b2, plan),         # towers
               (h, blocks, t(np.ones((k, r + 1, q * q))), b2, plan),     # hidden width
               (h, blocks, w2, t(np.ones((k, q * q + 1))), plan),        # not p x q
               (h, blocks, t(np.ones((k, r, q * q + q))), b2, plan),     # w2 and b2
               (h, blocks, w2, b2, near),                                # not a block plan
               (h, blocks, w2, b2, T.block_plan(T.segments(src, n + 1),
                                                T.segments(dst, n + 1)))]  # far plan
        for h_, blocks_, w2_, b2_, plan_ in bad:
            with pytest.raises(DimensionError):
                T.edge_message(h_, [(blocks_, w2_, b2_)], plan_)
        for channels in ([],                                                  # no channel
                         [(blocks, w2)],                                      # no bias
                         [(blocks, w2, b2), (blocks, t(np.ones((k, r - 1, q * q))),
                                             b2)]):                           # hidden widths
            with pytest.raises(DimensionError):
                T.edge_message(h, channels, plan)
        with pytest.raises(DimensionError):
            T.block_plan(far, T.segments(dst[1:], n))                   # edges

    def test_only_a_rule_makes_the_plans_source(self, rng):
        # the rule's cell source: an untaped call leaves it unmade, and the
        # first rule makes it once for every later step
        n, k, q, r = 6, 2, 3, 4
        src, dst, _, _ = pair_edges(rng, n, 8, 3)
        far, near = T.segments(src, n), T.segments(dst, n)
        plan = T.block_plan(far, near)
        blocks = T.segment_blocks(t(hidden_rows(rng, src.size, k, r), rg=True), far)
        w2, b2 = t(rng.normal(size=(k, r, q * q)), rg=True), t(rng.normal(size=(k, q * q)))
        h = t(rng.normal(size=(n, k, q)))
        with no_grad():
            T.edge_message(h, [(blocks, w2, b2)], plan)
        assert "source" not in vars(plan)
        backward(T.reduce_sum(T.edge_message(h, [(blocks, w2, b2)], plan)))
        source = plan.source
        depth = len(far.widths)
        want = np.full(n * depth, n)
        want[src * depth + far.slot] = dst
        assert source.tolist() == want.tolist()
        assert not source.flags.writeable
        backward(T.reduce_sum(T.edge_message(h, [(blocks, w2, b2)], plan)))
        assert plan.source is source

    def test_block_plan_reads_each_edge_at_its_cell(self, rng):
        # each edge's cell in near's slot order, and each cell's near node
        # (a pad cell's the appended row past the last)
        n = 6
        src, dst, _, _ = pair_edges(rng, n, 7, 3)
        far, near = T.segments(src, n), T.segments(dst, n)
        plan = T.block_plan(far, near)
        depth = len(far.widths)
        cells = [src[i] * depth + far.slot[i] for i in range(src.size)]
        assert plan.taken.tolist() == [cells[i] for i in near.row_order]
        want = [n] * (n * depth)
        for i, cell in enumerate(cells):
            want[cell] = dst[i]
        assert plan.source.tolist() == want
        assert not plan.taken.flags.writeable and not plan.source.flags.writeable


# The ops that only move or clip values, each fed by a leaf: (op, leaf
# shape, the entry the op passes on).
MOVERS = {
    "reshape": (lambda x: T.reshape(x, (3, 4)), (4, 3), (2, 1)),
    "transpose": (lambda x: T.transpose(x, (1, 0, 2)), (2, 3, 2), (1, 2, 0)),
    "concat": (lambda x: T.concat([t(np.ones((2, 3))), x], axis=0), (4, 3), (3, 2)),
    "gather_rows": (lambda x: T.gather_rows(x, T.segments([3, 1, 1], 4)), (4, 2), (1, 0)),
    "segment_blocks": (lambda x: T.segment_blocks(x, T.segments([1, 0, 1, 1], 2)), (4, 2),
                       (2, 1)),
    "leading_block": (lambda x: T.leading_block(x, (2, 3, 1)), (3, 4, 2), (1, 2, 0)),
    "relu": (T.relu, (3, 4), (0, 3)),
}


class TestUnscannedMovers:
    """reshape, transpose, concat, leading_block, gather_rows,
    segment_blocks and relu do not scan their result for NaN/Inf: their
    input was checked where it was made. A value written into a leaf past
    ``Tensor``'s check still raises, no later than the first op that
    computes from it."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op", list(MOVERS))
    def test_non_finite_leaf_raises_by_the_next_computing_op(self, op, value):
        move, shape, at = MOVERS[op]
        x = t(np.full(shape, 0.5), rg=True)
        x.data[at] = value
        with pytest.raises(NumericError):
            T.reduce_sum(move(x))
        T.active_tape().clear()

    def test_relu_checks_the_input_a_clip_would_hide(self):
        # max(-inf, 0) is 0, so relu itself refuses it; +inf passes on
        for value in (-np.inf, np.nan):
            x = t(np.full((2, 3), 0.5))
            x.data[1, 2] = value
            with pytest.raises(NumericError):
                T.relu(x)
        x = t(np.full((2, 3), 0.5))
        x.data[1, 2] = np.inf
        assert T.relu(x).data[1, 2] == np.inf


class TestMultiplyCounter:
    def test_matmul_counts_mkn(self):
        with count_multiplies(MultiplyCounter()) as c:
            T.matmul(t(np.ones((3, 4))), t(np.ones((4, 5))))
        assert c.total == 3 * 4 * 5

    def test_mul_counts_elements(self):
        with count_multiplies(MultiplyCounter()) as c:
            T.mul(t(np.ones((3, 4))), t(np.ones((3, 4))))
        assert c.total == 12

    def test_batched_matvec_counts_mpq(self):
        with count_multiplies(MultiplyCounter()) as c:
            T.batched_matvec(t(np.ones((7, 6))), t(np.ones((7, 3))))
        assert c.total == 7 * 2 * 3

    def test_tower_matmul_counts_mkqp(self):
        with count_multiplies(MultiplyCounter()) as c:
            T.matmul(t(np.ones((7, 3, 5))), t(np.ones((3, 5, 4))))
        assert c.total == 7 * 3 * 5 * 4

    def test_pair_matvec_counts_useful_mpq(self):
        # five edges from two nodes, three from node 0 and two from node 1,
        # with hidden width 4, the unit appended, and 2x3 matrices: the
        # nodes' products with the four matrices and the bias's and each
        # edge's contraction over the four hidden units count, not the
        # unit's nor the padding row that node 1's block holds
        far = T.segments([0, 1, 0, 1, 0], 2)
        with count_multiplies(MultiplyCounter()) as c:
            T.edge_message(t(np.ones((2, 1, 3))), [(T.segment_blocks(t(np.ones((5, 1, 5))), far),
                                                    t(np.ones((1, 4, 6))), t(np.ones((1, 6))))],
                           T.block_plan(far, far))
        assert c.total == 2 * 5 * 2 * 3 + 5 * 4 * 2

    def test_index_ops_count_nothing(self):
        x = t(np.ones((4, 4)))
        with count_multiplies(MultiplyCounter()) as c:
            T.gather_rows(x, T.segments([0, 1], 4))
            T.scatter_sum_rows(x, T.segments([0, 1, 0, 1], 2))
            T.concat([x, x], axis=0)
            T.reshape(x, (16,))
        assert c.total == 0

    def test_counting_stops_outside_block(self):
        with count_multiplies(MultiplyCounter()) as c:
            pass
        T.matmul(t(np.ones((2, 2))), t(np.ones((2, 2))))
        assert c.total == 0


class TestTapingStatePerThread:
    """The tape, ``no_grad`` and the multiply counter are each thread's own:
    a worker thread starts with the defaults whatever the thread that
    started it has open."""

    def test_worker_starts_taped_with_no_counter_and_its_own_tape(self):
        seen = {}

        def work():
            x = t(np.ones((2, 3)), rg=True)
            y = T.mul(x, x)
            seen["taped"] = [entry[0] for entry in T.active_tape()] == [y]
            seen["tape"] = T.active_tape()
            with count_multiplies(MultiplyCounter()) as own:
                T.mul(x, x)
            seen["own"] = own.total

        main = MultiplyCounter()
        with no_grad(), count_multiplies(main):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            # taping and counting are still off and on here
            T.mul(t(np.ones(2), rg=True), t(np.ones(2)))
            assert not T.active_tape()
        assert seen["taped"] and seen["own"] == 6
        assert seen["tape"] is not T.active_tape()
        # the worker's 6 + 6 multiplies went to no counter of this thread
        assert main.total == 2


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path, rng):
        params = {
            "w1": t(rng.normal(size=(3, 4)), rg=True),
            "b1": t(rng.normal(size=(4,)), rg=True),
            # Values with no short decimal form must still survive exactly.
            "awkward": t([0.1 + 0.2, 1.0 / 3.0, np.pi], rg=True),
        }
        path = tmp_path / "ckpt.json"
        T.save_params(params, str(path))
        loaded = T.load_params(str(path))
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].data.shape == params[k].data.shape
            assert np.array_equal(loaded[k].data, params[k].data)
            assert loaded[k].requires_grad

    def test_file_is_flat_json_with_sorted_keys(self, tmp_path):
        params = {"zz": t([1.0]), "aa": t([[2.0, 3.0]])}
        path = tmp_path / "ckpt.json"
        T.save_params(params, str(path))
        obj = json.loads(path.read_text())
        assert list(obj) == ["aa", "zz"]
        assert obj["aa"] == {"shape": [1, 2], "values": [2.0, 3.0]}

    def test_entry_with_an_unknown_field_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"w": {"shape": [1], "values": [1.0], "dtype": "float32"}}')
        with pytest.raises(ContractError, match="entry 'w' has unknown field 'dtype'"):
            T.load_params(str(path))

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # the target is a directory, so the final replace fails
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            T.save_params({"w": t([1.0])}, str(target))
        assert not list(tmp_path.glob("*.tmp.*"))
        assert target.is_dir() and not list(target.iterdir())


class TestCheckObject:
    """``tensor._check_object``, the one field check of every JSON object
    the program reads, refuses in a fixed order."""

    CHECKS = {"a": T._of_type(int), "b": T._list_of(int, float)}

    @pytest.mark.parametrize("obj, message", [
        ([1], "thing is not a JSON object"),
        ({"a": 1, "b": [], "c": 0}, "thing has unknown field 'c'"),
        ({"a": 1}, "thing is missing field 'b'"),
        ({"a": True, "b": []}, "thing field 'a' has the wrong JSON type: True"),
        ({"a": 1, "b": [1, False]}, "thing field 'b' has the wrong JSON type"),
    ], ids=["not_object", "unknown", "missing", "bool_for_int", "bool_in_list"])
    def test_refusal_names_where_and_the_field(self, obj, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            T._check_object(obj, self.CHECKS, "thing")

    def test_unknown_comes_before_missing(self):
        # a misspelled field is both; the error names the misspelling
        with pytest.raises(ContractError, match="unknown field 'bb'"):
            T._check_object({"a": 1, "bb": []}, self.CHECKS, "thing")

    def test_missing_comes_before_a_failed_check(self):
        with pytest.raises(ContractError, match="missing field 'b'"):
            T._check_object({"a": "1"}, self.CHECKS, "thing")

    def test_admits_exactly_its_fields(self):
        assert T._check_object({"b": [1, 2.5], "a": 3}, self.CHECKS, "thing") is None

    def test_type_checks(self):
        assert T._list_of(int)([1, 2]) and T._list_of(int)([])
        assert not T._list_of(int)((1, 2))
        assert not T._list_of(int)([1, 2.0])
        assert T._of_type(str, int)(3) and not T._of_type(int)(True)
        assert T._is_number(2) and T._is_number(2.5) and T._is_number(np.float64(1))
        assert not T._is_number(True) and not T._is_number("2")


class TestFiniteDifferenceOracle:
    """The oracle itself is validated on functions with known gradients."""

    def test_quadratic(self):
        g = finite_difference_grad(lambda x: float((x ** 2).sum()),
                                   np.array([1.0, -2.0, 3.0]))
        assert_grads_close([2.0, -4.0, 6.0], g, label="fd_quadratic")

    def test_matrix_argument(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = finite_difference_grad(lambda m: float(np.sin(m).sum()), x)
        assert_grads_close(np.cos(x), g, label="fd_sin")


class TestSegmentSoftmax:
    def test_matches_dense_softmax_per_segment(self, rng):
        x = rng.normal(size=(7, 2))
        index = np.array([2, 0, 2, 1, 0, 2, 0])
        got = T.segment_softmax(t(x), T.segments(index, 3)).data
        for s in range(3):
            rows = np.flatnonzero(index == s)
            want = T.softmax(t(x[rows]), axis=0).data
            np.testing.assert_allclose(got[rows], want, rtol=0, atol=1e-15)

    def test_one_row_segment_is_one(self, rng):
        got = T.segment_softmax(t(rng.normal(size=(3, 1))), T.segments([0, 1, 1], 2)).data
        assert got[0, 0] == 1.0

    def test_empty_segment_is_skipped(self, rng):
        x = rng.normal(size=(4, 1))
        got = T.segment_softmax(t(x), T.segments([0, 0, 2, 2], 4)).data
        np.testing.assert_allclose(
            got, T.segment_softmax(t(x), T.segments([0, 0, 1, 1], 2)).data, rtol=0, atol=0)
        assert T.segment_softmax(t(np.zeros((0, 1))), T.segments([], 3)).data.shape == (0, 1)

    def test_large_logits_do_not_overflow(self):
        x = t([[1e3], [1e3 - 1.0], [-1e3], [-1e3 + 2.0]])
        got = T.segment_softmax(x, T.segments([0, 0, 1, 1], 2)).data
        e = np.exp([0.0, -1.0])
        np.testing.assert_allclose(got[:2, 0], e / e.sum(), atol=1e-15)
        e = np.exp([-2.0, 0.0])
        np.testing.assert_allclose(got[2:, 0], e / e.sum(), atol=1e-15)

    def test_non_finite_input_raises(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = t([[0.0], [1.0]])
            x.data[1, 0] = bad
            with pytest.raises(NumericError):
                T.segment_softmax(x, T.segments([0, 0], 1))

    def test_index_contract(self):
        with pytest.raises(DimensionError):
            T.segment_softmax(t([[0.0], [1.0]]), T.segments([0], 1))
        with pytest.raises(ContractError):
            T.segment_softmax(t([[0.0], [1.0]]), T.segments([0, 1], 1))

    def test_gradient_against_fd(self, rng):
        params = {"x": t(rng.normal(size=(6, 2)), rg=True)}
        w = t(rng.normal(size=(6, 2)))
        index = np.array([1, 0, 1, 1, 3, 0])
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.segment_softmax(p["x"], T.segments(index, 4)), w)),
            params, label="segment_softmax")


# Segment sizes for the plan oracle: 0 to 30 rows, empty segments among
# them, so the slots narrow unevenly. The hub kinds give one segment 400
# rows among segments of 0 to 3; the last three kinds put every row in one
# segment, one hub among empty segments, and empty segments between
# segments of one size.
ORACLE_DEGREES = [3, 0, 30, 1, 16, 0, 2, 9, 28, 4, 7, 0, 5]
HUB_DEGREES = [1, 3, 0, 400, 2, 1, 0, 3]
SHAPED_DEGREES = {"one-segment": [37], "hub-among-empty": [0, 0, 0, 60, 0, 0],
                  "empty-between-full": [6, 0, 0, 6, 0, 6, 6, 0]}
ORACLE_KINDS = ["degrees-0-30", "zero-rows", "width-1", "rank-3", "signed-zeros",
                "hub", "width-1-hub", *SHAPED_DEGREES]


def oracle_case(kind, rng):
    """(index, num_segments, rows, total) for the plan oracle: a shuffled
    index, one row per entry, and a per-segment starting total that holds
    zeros of both signs."""
    degrees = ([0] * 4 if kind == "zero-rows"
               else HUB_DEGREES if kind.endswith("hub")
               else SHAPED_DEGREES.get(kind, ORACLE_DEGREES))
    index = rng.permutation(np.repeat(np.arange(len(degrees)), degrees))
    row_shape = {"width-1": (1,), "width-1-hub": (1,), "rank-3": (2, 3)}.get(kind, (3,))

    def values(n):
        # magnitudes 1e-4..1e4, so a change of summation order shows in
        # the low bits
        shape = (n, *row_shape)
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
        share = 0.6 if kind == "signed-zeros" else 0.2
        return np.where(rng.random(shape) < share, rng.choice([0.0, -0.0], size=shape), v)

    return index, len(degrees), values(index.size), values(len(degrees))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


class TestSegmentPlan:
    """Every sum over a plan has ``np.add.at``'s bits."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_slot_is_each_rows_place_in_its_segment(self, kind, rng):
        index, n, _, _ = oracle_case(kind, rng)
        plan = T.segments(index, n)
        want = np.zeros(index.size, dtype=np.intp)
        for s in range(n):
            rows = np.flatnonzero(index == s)
            want[rows] = np.arange(rows.size)
        np.testing.assert_array_equal(plan.slot, want)
        # slot-major: slot j is the j-th stretch of widths[j] rows
        np.testing.assert_array_equal(plan.slot[plan.row_order],
                                      np.repeat(np.arange(len(plan.widths)), plan.widths))

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_scatter_is_add_at(self, kind, rng):
        index, n, rows, _ = oracle_case(kind, rng)
        want = np.zeros((n, *rows.shape[1:]))
        np.add.at(want, index, rows)
        assert_same_bits(T.scatter_sum_rows(t(rows), T.segments(index, n)).data, want)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_gather_backward_onto_leaf_grad_is_add_at(self, kind, rng):
        index, n, rows, total = oracle_case(kind, rng)
        x = t(rng.normal(size=total.shape), rg=True)
        x.grad[...] = total
        backward(T.reduce_sum(T.mul(T.gather_rows(x, T.segments(index, n)), t(rows))))
        want = total.copy()
        np.add.at(want, index, rows)
        assert_same_bits(x.grad, want)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_gather_backward_onto_pending_total_is_add_at(self, kind, rng):
        # the dense consumer of z is taped after the gather, so backward
        # reaches it first and the gathered rows add onto its total
        index, n, rows, total = oracle_case(kind, rng)
        x = t(rng.normal(size=total.shape), rg=True)
        x.grad.fill(-0.0)  # -0.0 + v is v, so the leaf shows z's total as is
        z = T.reshape(x, total.shape)
        gathered = T.reduce_sum(T.mul(T.gather_rows(z, T.segments(index, n)), t(rows)))
        backward(T.add(gathered, T.reduce_sum(T.mul(z, t(total)))))
        want = total.copy()
        np.add.at(want, index, rows)
        assert_same_bits(x.grad, want)

    @pytest.mark.parametrize("kind", [k for k in ORACLE_KINDS if k != "rank-3"])
    def test_segment_softmax_is_the_add_at_formula(self, kind, rng):
        index, n, x, _ = oracle_case(kind, rng)
        g = rng.normal(size=x.shape)
        peak = np.full((n, x.shape[1]), -np.inf)
        np.maximum.at(peak, index, x)
        e = np.exp(x - peak[index])
        total = np.zeros((n, x.shape[1]))
        np.add.at(total, index, e)
        y = e / total[index]
        s = np.zeros((n, x.shape[1]))
        np.add.at(s, index, g * y)
        xt = t(x, rg=True)
        got = T.segment_softmax(xt, T.segments(index, n))
        backward(T.reduce_sum(T.mul(got, t(g))))
        assert_same_bits(got.data, y)
        assert_same_bits(xt.grad, 0.0 + y * (g - s[index]))

    def test_plan_lays_rows_out_slot_major(self, rng):
        # counts 1, 1, 3, 0: segment 2 first, then 0 and 1 in their order
        seg = T.segments([2, 0, 2, 1, 2], 4)
        assert seg.order.tolist() == [2, 0, 1, 3]
        assert seg.back.tolist() == [1, 2, 0, 3]
        assert seg.widths == (3, 1, 1)
        assert seg.row_order.tolist() == [0, 1, 3, 2, 4]
        # equal counts keep segment order
        assert T.segments([0, 1, 2, 3, 1, 3, 0, 2, 1, 3], 4).order.tolist() == [1, 3, 0, 2]
        empty = T.segments([], 3)
        assert empty.widths == () and empty.row_order.shape == (0,)
        # ties among 64 segments; more than 256 segments need 16-bit sort keys
        many = rng.permutation(np.repeat(np.arange(64), rng.integers(0, 3, size=64)))
        wide = rng.integers(0, 300, size=900)
        for index, n in ([oracle_case(kind, rng)[:2] for kind in ORACLE_KINDS]
                         + [(many, 64), (wide, 300)]):
            seg = T.segments(index, n)
            counts = np.bincount(index, minlength=n)
            # Python's sort is stable
            assert seg.order.tolist() == sorted(range(n), key=lambda s: -counts[s])
            assert np.array_equal(seg.back[seg.order], np.arange(n))
            assert list(seg.widths) == sorted(seg.widths, reverse=True)
            starts = np.cumsum((0,) + seg.widths)
            for j, width in enumerate(seg.widths):
                # slot j: the j-th row of each of the first widths[j] segments
                want = [np.flatnonzero(index == s)[j] for s in seg.order[:width]]
                assert seg.row_order[starts[j]:starts[j + 1]].tolist() == want
            assert starts[-1] == index.size
        for arr in (seg.index, seg.row_order, seg.order, seg.back):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_cells_are_each_rows_block_cell(self, kind, rng):
        index, n, _, _ = oracle_case(kind, rng)
        plan = T.segments(index, n)
        want = plan.index * len(plan.widths) + plan.slot
        assert plan.cells.dtype == want.dtype and plan.cells.tolist() == want.tolist()
        # made once, and read-only like the plan's other arrays
        assert plan.cells is plan.cells
        assert not plan.cells.flags.writeable

    def test_cells_refuse_writes(self):
        cells = T.segments([1, 0, 1], 2).cells
        assert cells.tolist() == [2, 0, 3]
        with pytest.raises(ValueError):
            cells[0] = 1

    def test_plan_checks_its_index(self):
        with pytest.raises(DimensionError):
            T.segments([[0, 1]], 2)
        for index in ([0, 2], [-1, 0]):
            with pytest.raises(ContractError):
                T.segments(index, 2)
        x = t(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            T.gather_rows(x, T.segments([0, 1], 2))
        with pytest.raises(DimensionError):
            T.scatter_sum_rows(x, T.segments([0, 1], 2))

    @pytest.mark.parametrize("index", [[0.5, 1.7], np.array([0.0, 1.0]), [True, False]],
                             ids=["float", "whole_floats", "bool"])
    def test_plan_refuses_an_index_that_is_not_integer(self, index):
        # 0.5 would truncate to segment 0, True pass as segment 1
        with pytest.raises(ContractError, match="must hold integers"):
            T.segments(index, 2)

    def test_plan_admits_an_empty_index_of_any_dtype(self):
        # a graph of 0 or 1 node has np.array([]) edges, float64
        plan = T.segments(np.array([]), 3)
        assert plan.index.dtype == np.intp and plan.widths == ()


def test_no_ufunc_at_in_the_package():
    # every sum by index goes through a plan (tensor._segment_sum); an
    # unbuffered ufunc.at would re-read its index on every call and might
    # sum in another order
    src = pathlib.Path(T.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "at"]
    assert not calls, f"ufunc .at calls in the package: {calls}"
