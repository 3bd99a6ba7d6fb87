"""Autodiff core: forward values, gradients vs finite differences, contracts."""

import ast
import json
import pathlib

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

from conftest import check_grad_against_fd, finite_difference_grad, assert_grads_close


def t(data, rg=False):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=rg)


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
        mats = rng.normal(size=(3, 2, 6))
        vecs = rng.normal(size=(3, 2, 3))
        pair, side = [0, 1, 0], [1, 0, 0]
        out = T.pair_matvec(t(mats), t(vecs), pair, side).data
        for i in range(3):
            for k in range(2):
                np.testing.assert_allclose(
                    out[i, k], mats[pair[i], k].reshape(2, 3) @ vecs[i, k])

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
        # three 2x3 matrices; pair 1 has one vector, pair 2 none
        mats = rng.normal(size=(3, 6))
        vecs = rng.normal(size=(3, 3))
        pair, side = [0, 1, 0], [1, 0, 0]
        out = T.pair_matvec(t(mats), t(vecs), pair, side).data
        for i in range(3):
            np.testing.assert_allclose(out[i], mats[pair[i]].reshape(2, 3) @ vecs[i])

    @pytest.mark.parametrize("pair, side, error", [
        ([0, 0], [1, 1], ContractError),  # two rows in one slot
        ([0, 2], [0, 1], ContractError),  # no pair 2
        ([0, 1], [0, 2], ContractError),  # a pair has two sides
        ([0], [0], DimensionError),       # one pair per vector row
    ])
    def test_pair_matvec_refuses_bad_slots(self, pair, side, error):
        with pytest.raises(error):
            T.pair_matvec(t(np.ones((2, 4))), t(np.ones((2, 2))), pair, side)

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


# Three pair_matvec calls on one (3 pairs, 2 towers, 2x3) matrix stack, as
# the T steps of an edge network use one channel's matrices; pair 2 is
# one-way in the first call, and the last call has no vector rows.
SHARED_CALLS = [([0, 1, 2, 0], [0, 0, 1, 1]),
                ([2, 1, 0, 2, 1], [0, 1, 1, 1, 0]),
                ([], [])]


def _shared_mats_loss(mats, vecs, dense_at, per_call, dense):
    """One scalar from three ``pair_matvec`` calls on ``mats`` (each output
    through ``per_call``) and, unless ``dense_at`` is None, one dense
    consumer of ``mats`` (``dense``) taped "first" or "last". Backward meets
    the dense gradient after the calls' factors if it is taped first, and
    before them if it is taped last."""
    terms = [T.reduce_sum(dense(mats))] if dense_at == "first" else []
    terms += [T.reduce_sum(per_call(j, T.pair_matvec(mats, v, pair, side)))
              for j, ((pair, side), v) in enumerate(zip(SHARED_CALLS, vecs))]
    if dense_at == "last":
        terms.append(T.reduce_sum(dense(mats)))
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


class TestFactoredMatrixGradient:
    """pair_matvec hands back its matrices' gradient as factors, which
    backward sums over every call sharing the matrices in one matmul."""

    @pytest.mark.parametrize("dense_at", [None, "first", "last"],
                             ids=["no_dense", "dense_first", "dense_last"])
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_equals_sum_of_per_call_products(self, rng, leaf, dense_at):
        shape = (3, 2, 6)
        m = t(rng.normal(size=shape), rg=True)
        vecs = [t(rng.normal(size=(len(pair), 2, 3))) for pair, _ in SHARED_CALLS]
        probes = [rng.normal(size=(len(pair), 2, 2)) for pair, _ in SHARED_CALLS]
        dense_probe = rng.normal(size=shape)
        mats = m if leaf else T.reshape(m, shape)
        backward(_shared_mats_loss(mats, vecs, dense_at,
                                   lambda j, y: T.mul(y, t(probes[j])),
                                   lambda x: T.mul(x, t(dense_probe))))
        want = np.zeros(shape) if dense_at is None else dense_probe.copy()
        for (pair, side), v, probe in zip(SHARED_CALLS, vecs, probes):
            gy, x = np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 3, 2))
            gy[pair, ..., side] = probe
            x[pair, ..., side] = v.data
            want += (gy @ x.swapaxes(-1, -2)).reshape(shape)
        assert np.abs(m.grad - want).max() <= 1e-15 * np.abs(want).max()
        assert len(T.active_tape()) == 0

    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_no_pairs(self, leaf):
        m = t(np.zeros((0, 2, 6)), rg=True)
        v = t(np.zeros((0, 2, 3)), rg=True)
        mats = m if leaf else T.reshape(m, (0, 2, 6))
        loss = T.reduce_sum(T.pair_matvec(mats, v, [], []))
        for _ in range(2):
            loss = T.add(loss, T.reduce_sum(T.pair_matvec(mats, v, [], [])))
        backward(T.add(loss, T.reduce_sum(T.tanh(mats))))
        assert m.grad.shape == (0, 2, 6) and v.grad.shape == (0, 2, 3)


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

    @pytest.mark.parametrize("pair, side", [
        ([0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1]),  # both sides of every pair
        ([2, 0, 1, 0], [1, 0, 0, 1]),              # pairs 1 and 2 one-way
    ], ids=["full_pairs", "one_way"])
    def test_pair_matvec(self, rng, pair, side):
        params = {
            "m": t(rng.normal(size=(3, 12)), rg=True),
            "v": t(rng.normal(size=(len(pair), 4)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.pair_matvec(p["m"], p["v"], pair, side))),
            params, label="pair_matvec")

    def test_pair_matvec_over_towers(self, rng):
        pair, side = [2, 0, 1, 0], [1, 0, 0, 1]
        params = {
            # scaled like the GRU weights: at unit scale the central
            # difference of one small entry misses the relative tolerance
            "m": t(rng.normal(size=(3, 2, 12)) * 0.5, rg=True),
            "v": t(rng.normal(size=(len(pair), 2, 4)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.pair_matvec(p["m"], p["v"], pair, side))),
            params, label="pair_matvec_towers")

    @pytest.mark.parametrize("dense_at", [None, "first", "last"],
                             ids=["no_dense", "dense_first", "dense_last"])
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    def test_pair_matvec_shared_matrices(self, rng, leaf, dense_at):
        # the factored gradient of one matrix stack under three calls and
        # one dense consumer
        params = {"m": t(rng.normal(size=(3, 2, 6)) * 0.5, rg=True)}
        params.update({f"v{j}": t(rng.normal(size=(len(pair), 2, 3)), rg=True)
                       for j, (pair, _) in enumerate(SHARED_CALLS)})
        check_grad_against_fd(
            lambda p: _shared_mats_loss(
                p["m"] if leaf else T.reshape(p["m"], (3, 2, 6)),
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
    """The matmul message composed from taped primitives, a gather, a
    ``matmul`` and a scatter per label joined by ``add``: the bitwise oracle
    of the one-op ``T.matmul_message``, forward and backward."""
    total = None if weights else Tensor(np.zeros(h.data.shape))
    for a, far_label, near_label in zip(weights, far, near):
        part = T.scatter_sum_rows(T.matmul(T.gather_rows(h, far_label), a), near_label)
        total = part if total is None else T.add(total, part)
    return total


MESSAGE_CASES = ["leaf", "intermediate", "h_read_later", "one_label", "missing_label",
                 "no_edges"]


def message_case(rng, case, n, n_edges, k, q, alphabet=3):
    """(h, weights, edge groups) for the fused-message oracle: random edges
    over n nodes with a hub (node 0 receives a third of them), labels drawn
    from the alphabet, and one (k, q, q) weight per label of the alphabet.
    The groups hold, per label present, its index into the weights and its
    far and near plans, as ``engine._senders`` builds them."""
    n_edges = 0 if case == "no_edges" else n_edges
    src, dst = rng.integers(0, n, size=(2, n_edges))
    dst[: n_edges // 3] = 0
    labels = {"one_label": np.ones(n_edges, dtype=int),
              "missing_label": rng.choice([0, 2], size=n_edges)
              }.get(case, rng.integers(0, alphabet, size=n_edges))
    groups = [(int(label), T.segments(src[labels == label], n),
               T.segments(dst[labels == label], n)) for label in np.unique(labels)]
    h = rng.normal(size=(n, k, q))
    weights = [rng.normal(size=(k, q, q)) / np.sqrt(q) for _ in range(alphabet)]
    return h, weights, groups


def run_message(fused, case, h_data, w_data, groups, probe, later):
    """Forward and backward through either message; returns the value and
    the gradients of h and of every weight of the alphabet."""
    h_leaf = t(h_data, rg=True)
    ws = [t(w, rg=True) for w in w_data]
    h = h_leaf if case == "leaf" else T.reshape(h_leaf, h_data.shape)
    used = [ws[label] for label, _, _ in groups]
    far = [f for _, f, _ in groups]
    near = [nr for _, _, nr in groups]
    if fused:
        out = T.matmul_message(h, used, far, near,
                               [f.index[nr.row_order] for f, nr in zip(far, near)])
    else:
        out = composed_matmul_message(h, used, far, near)
    loss = T.reduce_sum(T.mul(out, t(probe)))
    if case in ("h_read_later", "no_edges"):
        # h's pending total holds this contribution before the message's
        # arrive, one label at a time
        loss = T.add(loss, T.reduce_sum(T.mul(T.tanh(h), t(later))))
    backward(loss)
    return [out.data, h_leaf.grad] + [w.grad for w in ws]


class TestMatmulMessage:
    @pytest.mark.parametrize("q", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case", MESSAGE_CASES)
    def test_bits_equal_composed_message(self, rng, case, k, q):
        h, ws, groups = message_case(rng, case, n=9, n_edges=40, k=k, q=q)
        probe, later = rng.normal(size=h.shape), rng.normal(size=h.shape)
        got = run_message(True, case, h, ws, groups, probe, later)
        want = run_message(False, case, h, ws, groups, probe, later)
        for name, a, b in zip(["out", "h", "A0", "A1", "A2"], got, want):
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist(), name

    def test_agrees_with_composed_message_at_tower_width_25(self, rng):
        # at this width BLAS may give a row other bits at another place in
        # the block, so the products in slot order need not match the
        # composed ones bit for bit (the paper's d=200, k=8)
        h, ws, groups = message_case(rng, "leaf", n=29, n_edges=800, k=8, q=25)
        probe, later = rng.normal(size=h.shape), rng.normal(size=h.shape)
        got = run_message(True, "leaf", h, ws, groups, probe, later)
        want = run_message(False, "leaf", h, ws, groups, probe, later)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()

    def test_one_tape_entry_counting_the_composed_multiplies(self, rng):
        h_data, ws, groups = message_case(rng, "leaf", n=9, n_edges=40, k=3, q=4)
        h = t(h_data, rg=True)
        used = [t(ws[label], rg=True) for label, _, _ in groups]
        far = [f for _, f, _ in groups]
        near = [nr for _, _, nr in groups]
        sources = [f.index[nr.row_order] for f, nr in zip(far, near)]
        with count_multiplies(MultiplyCounter()) as fused:
            out = T.matmul_message(h, used, far, near, sources)
        assert [entry[0] for entry in T.active_tape()] == [out]
        with count_multiplies(MultiplyCounter()) as composed:
            composed_matmul_message(h, used, far, near)
        labels = len(groups)
        assert len(T.active_tape()) == 1 + 3 * labels + labels - 1
        assert fused.total == composed.total == 40 * 3 * 4 * 4
        T.active_tape().clear()
        # no edges: zeros of h's shape, and nothing to tape
        out = T.matmul_message(h, [], [], [], [])
        assert out.data.tobytes() == np.zeros(h.shape).tobytes()
        assert not T.active_tape()

    def test_overflowing_label_raises(self, rng):
        h_data, ws, groups = message_case(rng, "leaf", n=9, n_edges=40, k=2, q=3)
        far = [f for _, f, _ in groups]
        near = [nr for _, _, nr in groups]
        sources = [f.index[nr.row_order] for f, nr in zip(far, near)]
        for huge in range(len(groups)):
            used = [t(np.full((2, 3, 3), 1e308) if i == huge else ws[label])
                    for i, (label, _, _) in enumerate(groups)]
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
                T.matmul_message(t(np.full(h_data.shape, 2.0)), used, far, near, sources)

    def test_shape_validation(self, rng):
        h_data, ws, groups = message_case(rng, "one_label", n=9, n_edges=40, k=2, q=3)
        (_, f, nr), = groups
        src = [f.index[nr.row_order]]
        with pytest.raises(DimensionError):
            T.matmul_message(t(h_data[:, 0]), [t(ws[1])], [f], [nr], src)
        with pytest.raises(DimensionError):
            T.matmul_message(t(h_data), [t(ws[1][:, :2])], [f], [nr], src)
        with pytest.raises(DimensionError):
            T.matmul_message(t(h_data[:5]), [t(ws[1])], [f], [nr], src)
        with pytest.raises(DimensionError):
            T.matmul_message(t(h_data), [t(ws[1])], [f], [nr], [src[0][:-1]])
        with pytest.raises(DimensionError):
            T.matmul_message(t(h_data), [t(ws[1])], [f], [], src)


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
        # five vector rows over three pairs: only the rows' products count,
        # not the empty slot's zero column
        with count_multiplies(MultiplyCounter()) as c:
            T.pair_matvec(t(np.ones((3, 6))), t(np.ones((5, 3))),
                          [0, 0, 1, 1, 2], [0, 1, 0, 1, 1])
        assert c.total == 5 * 2 * 3

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

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # the target is a directory, so the final replace fails
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            T.save_params({"w": t([1.0])}, str(target))
        assert not list(tmp_path.glob("*.tmp.*"))
        assert target.is_dir() and not list(target.iterdir())


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
