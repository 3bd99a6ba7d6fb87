"""Autodiff core: forward values, gradients vs finite differences, contracts."""

import json

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
        # the formula that split its input by sign with boolean masks
        def masked(xd):
            y = np.empty_like(xd)
            pos = xd >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
            ex = np.exp(xd[~pos])
            y[~pos] = ex / (1.0 + ex)
            return y

        rng = np.random.default_rng(5)
        for scale in (0.1, 1.0, 10.0, 100.0, 800.0):
            xd = np.concatenate([rng.normal(scale=scale, size=(400, 24)).ravel(),
                                 [0.0, -0.0, 750.0, -750.0]])
            got = T.sigmoid(t(xd)).data
            assert got.tobytes() == masked(xd).tobytes()

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
        g = T.gather_rows(x, [2, 0, 2])
        assert g.data.tolist() == [[3.0, 3.0], [1.0, 1.0], [3.0, 3.0]]
        s = T.scatter_sum_rows(g, [0, 0, 1], num_rows=2)
        assert s.data.tolist() == [[4.0, 4.0], [3.0, 3.0]]

    def test_scatter_leaves_untouched_rows_zero(self):
        s = T.scatter_sum_rows(t([[5.0]]), [2], num_rows=4)
        assert s.data.tolist() == [[0.0], [0.0], [5.0], [0.0]]

    def test_gather_and_scatter_rows_of_any_rank(self, rng):
        x = rng.normal(size=(3, 2, 4))
        g = T.gather_rows(t(x), [2, 0, 2])
        np.testing.assert_array_equal(g.data, x[[2, 0, 2]])
        s = T.scatter_sum_rows(g, [0, 0, 1], num_rows=2)
        assert s.data.shape == (2, 2, 4)
        np.testing.assert_array_equal(s.data, [x[2] + x[0], x[2]])

    def test_tower_matmul_is_each_towers_matmul(self, rng):
        # bit for bit: tower t's product is the 2-D matmul of its slices
        x = rng.normal(size=(7, 3, 5))
        w = rng.normal(size=(3, 5, 4))
        out = T.tower_matmul(t(x), t(w)).data
        assert out.shape == (7, 3, 4)
        for k in range(3):
            assert out[:, k].tobytes() == T.matmul(t(x[:, k]), t(w[k])).data.tobytes()

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((7, 3, 5), (2, 5, 4)),  # towers disagree
        ((7, 3, 5), (3, 4, 4)),  # inner dimensions disagree
        ((7, 15), (3, 5, 4)),    # rows without a tower axis
    ], ids=["towers", "inner", "rank"])
    def test_tower_matmul_shape_mismatch(self, x_shape, w_shape):
        with pytest.raises(DimensionError):
            T.tower_matmul(t(np.ones(x_shape)), t(np.ones(w_shape)))

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

    def test_add_bias_equals_add_of_tiled_bias(self, rng):
        # one bias row added to every row: the bytes of
        # add(x, repeat_rows(b)) forward, and the same gradients backward
        x, b = t(rng.normal(size=(5, 3)), rg=True), t(rng.normal(size=(3,)), rg=True)
        g = rng.normal(size=(5, 3))
        got = T.add_bias(x, b)
        backward(T.reduce_sum(T.mul(got, t(g))))
        got_grads = x.grad.copy(), b.grad.copy()
        x.zero_grad(), b.zero_grad()
        want = T.add(x, T.repeat_rows(b, 5))
        backward(T.reduce_sum(T.mul(want, t(g))))
        assert got.data.tobytes() == want.data.tobytes()
        assert got_grads[0].tobytes() == x.grad.tobytes()
        assert got_grads[1].tobytes() == b.grad.tobytes()

    def test_add_bias_needs_a_row_of_the_width(self):
        with pytest.raises(DimensionError):
            T.add_bias(t(np.ones((2, 3))), t(np.ones(2)))
        with pytest.raises(DimensionError):
            T.add_bias(t(np.ones((2, 3))), t(np.ones((1, 3))))

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (4,)),
        ((5, 2, 3), (2, 3, 4), (2, 4)),
    ], ids=["2d", "towers"])
    def test_affine_bits_equal_matmul_then_add_bias(self, rng, x_shape, w_shape, b_shape):
        x, w, b = (t(rng.normal(size=s), rg=True) for s in (x_shape, w_shape, b_shape))
        g = t(rng.normal(size=x_shape[:-1] + w_shape[-1:]))
        got = T.affine(x, w, b)
        backward(T.reduce_sum(T.mul(got, g)))
        got_grads = [p.grad.copy() for p in (x, w, b)]
        for p in (x, w, b):
            p.zero_grad()
        mm = T.tower_matmul if len(w_shape) == 3 else T.matmul
        want = T.add_bias(mm(x, w), b)
        backward(T.reduce_sum(T.mul(want, g)))
        assert got.data.tobytes() == want.data.tobytes()
        for grad, p in zip(got_grads, (x, w, b)):
            assert grad.tobytes() == p.grad.tobytes()

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (4,)),
        ((5, 2, 3), (2, 3, 4), (2, 4)),
    ], ids=["2d", "towers"])
    def test_affine_is_one_tape_entry(self, x_shape, w_shape, b_shape):
        x, w, b = (t(np.ones(s), rg=True) for s in (x_shape, w_shape, b_shape))
        out = T.affine(x, w, b)
        assert [(o, parents) for o, parents, _ in T.active_tape()] == [(out, (x, w, b))]

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (3,)),      # bias of the input's width
        ((5, 3), (3, 4), (1, 4)),    # bias with a row axis
        ((5, 2, 3), (2, 3, 4), (4,)),  # one bias for every tower
    ])
    def test_affine_needs_a_bias_of_the_row_shape(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            T.affine(*(t(np.ones(s)) for s in (x_shape, w_shape, b_shape)))

    def test_nan_raises_numeric_error(self):
        big = t([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.matmul(big, t([[1e308]]))

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            t([1.0, 2.0]).item()


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
        loss = T.reduce_sum(T.mul(T.sub(h, const), T.gather_rows(h, [2, 0, 2])))
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
        s1 = T.reduce_sum(T.mul(T.gather_rows(x, i1), t(p1)))
        s2 = T.reduce_sum(T.mul(T.gather_rows(x, i2), t(p2)))
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

    def test_tower_matmul(self, rng):
        params = {
            "x": t(rng.normal(size=(5, 3, 4)), rg=True),
            "w": t(rng.normal(size=(3, 4, 2)), rg=True),
        }
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.tower_matmul(p["x"], p["w"]))),
            params, label="tower_matmul")

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

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4, 3), (3, 2), (2,)),
        ((4, 2, 3), (2, 3, 2), (2, 2)),
    ], ids=["2d", "towers"])
    def test_affine(self, rng, x_shape, w_shape, b_shape):
        # small enough that tanh stays off its flat tails, where the
        # central difference of a small entry misses the relative tolerance
        params = {"x": t(rng.normal(size=x_shape) * 0.5, rg=True),
                  "w": t(rng.normal(size=w_shape) * 0.5, rg=True),
                  "b": t(rng.normal(size=b_shape) * 0.5, rg=True)}
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.affine(p["x"], p["w"], p["b"]))),
            params, label="affine")

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

    def test_add_bias_over_towers(self, rng):
        params = {"x": t(rng.normal(size=(4, 2, 3)), rg=True),
                  "b": t(rng.normal(size=(2, 3)), rg=True)}
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.add_bias(p["x"], p["b"]))),
            params, label="add_bias_towers")

    def test_add_bias(self, rng):
        params = {"x": t(rng.normal(size=(4, 3)), rg=True),
                  "b": t(rng.normal(size=(3,)), rg=True)}
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.tanh(T.add_bias(p["x"], p["b"]))),
            params, label="add_bias")

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
            g = T.gather_rows(p["x"], [1, 1, 3, 0])
            r = T.repeat_rows(p["row"], 4)
            s = T.scatter_sum_rows(T.mul(g, r), [0, 1, 1, 2], num_rows=3)
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
            T.tower_matmul(t(np.ones((7, 3, 5))), t(np.ones((3, 5, 4))))
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
            T.gather_rows(x, [0, 1])
            T.scatter_sum_rows(x, [0, 1, 0, 1], num_rows=2)
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
        got = T.segment_softmax(t(x), index, 3).data
        for s in range(3):
            rows = np.flatnonzero(index == s)
            want = T.softmax(t(x[rows]), axis=0).data
            np.testing.assert_allclose(got[rows], want, rtol=0, atol=1e-15)

    def test_one_row_segment_is_one(self, rng):
        got = T.segment_softmax(t(rng.normal(size=(3, 1))), [0, 1, 1], 2).data
        assert got[0, 0] == 1.0

    def test_empty_segment_is_skipped(self, rng):
        x = rng.normal(size=(4, 1))
        got = T.segment_softmax(t(x), [0, 0, 2, 2], 4).data
        np.testing.assert_allclose(
            got, T.segment_softmax(t(x), [0, 0, 1, 1], 2).data, rtol=0, atol=0)
        assert T.segment_softmax(t(np.zeros((0, 1))), [], 3).data.shape == (0, 1)

    def test_large_logits_do_not_overflow(self):
        x = t([[1e3], [1e3 - 1.0], [-1e3], [-1e3 + 2.0]])
        got = T.segment_softmax(x, [0, 0, 1, 1], 2).data
        e = np.exp([0.0, -1.0])
        np.testing.assert_allclose(got[:2, 0], e / e.sum(), atol=1e-15)
        e = np.exp([-2.0, 0.0])
        np.testing.assert_allclose(got[2:, 0], e / e.sum(), atol=1e-15)

    def test_non_finite_input_raises(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = t([[0.0], [1.0]])
            x.data[1, 0] = bad
            with pytest.raises(NumericError):
                T.segment_softmax(x, [0, 0], 1)

    def test_index_contract(self):
        with pytest.raises(DimensionError):
            T.segment_softmax(t([[0.0], [1.0]]), [0], 1)
        with pytest.raises(ContractError):
            T.segment_softmax(t([[0.0], [1.0]]), [0, 1], 1)

    def test_gradient_against_fd(self, rng):
        params = {"x": t(rng.normal(size=(6, 2)), rg=True)}
        w = t(rng.normal(size=(6, 2)))
        index = np.array([1, 0, 1, 1, 3, 0])
        check_grad_against_fd(
            lambda p: T.reduce_sum(T.mul(T.segment_softmax(p["x"], index, 4), w)),
            params, label="segment_softmax")
