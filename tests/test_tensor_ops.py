"""Gradient and shape checks for every primitive op in repro.tensor.ops."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.tensor import Tensor, ops
from repro.tensor.gradcheck import check_gradients


def t(shape, rng, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op",
        [ops.add, ops.sub, ops.mul],
        ids=["add", "sub", "mul"],
    )
    def test_binary_same_shape(self, op, rng):
        a, b = t((3, 4), rng), t((3, 4), rng)
        check_gradients(op, [a, b])

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((3, 4), (4,)), ((3, 4), (1, 4)), ((2, 3, 4), (3, 4)), ((5, 1), (1, 6)), ((3, 4), ())],
    )
    def test_broadcasting_gradients(self, shape_a, shape_b, rng):
        a, b = t(shape_a, rng), t(shape_b, rng)
        check_gradients(ops.add, [a, b])
        check_gradients(ops.mul, [a, b])

    def test_div(self, rng):
        a = t((3, 4), rng)
        b = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        check_gradients(ops.div, [a, b])

    def test_neg(self, rng):
        check_gradients(ops.neg, [t((3, 4), rng)])

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 0.5])
    def test_power(self, exponent, rng):
        a = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        check_gradients(lambda x: ops.power(x, exponent), [a])

    def test_exp_log_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        check_gradients(ops.exp, [a])
        check_gradients(ops.log, [a])
        check_gradients(ops.sqrt, [a])

    def test_abs(self, rng):
        a = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
        check_gradients(ops.abs, [a])

    def test_maximum_minimum(self, rng):
        a, b = t((3, 4), rng), t((3, 4), rng)
        check_gradients(ops.maximum, [a, b])
        check_gradients(ops.minimum, [a, b])

    def test_clip(self, rng):
        a = t((4, 5), rng, scale=2.0)
        check_gradients(lambda x: ops.clip(x, -1.0, 1.0), [a])

    def test_where(self, rng):
        a, b = t((3, 4), rng), t((3, 4), rng)
        cond = rng.random((3, 4)) > 0.5
        check_gradients(lambda x, y: ops.where(cond, x, y), [a, b])


class TestActivations:
    @pytest.mark.parametrize(
        "op",
        [ops.tanh, ops.sigmoid, ops.relu, ops.softplus],
        ids=["tanh", "sigmoid", "relu", "softplus"],
    )
    def test_gradients(self, op, rng):
        a = Tensor(rng.standard_normal((3, 4)) + 0.1, requires_grad=True)
        check_gradients(op, [a])

    def test_leaky_relu(self, rng):
        a = Tensor(rng.standard_normal((3, 4)) + 0.1, requires_grad=True)
        check_gradients(lambda x: ops.leaky_relu(x, 0.1), [a])

    def test_relu_special_values(self):
        x = np.array([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan])
        a = Tensor(x, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-value warning on -inf
            out = ops.relu(a)
        np.testing.assert_array_equal(
            out.numpy(), [0.0, 0.0, 0.0, 0.0, 2.0, np.inf, np.nan]
        )
        assert not np.signbit(out.numpy()[:4]).any()  # +0.0, never -0.0
        out.backward(np.full(x.shape, 3.0))
        # the subgradient stays (x > 0): zero at 0, -0.0, -inf and NaN
        np.testing.assert_array_equal(a.grad, [0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 0.0])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        out = ops.sigmoid(a).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softplus_extreme_values_stable(self):
        out = ops.softplus(Tensor(np.array([-1000.0, 1000.0]))).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], 1000.0)


class TestMatmul:
    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [
            ((3, 4), (4, 5)),
            ((2, 3, 4), (4, 5)),
            ((2, 3, 4), (2, 4, 5)),
            ((2, 6, 3, 4), (4, 5)),
            ((6, 3, 4), (1, 4, 5)),
            ((4,), (4, 5)),
            ((3, 4), (4,)),
            ((2, 3, 4), (4,)),
        ],
    )
    def test_gradients(self, shape_a, shape_b, rng):
        a, b = t(shape_a, rng), t(shape_b, rng)
        check_gradients(ops.matmul, [a, b])

    def test_matches_numpy(self, rng):
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))
        out = ops.matmul(Tensor(a), Tensor(b)).numpy()
        np.testing.assert_allclose(out, a @ b)


class TestShapeOps:
    def test_reshape(self, rng):
        a = t((2, 3, 4), rng)
        check_gradients(lambda x: ops.reshape(x, (6, 4)), [a])
        assert ops.reshape(a, (4, 6)).shape == (4, 6)

    def test_transpose_default_and_axes(self, rng):
        a = t((2, 3, 4), rng)
        check_gradients(lambda x: ops.transpose(x), [a])
        check_gradients(lambda x: ops.transpose(x, (1, 2, 0)), [a])
        # negative axes: the inverse permutation is taken after normalising.
        # A non-uniform weight makes a wrongly permuted gradient visible
        # (a plain sum has an all-ones upstream gradient).
        weight = np.arange(24.0).reshape(2, 4, 3)
        check_gradients(lambda x: ops.transpose(x, (0, -1, -2)) * weight, [a])
        check_gradients(lambda x: x.transpose(0, -1, 1) * weight, [a])

    def test_swapaxes(self, rng):
        a = t((2, 3, 4), rng)
        check_gradients(lambda x: ops.swapaxes(x, 1, 2), [a])

    @pytest.mark.parametrize(
        "index",
        [0, slice(1, 3), (slice(None), 1), (slice(None), slice(None), slice(0, 2)), np.array([0, 2, 2])],
        ids=["int", "slice", "tuple-int", "tuple-slice", "fancy-repeated"],
    )
    def test_getitem(self, index, rng):
        a = t((4, 3, 2), rng)
        check_gradients(lambda x: ops.getitem(x, index), [a])

    def test_getitem_repeated_index_accumulates(self, rng):
        a = t((4,), rng)
        out = ops.getitem(a, np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 3.0, 0.0, 0.0])

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_concat(self, axis, rng):
        a, b = t((2, 3, 4), rng), t((2, 3, 4), rng)
        check_gradients(lambda x, y: ops.concat([x, y], axis=axis), [a, b])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_stack(self, axis, rng):
        a, b, c = t((2, 3), rng), t((2, 3), rng), t((2, 3), rng)
        check_gradients(lambda x, y, z: ops.stack([x, y, z], axis=axis), [a, b, c])

    def test_pad(self, rng):
        a = t((2, 3), rng)
        check_gradients(lambda x: ops.pad(x, [(1, 0), (0, 2)]), [a])

    def test_broadcast_to(self, rng):
        a = t((1, 3), rng)
        check_gradients(lambda x: ops.broadcast_to(x, (4, 3)), [a])


class TestReductions:
    @pytest.mark.parametrize("axis", [None, 0, 1, -1, (0, 1)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_mean(self, axis, keepdims, rng):
        a = t((3, 4, 2), rng)
        check_gradients(lambda x: ops.sum(x, axis=axis, keepdims=keepdims), [a])
        check_gradients(lambda x: ops.mean(x, axis=axis, keepdims=keepdims), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max_min(self, axis, rng):
        # well-separated values avoid finite-difference ties
        a = Tensor(rng.permutation(24).reshape(4, 6).astype(float), requires_grad=True)
        check_gradients(lambda x: ops.max(x, axis=axis), [a])
        check_gradients(lambda x: ops.min(x, axis=axis), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        ops.max(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_var_matches_numpy(self, rng):
        data = rng.standard_normal((5, 6))
        out = ops.var(Tensor(data), axis=1).numpy()
        np.testing.assert_allclose(out, data.var(axis=1))

    def test_var_gradients(self, rng):
        a = t((3, 5), rng)
        check_gradients(lambda x: ops.var(x, axis=1), [a])


class TestSoftmax:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_gradients(self, axis, rng):
        a = t((3, 4), rng)
        check_gradients(lambda x: ops.softmax(x, axis=axis), [a])
        check_gradients(lambda x: ops.log_softmax(x, axis=axis), [a])

    def test_rows_sum_to_one(self, rng):
        out = ops.softmax(Tensor(rng.standard_normal((5, 7)) * 10), axis=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5))

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 4))
        a = ops.softmax(Tensor(logits), axis=-1).numpy()
        b = ops.softmax(Tensor(logits + 100.0), axis=-1).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_consistent_with_softmax(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(
            ops.log_softmax(logits, axis=-1).numpy(),
            np.log(ops.softmax(logits, axis=-1).numpy()),
            atol=1e-12,
        )

    def test_extreme_logits_stable(self):
        out = ops.softmax(Tensor(np.array([[1000.0, -1000.0]])), axis=-1).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)
