"""Optimized backward fast paths: fused linear, gather, getitem, concat.

These are the hot-path kernels — they carry in-place accumulation, basic- vs
advanced-index scatter dispatch, and grad-adoption (``own=True``) semantics,
so they get targeted coverage on top of the generic op gradchecks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, ops, set_hooks
from repro.tensor.gradcheck import check_fastpath_suite, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def t(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestFusedLinear:
    def test_matches_matmul_add(self, rng):
        x, w, b = t(rng, (5, 3, 4)), t(rng, (4, 6)), t(rng, (6,))
        fused = ops.linear(x, w, b)
        composite = ops.matmul(
            Tensor(x.data, requires_grad=True), Tensor(w.data, requires_grad=True)
        ) + Tensor(b.data, requires_grad=True)
        np.testing.assert_allclose(fused.data, composite.data)

    def test_gradients_batched(self, rng):
        check_gradients(ops.linear, [t(rng, (2, 3, 4)), t(rng, (4, 5)), t(rng, (5,))])

    def test_gradients_no_bias(self, rng):
        check_gradients(ops.linear, [t(rng, (3, 4)), t(rng, (4, 5))])

    def test_rejects_non_2d_weight(self, rng):
        with pytest.raises(ValueError):
            ops.linear(t(rng, (3, 4)), t(rng, (2, 4, 5)))

    def test_shared_weight_grad_sums_over_batch(self, rng):
        # dW must reduce over ALL batch dims, matching the per-sample sum.
        x, w = t(rng, (3, 2, 4)), t(rng, (4, 5))
        ops.linear(x, w).sum().backward()
        expected = sum(
            x.data[i, j][:, None] * np.ones(5)[None, :]
            for i in range(3)
            for j in range(2)
        )
        np.testing.assert_allclose(w.grad, expected)


class TestGather:
    def test_forward_matches_take_along_axis(self, rng):
        x = t(rng, (4, 6))
        idx = np.array([[0, 5, 2], [1, 1, 3], [2, 0, 0], [5, 4, 4]])
        out = ops.gather(x, 1, idx)
        np.testing.assert_allclose(out.data, np.take_along_axis(x.data, idx, axis=1))

    def test_gradients_unique_and_duplicate_lanes(self, rng):
        check_gradients(lambda x: ops.gather(x, 1, np.array([[0], [2], [1]])), [t(rng, (3, 4))])
        check_gradients(
            lambda x: ops.gather(x, 1, np.array([[0, 0, 3], [2, 2, 2], [1, 0, 1]])),
            [t(rng, (3, 4))],
        )

    def test_duplicate_lane_grads_accumulate(self, rng):
        x = t(rng, (2, 3))
        idx = np.array([[1, 1, 1], [0, 0, 2]])
        ops.gather(x, 1, idx).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 3.0, 0.0], [2.0, 0.0, 1.0]])

    def test_rejects_float_index(self, rng):
        with pytest.raises((TypeError, ValueError)):
            ops.gather(t(rng, (3, 4)), 1, np.zeros((3, 2)))

    def test_rejects_rank_mismatch(self, rng):
        with pytest.raises(ValueError):
            ops.gather(t(rng, (3, 4)), 1, np.zeros(3, dtype=np.int64))


class TestGetitemFastPaths:
    @pytest.mark.parametrize(
        "index",
        [
            1,
            slice(0, 2),
            slice(None, None, -2),
            (Ellipsis, slice(1, 3)),
            (slice(None), 1, slice(None, None, -1)),
            (None, slice(None)),
        ],
        ids=["int", "slice", "neg-step", "ellipsis", "mixed-tuple", "newaxis"],
    )
    def test_basic_index_gradients(self, rng, index):
        check_gradients(lambda x: x[index], [t(rng, (4, 3, 4))])

    def test_duplicate_fancy_index_accumulates(self, rng):
        x = t(rng, (4, 3))
        x[np.array([0, 2, 2, 0])].sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3])

    def test_identity_index_passes_grad_through(self, rng):
        x = t(rng, (3, 4))
        x[:].sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_zero_upstream_grad_short_circuits_to_zeros(self, rng):
        x = t(rng, (3, 4))
        (x[np.array([0, 0, 1])] * 0.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros((3, 4)))

    def test_overlapping_slices_accumulate_in_one_buffer(self, rng):
        x = t(rng, (6, 2))
        (x[0:4].sum() + x[2:6].sum()).backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [1, 1], [2, 2], [2, 2], [1, 1], [1, 1]])


class TestConcatBackward:
    def test_non_zero_axis_routes_slices(self, rng):
        a, b, c = t(rng, (2, 2, 3)), t(rng, (2, 3, 3)), t(rng, (2, 1, 3))
        out = ops.concat([a, b, c], axis=1)
        (out * Tensor(np.arange(out.data.size).reshape(out.data.shape))).sum().backward()
        weights = np.arange(out.data.size).reshape(out.data.shape)
        np.testing.assert_allclose(a.grad, weights[:, 0:2])
        np.testing.assert_allclose(b.grad, weights[:, 2:5])
        np.testing.assert_allclose(c.grad, weights[:, 5:6])

    def test_negative_axis_gradients(self, rng):
        check_gradients(lambda x, y: ops.concat([x, y], axis=-1), [t(rng, (2, 3)), t(rng, (2, 2))])


class TestInPlaceAccumulation:
    def test_grad_buffer_is_reused_across_accumulations(self, rng):
        x = t(rng, (3, 4))
        (x * 2.0).sum().backward()
        first = x.grad
        (x * 3.0).sum().backward()
        assert x.grad is first  # accumulated in place, not reallocated
        np.testing.assert_allclose(first, np.full((3, 4), 5.0))

    def test_alloc_hook_counts_buffers(self, rng):
        events = []
        restore = set_hooks(grad_alloc=lambda nbytes: events.append(nbytes))
        try:
            x = t(rng, (8, 8))
            (x[0:4].sum() + ops.tanh(x).sum()).backward()
        finally:
            set_hooks(**restore)
        assert events, "engine-side grad allocations should fire the hook"
        assert all(n > 0 for n in events)

    def test_hook_restore_returns_previous(self):
        sentinel = lambda n: None  # noqa: E731
        assert set_hooks(grad_alloc=sentinel) == {"grad_alloc": None}
        assert set_hooks(grad_alloc=None) == {"grad_alloc": sentinel}


class TestFastpathSuite:
    def test_suite_runs_all_cases(self):
        assert check_fastpath_suite() == 13
