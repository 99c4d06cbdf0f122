"""Property-based sharding fuzzer: round-trips and the all-reduce identity.

Companion to ``test_tensor_fuzz.py``, aimed at the sharding layer instead
of the op registry.  Each case draws a random batch geometry from a seeded
generator — ragged sensor counts not divisible by the shard count, K=1,
K > N, NaN-masked targets — and asserts two properties the sharded
execution path (:class:`repro.exec.ShardedExecutor`) is built on:

* **Bit-exact reassembly** — ``unshard_sensors(shard_sensors(...))``
  reproduces the original arrays exactly, and so does a batch written
  back to back into a flat arena and viewed again (the layout the pool's
  shared arena uses; ``equal_nan=True`` for masked targets: NaN positions
  ride along untouched), and the shard layout matches
  :func:`sensor_shard_ranges`.
* **Gradient equality** — recombining per-shard losses/gradients with the
  finite-target-count all-reduce (:func:`repro.optim.all_reduce_gradients`)
  reproduces the serial loss and every serial gradient to 1e-12, on both
  SimST encoders, with and without NaN-masked targets.  This is the
  in-process statement of the exactness contract the multiprocess
  executor relies on (DESIGN.md §15).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimSTForecaster
from repro.core.loss import STWALoss
from repro.optim import all_reduce_gradients
from repro.parallel import (
    sensor_shard_ranges,
    shard_sensors,
    unshard_sensors,
)
from repro.parallel.engine import _arena_views
from repro.tensor import Tensor

ROUND_TRIP_CASES = 60
GRAD_ATOL = 1e-12


def _draw_batch(rng: np.random.Generator):
    """One random (x, y, n_shards) geometry, NaN-masked y half the time."""
    batch = int(rng.integers(1, 6))
    sensors = int(rng.integers(1, 18))
    history = int(rng.integers(1, 7))
    horizon = int(rng.integers(1, 7))
    features = int(rng.integers(1, 4))
    n_shards = int(rng.integers(1, sensors + 5))  # includes K=1 and K > N
    x = rng.standard_normal((batch, sensors, history, features))
    y = rng.standard_normal((batch, sensors, horizon, features))
    if rng.random() < 0.5:
        mask = rng.random(y.shape) < rng.uniform(0.05, 0.5)
        y = np.where(mask, np.nan, y)
    return x, y, n_shards


# --------------------------------------------------------------------- #
# round-trips: shard -> unshard is the identity, bit for bit
# --------------------------------------------------------------------- #
class TestRoundTrips:
    @pytest.mark.parametrize("case", range(ROUND_TRIP_CASES))
    def test_sensor_round_trip(self, case):
        rng = np.random.default_rng(1000 + case)
        x, y, n_shards = _draw_batch(rng)
        pieces = shard_sensors(x, y, n_shards)
        ranges = sensor_shard_ranges(x.shape[1], n_shards)
        assert len(pieces) == len(ranges) == min(n_shards, x.shape[1])
        for (xs, ys), (start, stop) in zip(pieces, ranges):
            assert xs.shape[1] == ys.shape[1] == stop - start
        assert np.array_equal(unshard_sensors([xs for xs, _ in pieces]), x)
        assert np.array_equal(
            unshard_sensors([ys for _, ys in pieces]), y, equal_nan=True
        )

    @pytest.mark.parametrize("case", range(ROUND_TRIP_CASES))
    def test_batch_round_trip(self, case):
        """A batch laid out back to back in an arena reads back exactly."""
        rng = np.random.default_rng(2000 + case)
        x, y, _ = _draw_batch(rng)
        spare = int(rng.integers(0, 9))  # an arena larger than the batch
        arena = np.full(x.size + y.size + spare, -1.0)
        for array, view in zip((x, y), _arena_views(arena, [x.shape, y.shape])):
            view[...] = array
        x_view, y_view = _arena_views(arena, [x.shape, y.shape])
        assert np.shares_memory(x_view, arena) and np.shares_memory(y_view, arena)
        assert np.array_equal(x_view, x)
        assert np.array_equal(y_view, y, equal_nan=True)
        assert np.all(arena[x.size + y.size :] == -1.0)  # nothing written past it

    @pytest.mark.parametrize("case", range(ROUND_TRIP_CASES))
    def test_range_partition(self, case):
        """Ranges tile [0, N) contiguously with sizes differing by <= 1."""
        rng = np.random.default_rng(3000 + case)
        num_sensors = int(rng.integers(1, 40))
        n_shards = int(rng.integers(1, 50))
        ranges = sensor_shard_ranges(num_sensors, n_shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == num_sensors
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # remainder goes first

    def test_invalid_inputs_raise(self):
        x = np.zeros((2, 4, 3, 1))
        y = np.zeros((2, 4, 3, 1))
        with pytest.raises(ValueError, match="zero sensors"):
            sensor_shard_ranges(0, 2)
        with pytest.raises(ValueError, match="at least one shard"):
            sensor_shard_ranges(4, 0)
        with pytest.raises(ValueError, match=r"\(B, N"):
            shard_sensors(np.zeros(4), np.zeros(4), 2)
        with pytest.raises(ValueError, match="sensor count"):
            shard_sensors(x, y[:, :3], 2)
        with pytest.raises(ValueError, match="nothing to unshard"):
            unshard_sensors([])


# --------------------------------------------------------------------- #
# the all-reduce identity: sensor shards recombine to the serial step
# --------------------------------------------------------------------- #
def _tiny_simst(num_sensors: int, seed: int, encoder: str) -> SimSTForecaster:
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_sensors, num_sensors))
    return SimSTForecaster(
        num_sensors,
        adjacency,
        history=4,
        horizon=3,
        hidden=8,
        embedding_dim=4,
        predictor_hidden=8,
        num_neighbors=3,
        encoder=encoder,
        seed=seed,
    )


def _masked_targets(rng: np.random.Generator, shape) -> np.ndarray:
    """NaN-masked targets where every sensor keeps >= 1 finite element."""
    y = rng.standard_normal(shape)
    mask = rng.random(y.shape) < 0.3
    mask[0, :, 0] = False  # no shard can end up with zero finite targets
    return np.where(mask, np.nan, y)


def _loss_and_grads(model, loss_fn, x, y):
    for parameter in model.parameters():
        parameter.zero_grad()
    loss = loss_fn(model(Tensor(x)), Tensor(y))
    loss.backward()
    grads = [
        None if p.grad is None else p.grad.copy() for p in model.parameters()
    ]
    return float(loss.item()), grads


class TestGradientEquality:
    @pytest.mark.parametrize("encoder", ["mlp", "gru"])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "nan-masked"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 9])
    def test_sensor_shards_reduce_to_serial(self, encoder, masked, n_shards):
        num_sensors, batch = 7, 3
        rng = np.random.default_rng(n_shards * 10 + (1 if masked else 0))
        model = _tiny_simst(num_sensors, seed=5, encoder=encoder)
        loss_fn = STWALoss(delta=1.0, kl_weight=0.0)
        x = rng.standard_normal((batch, num_sensors, model.history, 1))
        y_shape = (batch, num_sensors, model.horizon, 1)
        y = _masked_targets(rng, y_shape) if masked else rng.standard_normal(y_shape)

        serial_loss, serial_grads = _loss_and_grads(model, loss_fn, x, y)

        augmented = model.augment(x)
        shard_losses, shard_grads, weights = [], [], []
        for start, stop in sensor_shard_ranges(num_sensors, n_shards):
            model.set_sensor_shard(start, stop)
            loss, grads = _loss_and_grads(
                model, loss_fn, augmented[:, start:stop], y[:, start:stop]
            )
            model.clear_sensor_shard()
            shard_losses.append(loss)
            shard_grads.append(grads)
            weights.append(float(np.isfinite(y[:, start:stop]).sum()))

        total = all_reduce_gradients(model.parameters(), shard_grads, weights)
        combined_loss = float(np.dot(shard_losses, weights) / total)
        assert combined_loss == pytest.approx(serial_loss, abs=GRAD_ATOL)
        for serial, parameter in zip(serial_grads, model.parameters()):
            assert (serial is None) == (parameter.grad is None)
            if serial is not None:
                np.testing.assert_allclose(
                    parameter.grad, serial, rtol=0.0, atol=GRAD_ATOL
                )

    def test_embedding_rows_touched_by_exactly_one_shard(self):
        """Each shard's embedding gradient is zero outside its own rows."""
        num_sensors = 6
        rng = np.random.default_rng(99)
        model = _tiny_simst(num_sensors, seed=3, encoder="mlp")
        loss_fn = STWALoss(delta=1.0, kl_weight=0.0)
        x = rng.standard_normal((2, num_sensors, model.history, 1))
        y = rng.standard_normal((2, num_sensors, model.horizon, 1))
        augmented = model.augment(x)
        embedding_index = model.parameters().index(model.node_embedding)
        for start, stop in sensor_shard_ranges(num_sensors, 3):
            model.set_sensor_shard(start, stop)
            _, grads = _loss_and_grads(
                model, loss_fn, augmented[:, start:stop], y[:, start:stop]
            )
            model.clear_sensor_shard()
            grad = grads[embedding_index]
            assert grad.shape == model.node_embedding.shape
            outside = np.delete(grad, np.arange(start, stop), axis=0)
            assert np.all(outside == 0.0)
            assert np.any(grad[start:stop] != 0.0)
