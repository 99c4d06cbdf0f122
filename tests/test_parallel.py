"""Sensor-sharded worker pool (repro.parallel).

The headline tier-1 gate lives in :class:`TestTrainerEquivalence`:
``Trainer`` on ``ExecutorSpec.sharded(n_workers=2)`` must reproduce the
serial loss trajectory of a SimST model within 1e-12 relative tolerance
over several epochs.  The remaining classes unit-test the pieces that make
that hold — deterministic tree reduction, the weight codec, blocked shard
steps, the shared arena that carries weights and batches, the caller's own
shard, the planner's shard prediction, and worker failure translation.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import SimSTForecaster
from repro.core.loss import STWALoss
from repro.data import WindowSpec
from repro.data.windows import SlidingWindowDataset
from repro.nn.module import Parameter
from repro.optim import all_reduce_gradients, tree_reduce
from repro.parallel import (
    ParallelConfig,
    WorkerError,
    WorkerPool,
    default_start_method,
    sensor_shard_ranges,
)
from repro.parallel.engine import BLOCK_ROWS, sensor_blocks
from repro.exec import ExecutorSpec, SerialExecutor, ShardedExecutor
from repro.tensor import Tensor
from repro.training import Trainer, TrainerConfig, dumps_state_dict, loads_state_dict

SPEC = WindowSpec(12, 12)
TRAJECTORY_RTOL = 1e-12


def small_simst(tiny_dataset, seed: int = 0) -> SimSTForecaster:
    """A tiny SimST over the dataset's road network: exact sharded math."""
    return SimSTForecaster(
        tiny_dataset.num_sensors,
        tiny_dataset.adjacency,
        history=SPEC.history,
        horizon=SPEC.horizon,
        hidden=8,
        embedding_dim=4,
        predictor_hidden=16,
        num_neighbors=3,
        seed=seed,
    )


def sharded_trainer(tiny_dataset, n_workers: int = 0, **overrides):
    config = dict(
        epochs=3,
        batch_size=16,
        max_batches_per_epoch=4,
        eval_batches=2,
        lr=6e-3,
        seed=0,
        patience=10_000,
    )
    start_method = overrides.pop("start_method", None)
    if n_workers >= 2:
        config["executor"] = ExecutorSpec.sharded(
            n_workers=n_workers, start_method=start_method
        )
    config.update(overrides)
    return Trainer(small_simst(tiny_dataset), tiny_dataset, SPEC, TrainerConfig(**config))


# --------------------------------------------------------------------- #
# reduction
# --------------------------------------------------------------------- #
class TestTreeReduce:
    def test_matches_sum(self, rng):
        values = [rng.normal(size=(3, 2)) for _ in range(7)]
        np.testing.assert_allclose(tree_reduce(values, np.add), np.sum(values, axis=0))

    def test_pairwise_order_is_deterministic(self):
        trace = tree_reduce(list("abcde"), lambda left, right: f"({left}+{right})")
        assert trace == "(((a+b)+(c+d))+e)"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([], lambda a, b: a)


class TestAllReduceGradients:
    def test_weighted_mean_written_to_grad(self):
        parameter = Parameter(np.zeros(3))
        g0, g1 = np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0])
        total = all_reduce_gradients([parameter], [[g0], [g1]], [3.0, 1.0])
        assert total == 4.0
        np.testing.assert_allclose(parameter.grad, 0.75 * g0 + 0.25 * g1)

    def test_replaces_rather_than_accumulates(self):
        parameter = Parameter(np.zeros(2))
        parameter.grad = np.array([100.0, 100.0])
        all_reduce_gradients([parameter], [[np.ones(2)], [np.ones(2)]], [1.0, 1.0])
        np.testing.assert_allclose(parameter.grad, np.ones(2))

    def test_missing_shard_grads_keep_total_weighting(self):
        # a parameter untouched on one shard contributes only its present
        # shards, still scaled by the *total* weight (the absent gradient is
        # exactly zero, not renormalized away)
        parameter = Parameter(np.zeros(2))
        g0 = np.array([4.0, 8.0])
        all_reduce_gradients([parameter], [[g0], [None]], [1.0, 3.0])
        np.testing.assert_allclose(parameter.grad, 0.25 * g0)

    def test_all_missing_gives_none(self):
        parameter = Parameter(np.zeros(2))
        parameter.grad = np.ones(2)
        all_reduce_gradients([parameter], [[None], [None]], [1.0, 1.0])
        assert parameter.grad is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="weights"):
            all_reduce_gradients([], [[], []], [1.0])

    def test_nonpositive_weights_raise(self):
        with pytest.raises(ValueError, match="positive"):
            all_reduce_gradients([], [[], []], [0.0, 0.0])


# --------------------------------------------------------------------- #
# weight wire codec
# --------------------------------------------------------------------- #
class TestWeightCodec:
    def test_round_trip_preserves_arrays(self, tiny_dataset):
        model = small_simst(tiny_dataset)
        state = model.state_dict()
        restored = loads_state_dict(dumps_state_dict(state))
        assert set(restored) == set(state)
        for key, value in state.items():
            np.testing.assert_array_equal(restored[key], value)
            assert restored[key].dtype == np.asarray(value).dtype

    def test_corrupt_blob_raises(self):
        from repro.training.checkpoint import CheckpointError

        with pytest.raises(CheckpointError):
            loads_state_dict(b"not an npz archive")


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #
class TestWorkerPool:
    def make_batch(self, tiny_dataset, size: int = 8):
        windows = SlidingWindowDataset(tiny_dataset.train, SPEC)
        x, y = windows.sample(np.arange(size))
        return x, y  # y already scaled (data==raw here): fine for loss math

    def make_pool(self, model, **config):
        return WorkerPool(
            model,
            ParallelConfig(**config),
            sensor_ranges=sensor_shard_ranges(model.num_sensors, 2),
            huber_delta=1.0,
            kl_weight=0.0,
        )

    def test_step_matches_serial_loss(self, tiny_dataset):
        model = small_simst(tiny_dataset)
        x, y = self.make_batch(tiny_dataset)
        parameters = model.parameters()

        def check(results):
            assert [r.worker_id for r in results] == [0, 1]
            assert all(np.isfinite(r.loss) for r in results)
            # shard weights are the finite target element counts
            assert sum(r.weight for r in results) == float(np.isfinite(y).sum())
            total = sum(r.weight for r in results)
            combined = sum(r.weight * r.loss for r in results) / total
            model.train()
            # weighted shard mean == full-batch loss on the current weights
            loss = STWALoss(delta=1.0, kl_weight=0.0)(model(Tensor(x)), Tensor(y))
            np.testing.assert_allclose(combined, float(loss.item()), rtol=1e-12)
            # gradients align with the parameter list and carry data
            for result in results:
                assert len(result.grads) == len(parameters)
                assert any(g is not None and np.any(g != 0) for g in result.grads)
            return combined

        with self.make_pool(model) as pool:
            first = check(pool.sensor_step(x, y))
            # change the caller's weights in place, with no reload: the
            # arena must carry them to the worker's shard too
            for parameter in parameters:
                parameter.data *= 1.5
            second = check(pool.sensor_step(x, y))
        assert second != first

    def test_floating_point_error_translated(self, tiny_dataset):
        model = small_simst(tiny_dataset)
        x, y = self.make_batch(tiny_dataset, size=4)
        x = x.copy()
        x[:, -1] = np.nan  # the anomaly screen trips inside the child's shard
        with self.make_pool(model, detect_anomaly=True) as pool:
            with pytest.raises(FloatingPointError, match="worker 1:"):
                pool.sensor_step(x, y)
            # pipes stayed in sync: the pool still serves clean steps (this
            # is what lets RecoveryPolicy roll back and retry)
            x_ok, y_ok = self.make_batch(tiny_dataset, size=4)
            results = pool.sensor_step(x_ok, y_ok)
            assert all(np.isfinite(r.loss) for r in results)

    def test_worker_refuses_a_weight_of_the_wrong_shape(self, tiny_dataset):
        from repro.parallel.engine import _Shard

        model = small_simst(tiny_dataset)
        shard = _Shard(model, (0, 2), huber_delta=1.0, kl_weight=0.0, screen=False)
        x, y = self.make_batch(tiny_dataset, size=2)
        parameters = model.parameters()
        before = [parameter.data.copy() for parameter in parameters]
        shapes = [parameter.data.shape for parameter in parameters]
        shapes[-1] = (shapes[-1][0] + 1,) + shapes[-1][1:]
        arena = np.ones(sum(int(np.prod(shape)) for shape in shapes) + x.size + y.size)
        reply = shard.reply(("step", True, *shapes, x.shape, y.shape), arena)
        assert reply[:2] == ("raise", "error")
        assert f"shape mismatch for parameter {len(shapes) - 1}" in reply[2]
        # refused before any parameter changed
        for value, parameter in zip(before, parameters):
            assert np.array_equal(value, parameter.data)

    def test_closed_pool_raises(self, tiny_dataset):
        model = small_simst(tiny_dataset)
        pool = self.make_pool(model)
        pool.close()
        pool.close()  # idempotent
        x, y = self.make_batch(tiny_dataset, size=2)
        with pytest.raises(WorkerError, match="closed"):
            pool.sensor_step(x, y)
        with pytest.raises(WorkerError, match="closed"):
            pool.sensor_predict(x)

    def test_config_rejects_single_worker(self, tiny_dataset):
        """A pool of one shard would only be a slower serial step."""
        model = small_simst(tiny_dataset)
        with pytest.raises(ValueError, match="at least 2 shards"):
            WorkerPool(
                model, ParallelConfig(), sensor_ranges=[(0, model.num_sensors)],
                huber_delta=1.0, kl_weight=0.0,
            )

    def test_default_start_method_is_valid(self):
        import multiprocessing

        assert default_start_method() in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------- #
# Trainer integration: the headline equivalence gate
# --------------------------------------------------------------------- #
class TestTrainerEquivalence:
    def test_two_workers_match_serial_trajectory(self, tiny_dataset):
        """Tier-1 gate: two sensor shards == serial within 1e-12 over 3 epochs."""
        serial = sharded_trainer(tiny_dataset, n_workers=0).fit()
        trainer = sharded_trainer(tiny_dataset, n_workers=2)
        assert trainer.executor.shard_axis == "sensor"
        sharded = trainer.fit()
        assert sharded.epochs_run == serial.epochs_run == 3
        np.testing.assert_allclose(sharded.train_loss, serial.train_loss, rtol=TRAJECTORY_RTOL)
        np.testing.assert_allclose(sharded.val_mae, serial.val_mae, rtol=TRAJECTORY_RTOL)

    def test_parallel_run_is_deterministic(self, tiny_dataset):
        a = sharded_trainer(tiny_dataset, n_workers=2).fit()
        b = sharded_trainer(tiny_dataset, n_workers=2).fit()
        np.testing.assert_array_equal(a.train_loss, b.train_loss)
        np.testing.assert_array_equal(a.val_mae, b.val_mae)

    def test_pool_closed_after_fit(self, tiny_dataset):
        trainer = sharded_trainer(tiny_dataset, n_workers=2, epochs=1, max_batches_per_epoch=2)
        trainer.fit()
        assert not trainer.executor.is_open
        assert trainer.executor._pool is None

    def test_checkpoint_resume_under_parallel(self, tiny_dataset, tmp_path):
        full = sharded_trainer(tiny_dataset, n_workers=2, epochs=3).fit()
        first = sharded_trainer(tiny_dataset, n_workers=2, epochs=2, checkpoint_dir=tmp_path)
        first.fit()
        from repro.training import latest_checkpoint

        resumed_trainer = sharded_trainer(
            tiny_dataset, n_workers=2, epochs=3, checkpoint_dir=tmp_path
        )
        resumed = resumed_trainer.fit(resume_from=latest_checkpoint(tmp_path))
        np.testing.assert_allclose(resumed.train_loss, full.train_loss, rtol=TRAJECTORY_RTOL)

    def test_parallel_sections_reach_profiler(self, tiny_dataset):
        from repro.obs import profile

        with profile() as profiler:
            sharded_trainer(tiny_dataset, n_workers=2, epochs=1, max_batches_per_epoch=2).fit()
        names = set(profiler.parallel)
        assert {"serialize", "augment", "reduce", "worker0", "worker1"} <= names

    @pytest.mark.slow
    def test_spawn_start_method_smoke(self, tiny_dataset):
        trainer = sharded_trainer(
            tiny_dataset,
            n_workers=2,
            epochs=1,
            max_batches_per_epoch=2,
            start_method="spawn",
        )
        history = trainer.fit()
        assert np.isfinite(history.train_loss[0])


# --------------------------------------------------------------------- #
# sensor blocks: a worker steps its shard block by block, exactly
# --------------------------------------------------------------------- #
class TestSensorBlocks:
    def test_blocks_tile_the_shard_contiguously(self):
        width = BLOCK_ROWS // 16
        blocks = sensor_blocks((100, 100 + 3 * width + 5), batch=16)
        assert len(blocks) == 4
        ranges = [sensor_range for _, sensor_range in blocks]
        assert ranges[0][0] == 100 and ranges[-1][1] == 100 + 3 * width + 5
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert [stop - start for start, stop in ranges] == [width] * 3 + [5]
        # the columns index the worker's local (B, stop - start) arrays
        assert [(c.start, c.stop) for c, _ in blocks] == [
            (start - 100, stop - 100) for start, stop in ranges
        ]

    def test_single_block_cases(self):
        # a slice smaller than one block
        assert sensor_blocks((3, 9), batch=16) == [(slice(0, 6), (3, 9))]
        # a batch wider than BLOCK_ROWS still steps one sensor at a time
        assert len(sensor_blocks((0, 3), batch=BLOCK_ROWS * 2)) == 3


BLOCK_BATCH = 16
BLOCK_WIDTH = BLOCK_ROWS // BLOCK_BATCH
#: two workers, each shard = three full blocks + a ragged 17-sensor block
BLOCK_SENSORS = 2 * (3 * BLOCK_WIDTH + 17)


def blocked_simst(seed: int = 3, encoder: str = "mlp") -> SimSTForecaster:
    adjacency = np.random.default_rng(seed).random((BLOCK_SENSORS, BLOCK_SENSORS))
    return SimSTForecaster(
        BLOCK_SENSORS,
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


@pytest.fixture(scope="module")
def blocked_pair():
    """A serial and a 2-worker sensor-sharded executor on equal weights."""
    serial = SerialExecutor(blocked_simst()).open()
    sharded = ShardedExecutor(blocked_simst(), n_workers=2).open()
    yield serial, sharded
    sharded.close()
    serial.close()


class TestBlockedShardWorkers:
    """Sharded SimST with >= 3 blocks per worker matches serial to 1e-12."""

    def draw(self, seed: int):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((BLOCK_BATCH, BLOCK_SENSORS, 4, 1))
        y = rng.standard_normal((BLOCK_BATCH, BLOCK_SENSORS, 3, 1))
        return x, y

    def assert_step_matches(self, blocked_pair, x, y):
        serial, sharded = blocked_pair
        expected = serial.train_step(None, (x, y))
        expected_grads = [None if g is None else g.copy() for g in expected.grads]
        result = sharded.train_step(None, (x, y))
        assert abs(result.loss - expected.loss) <= 1e-12
        for left, right in zip(expected_grads, result.grads):
            assert (left is None) == (right is None)
            if left is not None:
                np.testing.assert_allclose(right, left, rtol=0.0, atol=1e-12)
        return result

    def test_shards_split_into_ragged_blocks(self, blocked_pair):
        _, sharded = blocked_pair
        assert sharded.shard_axis == "sensor"
        for shard in sharded.shard_ranges:
            blocks = sensor_blocks(shard, BLOCK_BATCH)
            assert len(blocks) >= 3
            sizes = [stop - start for _, (start, stop) in blocks]
            assert sizes[-1] < sizes[0]

    def test_dense_targets_match_serial(self, blocked_pair):
        x, y = self.draw(0)
        result = self.assert_step_matches(blocked_pair, x, y)
        assert result.stats["augment"] >= 0.0
        assert {"serialize", "augment", "reduce", "worker0", "worker1"} <= set(result.stats)

    def test_all_nan_block_matches_serial(self, blocked_pair):
        x, y = self.draw(1)
        rng = np.random.default_rng(11)
        y = np.where(rng.random(y.shape) < 0.3, np.nan, y)
        y[:, BLOCK_WIDTH : 2 * BLOCK_WIDTH] = np.nan  # worker 0's second block
        self.assert_step_matches(blocked_pair, x, y)

    def test_all_nan_shard_has_zero_weight(self, blocked_pair):
        x, y = self.draw(2)
        _, sharded = blocked_pair
        start, stop = sharded.shard_ranges[1]
        y[:, start:stop] = np.nan
        result = self.assert_step_matches(blocked_pair, x, y)
        assert np.isfinite(result.loss)

    def test_non_finite_block_loss_raises(self, blocked_pair):
        x, y = self.draw(3)
        _, sharded = blocked_pair
        x[:, 2 * BLOCK_WIDTH + 1] = np.inf  # poisons one block's forward
        with pytest.raises(FloatingPointError):
            sharded.train_step(None, (x, y))
        # the pipes stayed in sync and the workers still step cleanly
        self.assert_step_matches(blocked_pair, *self.draw(4))

    def test_predict_after_train_step_matches_serial(self, blocked_pair):
        serial, sharded = blocked_pair
        x, y = self.draw(5)
        sharded.train_step(None, (x, y))
        np.testing.assert_allclose(
            sharded.predict(None, x), serial.predict(None, x), rtol=0.0, atol=1e-12
        )


def _child_pids() -> set:
    """Live processes whose parent is this test process."""
    import os

    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                text = handle.read()
        except OSError:
            continue  # exited while we looked
        fields = text[text.rindex(")") + 2 :].split()
        if int(fields[1]) == me and fields[0] != "Z":
            found.add(int(entry))
    return found


class _KilledInStep(SimSTForecaster):
    """Blocked SimST whose shard-1 worker dies of SIGKILL inside a step."""

    def forward(self, x):
        import os
        import signal

        shard = self.sensor_shard
        if self.training and shard is not None and shard[0] == BLOCK_SENSORS // 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().forward(x)


def _killed_in_step() -> _KilledInStep:
    return _KilledInStep(
        BLOCK_SENSORS, history=4, horizon=3, hidden=8, embedding_dim=4, predictor_hidden=8
    )


class TestHeapTrim:
    """A fork pool hands the parent's freed heap back before its workers start."""

    def test_fork_pool_trims_before_the_first_worker_starts(self, monkeypatch):
        import multiprocessing.process

        from repro.parallel import engine

        events = []
        monkeypatch.setattr(engine, "_trim_heap", lambda: events.append("trim") or True)
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            events.append("start")
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        sharded = ShardedExecutor(blocked_simst(), n_workers=3, start_method="fork").open()
        sharded.close()
        # three shards: the caller computes one, two workers start
        assert events == ["trim", "start", "start"]

    def test_trim_runs_on_glibc(self):
        import platform

        from repro.parallel.engine import _trim_heap

        if platform.libc_ver()[0] != "glibc":
            pytest.skip("malloc_trim is glibc's")
        assert _trim_heap() is True

    def test_missing_malloc_trim_is_a_no_op(self, monkeypatch):
        import ctypes

        from repro.parallel.engine import _trim_heap

        real_cdll = ctypes.CDLL

        def without_malloc_trim(name, *args, **kwargs):
            if name is None:
                return object()  # a C library with no malloc_trim
            return real_cdll(name, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", without_malloc_trim)
        assert _trim_heap() is False
        serial = SerialExecutor(blocked_simst()).open()
        sharded = ShardedExecutor(blocked_simst(), n_workers=2, start_method="fork").open()
        try:
            rng = np.random.default_rng(0)
            x = rng.standard_normal((16, BLOCK_SENSORS, 4, 1))
            y = rng.standard_normal((16, BLOCK_SENSORS, 3, 1))
            expected = serial.train_step(None, (x, y)).loss
            assert abs(sharded.train_step(None, (x, y)).loss - expected) <= 1e-12
        finally:
            sharded.close()
            serial.close()

        def unloadable(name, *args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        assert _trim_heap() is False


class TestSharedArena:
    """Sensor pools take the raw batch from one shared arena, not pickles."""

    def draw(self, batch: int, seed: int):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, BLOCK_SENSORS, 4, 1))
        y = rng.standard_normal((batch, BLOCK_SENSORS, 3, 1))
        return x, y

    def assert_step_matches(self, serial, sharded, x, y):
        expected = serial.train_step(None, (x, y))
        expected_grads = [None if g is None else g.copy() for g in expected.grads]
        result = sharded.train_step(None, (x, y))
        assert abs(result.loss - expected.loss) <= 1e-12
        for left, right in zip(expected_grads, result.grads):
            assert (left is None) == (right is None)
            if left is not None:
                np.testing.assert_allclose(right, left, rtol=0.0, atol=1e-12)

    def test_batch_sizes_reuse_and_regrow_the_arena(self):
        serial = SerialExecutor(blocked_simst()).open()
        sharded = ShardedExecutor(blocked_simst(), n_workers=2).open()
        try:
            pool = sharded._pool
            assert pool.arena_bytes == 0  # nothing mapped before a batch needs it
            sizes = []
            for seed, batch in enumerate((16, 5, 16, 24)):
                self.assert_step_matches(serial, sharded, *self.draw(batch, seed))
                sizes.append(pool.arena_bytes)
            needed = 8 * BLOCK_SENSORS * (4 + 3)
            assert sizes[0] >= 16 * needed
            assert sizes[0] == sizes[1] == sizes[2]  # 5 and 16 reuse the arena
            assert sizes[3] >= 24 * needed > sizes[2]  # 24 outgrew it
            x, _ = self.draw(5, 9)
            np.testing.assert_allclose(
                sharded.predict(None, x), serial.predict(None, x), rtol=0.0, atol=1e-12
            )
        finally:
            sharded.close()
            serial.close()

    def test_open_close_cycles_leak_no_descriptor_or_child(self):
        import os

        fds_before = len(os.listdir("/proc/self/fd"))
        children_before = _child_pids()
        workers = []
        x, y = self.draw(16, 0)
        for _ in range(3):
            sharded = ShardedExecutor(blocked_simst(), n_workers=2).open()
            workers += [process.pid for process in sharded._pool._workers]
            sharded.train_step(None, (x, y))
            sharded.predict(None, x)
            sharded.close()
        assert len(os.listdir("/proc/self/fd")) == fds_before
        assert _child_pids() <= children_before
        assert not set(workers) & _child_pids()

    def test_killed_worker_raises_worker_error(self):
        sharded = ShardedExecutor(_killed_in_step(), n_workers=2, start_method="fork").open()
        workers = {process.pid for process in sharded._pool._workers}
        x, y = self.draw(16, 0)
        with pytest.raises(WorkerError, match="worker 1"):
            sharded.train_step(None, (x, y))
        sharded.close()  # returns: the pool already stopped what was left
        assert not workers & _child_pids()

    @pytest.mark.slow
    def test_spawn_matches_serial(self):
        serial = SerialExecutor(blocked_simst()).open()
        sharded = ShardedExecutor(blocked_simst(), n_workers=2, start_method="spawn").open()
        try:
            assert sharded._pool.start_method == "spawn"
            self.assert_step_matches(serial, sharded, *self.draw(16, 0))
            self.assert_step_matches(serial, sharded, *self.draw(5, 1))
        finally:
            sharded.close()
            serial.close()


# --------------------------------------------------------------------- #
# the caller's shard: K shards, K-1 worker processes, the same results
# --------------------------------------------------------------------- #
def graph_free_simst(encoder: str = "mlp", seed: int = 3, cls=SimSTForecaster):
    """Blocked SimST with no adjacency: every sensor's only (zero-weight)
    neighbour is sensor 0, so a poisoned sensor other than 0 stays local."""
    return cls(
        BLOCK_SENSORS, history=4, horizon=3, hidden=8, embedding_dim=4,
        predictor_hidden=8, encoder=encoder, seed=seed,
    )


def reference_step(model, x, y, n_shards):
    """The shard fuzz's manual loop, blocked: each shard augments its rows
    and steps them in ``sensor_blocks``, then ``all_reduce_gradients``."""
    from repro.parallel import sensor_shard_ranges

    loss_fn = STWALoss(delta=1.0, kl_weight=0.0)
    parameters = model.parameters()
    losses, weights, shard_grads = [], [], []
    for start, stop in sensor_shard_ranges(model.num_sensors, n_shards):
        xs, ys = model.augment(x, sensors=(start, stop)), y[:, start:stop]
        finite = np.isfinite(ys)
        weight = float(finite.sum())
        for parameter in parameters:
            parameter.zero_grad()
        value = 0.0
        for columns, block in sensor_blocks((start, stop), len(x)):
            model.set_sensor_shard(*block)
            loss = loss_fn(model(Tensor(xs[:, columns])), Tensor(ys[:, columns]))
            share = float(finite[:, columns].sum()) / weight if weight else 0.0
            value += share * float(loss.item())
            if share:
                loss.backward(np.float64(share))
        model.clear_sensor_shard()
        losses.append(value)
        weights.append(weight)
        shard_grads.append([None if p.grad is None else p.grad.copy() for p in parameters])
    total = all_reduce_gradients(parameters, shard_grads, weights)
    loss = float(np.sum([w * l for w, l in zip(weights, losses)]) / total)
    return loss, [parameter.grad for parameter in parameters]


def reference_forecast(model, x, n_shards):
    from repro.parallel import sensor_shard_ranges
    from repro.tensor import inference_mode

    pieces = []
    model.eval()
    with inference_mode():
        for start, stop in sensor_shard_ranges(model.num_sensors, n_shards):
            xs = model.augment(x, sensors=(start, stop))
            for columns, block in sensor_blocks((start, stop), len(x)):
                model.set_sensor_shard(*block)
                pieces.append(model(Tensor(xs[:, columns])).data)
    model.clear_sensor_shard()
    model.train()
    return np.concatenate(pieces, axis=1)


class _Gated(SimSTForecaster):
    """SimST whose shard forward on a non-main thread waits for a signal."""

    entered = threading.Event()
    release = threading.Event()

    def forward(self, x):
        on_side_thread = threading.current_thread() is not threading.main_thread()
        if self.sensor_shard is not None and on_side_thread:
            _Gated.entered.set()
            _Gated.release.wait(30)
        return super().forward(x)


class _BlasProbe(SimSTForecaster):
    """SimST that records this process's OpenBLAS thread count per shard block."""

    counts: list = []

    def forward(self, x):
        from repro.parallel.engine import _openblas_controls

        if self.sensor_shard is not None:
            _BlasProbe.counts.append(_openblas_controls()[0][1]())
        return super().forward(x)


class TestLocalShard:
    """A K-shard sensor pool computes shard 0 in the caller, beside K-1 workers."""

    def draw(self, seed: int, masked: bool = False):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((BLOCK_BATCH, BLOCK_SENSORS, 4, 1))
        y = rng.standard_normal((BLOCK_BATCH, BLOCK_SENSORS, 3, 1))
        if masked:
            y = np.where(rng.random(y.shape) < 0.3, np.nan, y)
        return x, y

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_pool_starts_one_worker_fewer_than_shards(self, method, n_shards):
        from multiprocessing import resource_tracker

        before = _child_pids()
        sharded = ShardedExecutor(graph_free_simst(), n_workers=n_shards, start_method=method)
        with sharded:
            # spawn also starts multiprocessing's resource tracker once
            started = _child_pids() - before - {resource_tracker._resource_tracker._pid}
            assert len(sharded.shard_ranges) == n_shards
            assert started == {process.pid for process in sharded._pool._workers}
            assert len(started) == n_shards - 1
            result = sharded.train_step(None, self.draw(0))
            assert {f"worker{i}" for i in range(n_shards)} <= set(result.stats)
        assert not started & _child_pids()

    @pytest.mark.parametrize("encoder", ["mlp", "gru"])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "nan-masked"])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_step_and_forecast_equal_the_manual_reference(self, encoder, masked, n_shards):
        x, y = self.draw(n_shards, masked)
        reference = blocked_simst(encoder=encoder)
        expected_loss, expected_grads = reference_step(reference, x, y, n_shards)
        expected_forecast = reference_forecast(reference, x[:5], n_shards)

        with ShardedExecutor(blocked_simst(encoder=encoder), n_workers=n_shards) as sharded:
            result = sharded.train_step(None, (x, y))
            assert result.loss == expected_loss
            for left, right in zip(expected_grads, result.grads):
                assert (left is None) == (right is None)
                if left is not None:
                    assert np.array_equal(right, left)
            assert np.array_equal(sharded.predict(None, x[:5]), expected_forecast)

    @pytest.mark.parametrize("poisoned", [1, BLOCK_SENSORS - 1], ids=["local", "child"])
    def test_non_finite_shard_raises_and_the_pool_recovers(self, poisoned):
        x, y = self.draw(6)
        bad = x.copy()
        bad[:, poisoned] = np.inf
        reference = graph_free_simst()
        expected_loss, _ = reference_step(reference, x, y, 2)
        with ShardedExecutor(graph_free_simst(), n_workers=2) as sharded:
            with pytest.raises(FloatingPointError):
                sharded.train_step(None, (bad, y))
            assert sharded.model.sensor_shard is None
            assert sharded.train_step(None, (x, y)).loss == expected_loss

    @pytest.mark.parametrize("poisoned, worker", [(1, 0), (BLOCK_SENSORS - 1, 1)])
    def test_anomaly_screen_names_the_shard(self, poisoned, worker):
        x, y = self.draw(7)
        bad = x.copy()
        bad[:, poisoned] = np.nan
        with ShardedExecutor(graph_free_simst(), n_workers=2, detect_anomaly=True) as sharded:
            with pytest.raises(FloatingPointError, match=f"worker {worker}:"):
                sharded.train_step(None, (bad, y))
            assert np.isfinite(sharded.train_step(None, (x, y)).loss)

    def test_profiler_records_no_shard_ops(self):
        from repro.obs import profile

        x, y = self.draw(8)
        with ShardedExecutor(graph_free_simst(), n_workers=2) as sharded:
            sharded.train_step(None, (x, y))  # the first step grows the arena
            with profile(sharded.model) as profiler:
                sharded.train_step(None, (x, y))
                sharded.predict(None, x[:2])
        assert profiler.ops == {}
        assert profiler.spans == {}
        assert profiler.grad_allocs == 0
        assert {"serialize", "reduce", "worker0", "worker1"} <= set(profiler.parallel)

    def test_concurrent_full_forward_sees_no_shard(self):
        from repro.exec.base import eval_forward

        x, _ = self.draw(9)
        model = graph_free_simst(cls=_Gated)
        expected = eval_forward(graph_free_simst(), x[:2])
        _Gated.entered.clear()
        _Gated.release.clear()
        with ShardedExecutor(model, n_workers=2) as sharded:
            forecasts = []
            thread = threading.Thread(target=lambda: forecasts.append(sharded.predict(None, x[:2])))
            thread.start()
            try:
                assert _Gated.entered.wait(30)
                assert model.sensor_shard is None
                assert np.array_equal(eval_forward(model, x[:2]), expected)
            finally:
                _Gated.release.set()
                thread.join(30)
        assert np.array_equal(forecasts[0], expected)

    def test_threads_forward_beside_sharded_forecasts(self):
        """Stress: full-network forwards on three threads while a fourth
        forecasts through the pool, with a short switch interval."""
        import sys

        from repro.exec.base import eval_forward

        x, _ = self.draw(11)
        model = graph_free_simst()
        expected = eval_forward(graph_free_simst(), x[:2])
        wrong = []

        def forecasts(sharded):
            for _ in range(10):
                if not np.array_equal(sharded.predict(None, x[:2]), expected):
                    wrong.append("sharded")

        def forwards():
            for _ in range(10):
                if model.sensor_shard is not None:
                    wrong.append("shard visible")
                if not np.array_equal(eval_forward(model, x[:2]), expected):
                    wrong.append("full")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedExecutor(model, n_workers=2) as sharded:
                threads = [threading.Thread(target=forecasts, args=(sharded,))]
                threads += [threading.Thread(target=forwards) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_overlapping_caller_caps_restore_once_the_last_leaves(self, monkeypatch):
        from repro.parallel import engine

        count = [4]
        controls = [(lambda n: count.__setitem__(0, n), lambda: count[0])]
        monkeypatch.setattr(engine, "_openblas_controls", lambda: controls)
        cap = engine._CallerBlasCap()
        first, second = cap(1), cap(2)
        first.__enter__()
        second.__enter__()
        assert count == [1]  # the first cap holds
        first.__exit__(None, None, None)
        assert count == [1]  # still held by the second
        second.__exit__(None, None, None)
        assert count == [4]

    def test_caller_blas_threads_capped_then_restored(self):
        from repro.parallel.engine import _openblas_controls, available_cores

        controls = _openblas_controls()
        if not controls:
            pytest.skip("NumPy is not linked against OpenBLAS here")
        setter, getter = controls[0]
        share = max(1, available_cores() // 2)
        before = getter()
        setter(share + 1)
        _BlasProbe.counts = []
        try:
            with ShardedExecutor(graph_free_simst(cls=_BlasProbe), n_workers=2) as sharded:
                sharded.train_step(None, self.draw(10))
                assert getter() == share + 1
        finally:
            setter(before)
        assert _BlasProbe.counts and set(_BlasProbe.counts) == {share}

    def test_model_holding_a_generator_is_refused_by_name(self):
        from repro.exec import make_executor

        model = graph_free_simst()
        model.head.noise = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"SimSTForecaster holds .*\(head\.noise\)"):
            make_executor(model, ExecutorSpec.sharded(n_workers=2))


class TestShardPlanner:
    """The planner's per-shard prediction bounds the caller's shard."""

    def test_prediction_within_twice_the_traced_peak_at_2000_sensors(self):
        import tracemalloc

        from repro.harness.shard_bench import (
            HISTORY,
            HORIZON,
            SHARD_PREDICTION_SLACK,
            _build_city_model,
            _city_planner,
        )

        num_sensors, batch = 2000, 4
        rng = np.random.default_rng(0)
        x = rng.standard_normal((batch, num_sensors, HISTORY, 1))
        y = rng.standard_normal((batch, num_sensors, HORIZON, 1))
        with ShardedExecutor(_build_city_model(num_sensors, 0), n_workers=2) as sharded:
            sharded.train_step(None, (x, y))  # the first step grows the arena
            tracemalloc.start()
            try:
                sharded.train_step(None, (x, y))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        predicted = _city_planner(batch).shard_gb("per_sensor", num_sensors, 2)
        assert 1.0 <= predicted / (peak / 1024**3) <= SHARD_PREDICTION_SLACK


BLAS_CHECK = """
import ctypes
import numpy
from repro.parallel.engine import _limit_blas_threads

getters = []
for path in {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}:
    library = ctypes.CDLL(path)
    for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_"):
        if hasattr(library, symbol):
            getters.append(getattr(library, symbol))
_limit_blas_threads(1)
print(sorted({getter() for getter in getters}))
"""


def test_worker_blas_threads_capped():
    """Workers cap BLAS at their share of the cores, even after BLAS loaded."""
    import os
    import subprocess
    import sys

    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    result = subprocess.run(
        [sys.executable, "-c", BLAS_CHECK], capture_output=True, text=True, timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    counts = result.stdout.strip()
    if counts == "[]":
        pytest.skip("NumPy is not linked against OpenBLAS here")
    assert counts == "[1]"
