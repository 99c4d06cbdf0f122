"""Executor conformance suite (repro.exec).

Every executor — serial, compiled, sharded — must honor one contract: the
open/close lifecycle state machine, ``train_step`` leaving gradients on the
model, ``predict`` returning the eval-mode forward inside one raw-units
wrapper (rank, history check, scaler).  The headline checks: serial and
sensor-sharded executors produce identical losses and gradients (1e-6
rtol) on a fixed seeded batch of a SimST model, and the same predictions
from the same weights; a model that cannot be sensor-sharded is refused by
name.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.compile import CompiledExecutor
from repro.core import SimSTForecaster, make_deterministic_st_wa
from repro.data import WindowSpec
from repro.data.windows import BatchIterator, SlidingWindowDataset
from repro.exec import (
    EXECUTOR_KINDS,
    ExecutorError,
    ExecutorSpec,
    ExecutorStateError,
    SerialExecutor,
    ShardedExecutor,
    StepResult,
    make_executor,
)
from repro.training import Trainer, TrainerConfig

SPEC = WindowSpec(12, 12)
RTOL = 1e-6


def small_model(num_sensors: int, seed: int = 0):
    return make_deterministic_st_wa(
        num_sensors, model_dim=8, skip_dim=8, predictor_hidden=16, seed=seed
    )


def small_simst(num_sensors: int, seed: int = 0):
    return SimSTForecaster(
        num_sensors,
        history=SPEC.history,
        horizon=SPEC.horizon,
        hidden=8,
        embedding_dim=4,
        predictor_hidden=16,
        seed=seed,
    )


def make_exec(kind: str, tiny_dataset):
    if kind == "sharded":
        return ShardedExecutor(small_simst(tiny_dataset.num_sensors), n_workers=2)
    model = small_model(tiny_dataset.num_sensors)
    if kind == "serial":
        return SerialExecutor(model)
    return CompiledExecutor(model)


@pytest.fixture(scope="module")
def seeded_batch(tiny_dataset):
    windows = SlidingWindowDataset(tiny_dataset.train, SPEC, raw=tiny_dataset.train_raw)
    iterator = BatchIterator(windows, batch_size=8, shuffle=False)
    x, y_raw = next(iter(iterator))
    return x, tiny_dataset.scaler.transform(y_raw)


# --------------------------------------------------------------------- #
# lifecycle: one state machine for every implementation
# --------------------------------------------------------------------- #
class TestLifecycle:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_step_before_open_raises(self, kind, tiny_dataset, seeded_batch):
        executor = make_exec(kind, tiny_dataset)
        with pytest.raises(ExecutorError):
            executor.train_step(None, seeded_batch)
        with pytest.raises(ExecutorStateError):
            executor.predict(None, seeded_batch[0])

    @pytest.mark.parametrize("kind", ["serial", "compiled"])
    def test_double_open_raises(self, kind, tiny_dataset):
        executor = make_exec(kind, tiny_dataset).open()
        try:
            with pytest.raises(ExecutorStateError, match="already open"):
                executor.open()
        finally:
            executor.close()

    @pytest.mark.parametrize("kind", ["serial", "compiled"])
    def test_close_then_step_raises_and_reopen_works(
        self, kind, tiny_dataset, seeded_batch
    ):
        executor = make_exec(kind, tiny_dataset).open()
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(ExecutorStateError, match="call open"):
            executor.predict(None, seeded_batch[0])
        with executor:  # reopen after close is allowed
            executor.predict(None, seeded_batch[0])
        assert not executor.is_open

    def test_sharded_lifecycle(self, tiny_dataset, seeded_batch):
        """Pool spawn is expensive: one test covers the pool state machine,
        plus shard ranges bound to the pool."""
        executor = ShardedExecutor(small_simst(tiny_dataset.num_sensors), n_workers=2)
        assert executor.shard_axis == "sensor"
        assert executor._pool is None and executor.shard_ranges == []
        with executor:
            assert executor._pool is not None
            ranges = executor.shard_ranges
            assert ranges[0][0] == 0
            assert ranges[-1][1] == tiny_dataset.num_sensors
            with pytest.raises(ExecutorStateError, match="already open"):
                executor.open()
        assert executor._pool is None and executor.shard_ranges == []
        with pytest.raises(ExecutorStateError):
            executor.train_step(None, seeded_batch)
        with pytest.raises(ExecutorStateError):
            executor.predict(None, seeded_batch[0])


# --------------------------------------------------------------------- #
# the equivalence gates: one step logic, many backends
# --------------------------------------------------------------------- #
class TestEquivalence:
    def test_gradients_land_on_the_model(self, tiny_dataset, seeded_batch):
        with make_exec("serial", tiny_dataset) as executor:
            result = executor.train_step(None, seeded_batch)
            for grad, parameter in zip(result.grads, executor.model.parameters()):
                assert grad is parameter.grad

    def test_explicit_weights_override_model_state(self, tiny_dataset, seeded_batch):
        x, _ = seeded_batch
        with make_exec("serial", tiny_dataset) as executor:
            baseline = executor.predict(None, x)
            other = small_model(tiny_dataset.num_sensors, seed=9).state_dict()
            changed = executor.predict(other, x)
        assert not np.array_equal(changed, baseline)
        # sensor-sharded predict: the caller's shard and the workers both
        # forecast with the explicit weights
        num_sensors = tiny_dataset.num_sensors
        other = small_simst(num_sensors, seed=9).state_dict()
        with SerialExecutor(small_simst(num_sensors, seed=9)) as serial:
            expected = serial.predict(None, x)
        with ShardedExecutor(small_simst(num_sensors), n_workers=2) as sharded:
            baseline = sharded.predict(None, x)
            changed = sharded.predict(other, x)
        assert not np.array_equal(changed, baseline)
        np.testing.assert_allclose(changed, expected, rtol=0.0, atol=1e-12)


class TestExplicitWeightsOnPools:
    """``train_step(weights, batch)`` loads ``weights`` into every executor's model."""

    def test_sharded_step_matches_serial_and_loads_the_weights(
        self, tiny_dataset, seeded_batch
    ):
        x, y = seeded_batch
        num_sensors = tiny_dataset.num_sensors
        weights = small_simst(num_sensors, seed=9).state_dict()
        with SerialExecutor(small_simst(num_sensors)) as serial:
            expected = serial.train_step(weights, (x, y))
            expected_grads = [None if g is None else g.copy() for g in expected.grads]
            serial_state = serial.model.state_dict()
        with ShardedExecutor(small_simst(num_sensors), n_workers=2) as sharded:
            assert sharded.shard_axis == "sensor"
            result = sharded.train_step(weights, (x, y))
            sharded_state = sharded.model.state_dict()
        np.testing.assert_allclose(result.loss, expected.loss, rtol=RTOL)
        for left, right in zip(expected_grads, result.grads):
            assert (left is None) == (right is None)
            if left is not None:
                np.testing.assert_allclose(right, left, rtol=RTOL, atol=1e-12)
        for state in (serial_state, sharded_state):
            assert state.keys() == weights.keys()
            for name, value in weights.items():
                np.testing.assert_array_equal(state[name], value)


# --------------------------------------------------------------------- #
# sensor sharding: which models shard + serial equivalence on one pool spawn
# --------------------------------------------------------------------- #
class TestShardedExecutor:
    def test_sensor_mixing_model_is_refused_by_name(self, tiny_dataset):
        """ST-WA mixes sensors in its forward, so it cannot be sensor-sharded."""
        model = small_model(tiny_dataset.num_sensors)
        with pytest.raises(
            ValueError, match=r"^STWA cannot be sensor-sharded: it mixes sensors"
        ):
            make_executor(model, ExecutorSpec.sharded(n_workers=2))

    def test_single_sensor_model_is_refused_by_name(self):
        with pytest.raises(
            ValueError, match=r"^SimSTForecaster cannot be sensor-sharded: it has 1 sensor"
        ):
            make_executor(small_simst(1), ExecutorSpec.sharded(n_workers=2))

    def test_sensor_sharded_matches_serial_on_simst(self, tiny_dataset, seeded_batch):
        """One pool spawn covers loss, gradient, stats, and predict parity."""
        x, y = seeded_batch
        serial = SerialExecutor(small_simst(tiny_dataset.num_sensors)).open()
        serial_result = serial.train_step(None, (x, y))
        serial_prediction = serial.predict(None, x)
        serial.close()

        sharded = ShardedExecutor(small_simst(tiny_dataset.num_sensors), n_workers=2)
        with sharded:
            result = sharded.train_step(None, (x, y))
            prediction = sharded.predict(None, x)
        assert isinstance(result, StepResult)
        assert result.stats["shard_axis"] == "sensor"
        np.testing.assert_allclose(result.loss, serial_result.loss, rtol=RTOL)
        assert len(result.grads) == len(serial_result.grads)
        for left, right in zip(serial_result.grads, result.grads):
            assert (left is None) == (right is None)
            if left is not None:
                np.testing.assert_allclose(right, left, rtol=RTOL, atol=1e-12)
        np.testing.assert_array_equal(prediction, serial_prediction)

    def test_predict_keeps_single_window_rank(self, tiny_dataset, seeded_batch):
        x, _ = seeded_batch
        executor = ShardedExecutor(small_simst(tiny_dataset.num_sensors), n_workers=2)
        with executor:
            batched = executor.predict(None, x[:1])
            single = executor.predict(None, x[0])
        assert single.ndim == 3
        np.testing.assert_array_equal(single, batched[0])

    def test_nested_list_with_wrong_history_raises_value_error(
        self, tiny_dataset, seeded_batch
    ):
        x, _ = seeded_batch
        executor = ShardedExecutor(
            small_simst(tiny_dataset.num_sensors), n_workers=2, history=SPEC.history
        )
        with executor:
            with pytest.raises(ValueError, match=r"got shape \(2, 8, 11, 1\)"):
                executor.predict(None, x[:2, :, :-1].tolist())


# --------------------------------------------------------------------- #
# one raw-units predict contract: rank, history check, scaler
# --------------------------------------------------------------------- #
@pytest.fixture(scope="class", params=EXECUTOR_KINDS)
def raw_units_pair(request, tiny_dataset):
    """An open ``(executor, serial reference)`` pair serving raw units.

    Both hold the same weights, the dataset's scaler and ``history``; the
    sharded kind runs SimST, the others ST-WA.
    """
    kind = request.param
    build = small_simst if kind == "sharded" else small_model
    spec = ExecutorSpec.sharded(n_workers=2) if kind == "sharded" else ExecutorSpec(kind=kind)
    knobs = {"scaler": tiny_dataset.scaler, "history": SPEC.history}
    executor = make_executor(build(tiny_dataset.num_sensors), spec, **knobs).open()
    reference = SerialExecutor(build(tiny_dataset.num_sensors), **knobs).open()
    yield executor, reference
    executor.close()
    reference.close()


class TestRawUnitsContract:
    """``Executor.predict`` wraps every kind's forward the same way."""

    def test_single_window_keeps_rank(self, raw_units_pair, tiny_dataset, seeded_batch):
        executor, _ = raw_units_pair
        raw = tiny_dataset.scaler.inverse_transform(seeded_batch[0])
        batched = executor.predict(None, raw[:1])
        single = executor.predict(None, raw[0])
        assert single.ndim == 3
        assert np.array_equal(single, batched[0])

    @pytest.mark.parametrize("rank", [3, 4])
    def test_wrong_history_raises_with_the_shape(self, raw_units_pair, seeded_batch, rank):
        executor, _ = raw_units_pair
        x = seeded_batch[0][:2, :, :-1]
        window = x[0] if rank == 3 else x
        message = f"expected (B, N, 12, F) window, got shape {window.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            executor.predict(None, window.tolist())

    def test_scaler_round_trip_matches_serial(self, raw_units_pair, tiny_dataset, seeded_batch):
        executor, reference = raw_units_pair
        raw = tiny_dataset.scaler.inverse_transform(seeded_batch[0])
        expected = reference.predict(None, raw)
        first = executor.predict(None, raw)
        again = executor.predict(None, raw)  # the compiled kind replays here
        assert np.array_equal(first, expected)
        assert np.array_equal(again, expected)


# --------------------------------------------------------------------- #
# ExecutorSpec validation + factory dispatch
# --------------------------------------------------------------------- #
class TestExecutorSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            ExecutorSpec(kind="quantum")

    def test_sharded_needs_two_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExecutorSpec.sharded(n_workers=1)

    def test_workers_on_serial_raises(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExecutorSpec(kind="serial", n_workers=2)

    def test_with_overrides(self):
        spec = ExecutorSpec.sharded(n_workers=2).with_overrides(n_workers=4)
        assert spec.n_workers == 4 and spec.kind == "sharded"

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (ExecutorSpec.serial(), SerialExecutor),
            (ExecutorSpec.sharded(n_workers=3), ShardedExecutor),
            (ExecutorSpec.serial(detect_anomaly=True), SerialExecutor),
            (ExecutorSpec.compiled(), CompiledExecutor),
            (ExecutorSpec.sharded(n_workers=2), ShardedExecutor),
        ],
    )
    def test_factory_dispatch(self, spec, expected, tiny_dataset):
        build = small_simst if spec.kind == "sharded" else small_model
        executor = make_executor(build(tiny_dataset.num_sensors), spec)
        assert type(executor) is expected
        assert getattr(executor, "n_workers", spec.n_workers) == spec.n_workers
        assert executor.detect_anomaly == spec.detect_anomaly


# --------------------------------------------------------------------- #
# Trainer integration: spec resolution
# --------------------------------------------------------------------- #
class TestTrainerShim:
    def test_default_is_serial(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        trainer = Trainer(model, tiny_dataset, SPEC, TrainerConfig())
        assert trainer.executor_spec.kind == "serial"
        assert isinstance(trainer.executor, SerialExecutor)

    def test_executor_closed_after_fit(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        config = TrainerConfig(epochs=1, max_batches_per_epoch=2, eval_batches=1)
        trainer = Trainer(model, tiny_dataset, SPEC, config)
        trainer.fit()
        assert not trainer.executor.is_open
