"""Fault tolerance: anomaly detection, checkpoint/resume, recovery, faults."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.baselines import GRUForecaster
from repro.data import WindowSpec, finite_mask, impute_series
from repro.exec import ExecutorSpec
from repro.harness import chaos
from repro.obs import ListSink, MetricsSink, SafeSink
from repro.optim import Adam, SGD, clip_grad_norm
from repro.resilience import (
    FaultInjector,
    LossExplosionError,
    NaNGradientFault,
    NumericalAnomalyError,
    ProcessKillFault,
    RecoveryPolicy,
    SimulatedCrash,
    detect_anomaly,
    inject_sensor_dropout,
)
from repro.tensor import Tensor, functional, is_anomaly_detection_enabled, masked_huber_loss
from repro.tensor import ops
from repro.training import Trainer, TrainerConfig, latest_checkpoint, list_checkpoints

SPEC = WindowSpec(12, 12)


def small_trainer(tiny_dataset, model=None, **config_overrides):
    config = dict(epochs=3, batch_size=16, max_batches_per_epoch=6, eval_batches=3, lr=6e-3, seed=0)
    config.update(config_overrides)
    if model is None:
        model = GRUForecaster(12, 12, hidden_size=8, predictor_hidden=32, seed=0)
    return Trainer(model, tiny_dataset, SPEC, TrainerConfig(**config))


# --------------------------------------------------------------------- #
# anomaly detection (repro.tensor)
# --------------------------------------------------------------------- #
class TestDetectAnomaly:
    def test_forward_anomaly_names_the_op(self):
        x = Tensor(np.array([1000.0]))
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as excinfo:
                ops.exp(x)  # overflows to inf
        assert excinfo.value.op_name == "exp"
        assert excinfo.value.phase == "forward"
        assert excinfo.value.kind == "inf"

    def test_backward_anomaly_carries_creation_trace(self):
        x = Tensor(np.array([1000.0]), requires_grad=True)
        with detect_anomaly(check_forward=False):
            u = ops.exp(x)  # inf, unchecked forward
            v = ops.sum(u * u)
            with pytest.raises(NumericalAnomalyError) as excinfo:
                v.backward()
        assert excinfo.value.phase == "backward"
        # the trace points at the forward line that built the node
        assert excinfo.value.creation_trace is not None
        assert "test_resilience" in excinfo.value.creation_trace

    def test_no_trace_when_disabled(self):
        x = Tensor(np.array([1000.0]), requires_grad=True)
        with detect_anomaly(check_forward=False, record_traces=False):
            u = ops.exp(x)
            v = ops.sum(u * u)
            with pytest.raises(NumericalAnomalyError) as excinfo:
                v.backward()
        assert excinfo.value.creation_trace is None

    def test_clean_graph_passes(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with detect_anomaly():
            loss = ops.sum(ops.exp(x) * 2.0)
            loss.backward()
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(x.data))

    def test_off_outside_context(self):
        assert not is_anomaly_detection_enabled()
        with detect_anomaly():
            assert is_anomaly_detection_enabled()
        assert not is_anomaly_detection_enabled()
        # anomalies pass silently when disabled
        ops.exp(Tensor(np.array([1000.0])))

    def test_subclasses_floating_point_error(self):
        assert issubclass(NumericalAnomalyError, FloatingPointError)
        assert issubclass(LossExplosionError, FloatingPointError)
        assert not issubclass(SimulatedCrash, FloatingPointError)


# --------------------------------------------------------------------- #
# optimizer guards + state dicts (repro.optim)
# --------------------------------------------------------------------- #
def _params(*values):
    from repro.nn.module import Parameter

    return [Parameter(np.array(v, dtype=np.float64)) for v in values]


class TestOptimizerGuards:
    def test_clip_grad_norm_nonfinite_skips_scaling(self):
        good, bad = _params([1.0, 1.0], [1.0])
        good.grad = np.array([3.0, 4.0])
        bad.grad = np.array([np.nan])
        norm = clip_grad_norm([good, bad], max_norm=1.0)
        assert np.isnan(norm)
        # the finite gradient must not have been scaled by nan
        np.testing.assert_array_equal(good.grad, [3.0, 4.0])

    def test_adam_skips_nonfinite_grad(self):
        good, bad = _params([1.0], [1.0])
        optimizer = Adam([good, bad], lr=0.1)
        good.grad = np.array([1.0])
        bad.grad = np.array([np.inf])
        optimizer.step()
        assert optimizer.nonfinite_skips == 1
        assert good.data[0] != 1.0  # updated
        assert bad.data[0] == 1.0  # untouched
        assert np.isfinite(bad.data).all()

    def test_sgd_skips_nonfinite_grad(self):
        (param,) = _params([2.0])
        optimizer = SGD([param], lr=0.1, momentum=0.9)
        param.grad = np.array([np.nan])
        optimizer.step()
        assert optimizer.nonfinite_skips == 1
        assert param.data[0] == 2.0

    def test_adam_state_roundtrip_continues_identically(self):
        def run(steps, reload_at=None):
            (param,) = _params([1.0, -1.0])
            optimizer = Adam([param], lr=0.05)
            state = None
            for step in range(steps):
                if reload_at is not None and step == reload_at:
                    state = optimizer.state_dict()
                    (param2,) = _params(param.data.tolist())
                    optimizer = Adam([param2], lr=0.9)  # wrong lr, overwritten
                    optimizer.load_state_dict(state)
                    param = param2
                param.grad = param.data * 0.5 + 0.1
                optimizer.step()
            return param.data

        np.testing.assert_array_equal(run(6), run(6, reload_at=3))

    def test_load_rejects_slot_count_mismatch(self):
        (a,) = _params([1.0])
        b, c = _params([1.0], [2.0])
        state = Adam([a], lr=0.1).state_dict()
        with pytest.raises(ValueError):
            Adam([b, c], lr=0.1).load_state_dict(state)


# --------------------------------------------------------------------- #
# SafeSink (repro.obs)
# --------------------------------------------------------------------- #
class _ExplodingSink(MetricsSink):
    def __init__(self):
        self.calls = 0

    def emit(self, event):
        self.calls += 1
        raise OSError("disk full")


class TestSafeSink:
    def test_warns_once_then_drops(self):
        inner = _ExplodingSink()
        sink = SafeSink(inner)
        with pytest.warns(RuntimeWarning, match="disk full"):
            sink.emit({"event": "batch"})
        assert sink.failed
        # no second warning, no second delivery attempt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sink.emit({"event": "batch"})
        assert inner.calls == 1

    def test_trainer_survives_failing_sink(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, epochs=1, sink=_ExplodingSink())
        with pytest.warns(RuntimeWarning):
            history = trainer.fit()
        assert history.epochs_run == 1

    def test_healthy_sink_passes_through(self):
        inner = ListSink()
        sink = SafeSink(inner)
        sink.emit({"event": "epoch"})
        assert inner.events == [{"event": "epoch"}]


# --------------------------------------------------------------------- #
# degraded inputs: imputation + masked loss (repro.data / repro.tensor)
# --------------------------------------------------------------------- #
class TestImputation:
    def test_all_finite_is_identity(self, rng):
        data = rng.standard_normal((3, 5, 2))
        filled, mask = impute_series(data)
        np.testing.assert_array_equal(filled, data)
        assert mask.all()

    def test_last_value_carry_forward(self):
        data = np.array([[[1.0], [np.nan], [np.nan], [4.0], [np.nan]]])
        filled, mask = impute_series(data, method="last")
        np.testing.assert_array_equal(filled[0, :, 0], [1.0, 1.0, 1.0, 4.0, 4.0])
        np.testing.assert_array_equal(mask[0, :, 0], [1, 0, 0, 1, 0])

    def test_leading_gap_falls_back_to_zero(self):
        data = np.array([[[np.nan], [np.nan], [3.0]]])
        filled, _ = impute_series(data, method="last")
        np.testing.assert_array_equal(filled[0, :, 0], [0.0, 0.0, 3.0])

    def test_zero_method(self):
        data = np.array([[[np.nan], [2.0]]])
        filled, _ = impute_series(data, method="zero")
        np.testing.assert_array_equal(filled[0, :, 0], [0.0, 2.0])

    def test_rejects_unknown_method_and_shape(self):
        with pytest.raises(ValueError):
            impute_series(np.zeros((2, 2, 1)), method="spline")
        with pytest.raises(ValueError):
            impute_series(np.zeros((2, 2)))

    def test_finite_mask(self):
        mask = finite_mask(np.array([1.0, np.nan, np.inf]))
        np.testing.assert_array_equal(mask, [1.0, 0.0, 0.0])


class TestMaskedHuber:
    def test_matches_unmasked_when_finite(self, rng):
        prediction = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        target = Tensor(rng.standard_normal((4, 3)))
        masked = masked_huber_loss(prediction, target)
        plain = functional.huber_loss(prediction, target)
        np.testing.assert_allclose(masked.item(), plain.item())

    def test_nan_targets_contribute_nothing(self):
        prediction = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        target = Tensor(np.array([1.0, np.nan]))
        loss = masked_huber_loss(prediction, target)
        assert loss.item() == 0.0  # the only valid position is exact
        loss.backward()
        assert np.isfinite(prediction.grad).all()
        assert prediction.grad[1] == 0.0  # no gradient through the masked slot

    def test_all_masked_is_zero_loss(self):
        prediction = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = Tensor(np.full(2, np.nan))
        loss = masked_huber_loss(prediction, target)
        assert loss.item() == 0.0
        loss.backward()
        np.testing.assert_array_equal(prediction.grad, [0.0, 0.0])

    def test_explicit_mask_intersects_finite(self):
        prediction = Tensor(np.zeros(3))
        target = Tensor(np.array([1.0, 1.0, np.nan]))
        mask = np.array([1.0, 0.0, 1.0])  # third entry masked by finiteness too
        loss = masked_huber_loss(prediction, target, mask=mask)
        np.testing.assert_allclose(loss.item(), 0.5)  # one valid quadratic term


class TestSensorDropout:
    def test_degraded_dataset_shapes_and_masks(self, tiny_dataset):
        degraded = inject_sensor_dropout(tiny_dataset, rate=0.25, seed=3)
        assert degraded.train.shape == tiny_dataset.train.shape
        assert np.isnan(degraded.train_raw).any()  # raw keeps the gaps
        assert np.isfinite(degraded.train).all()  # scaled inputs are imputed
        assert np.isfinite(degraded.val).all()
        dead = np.isnan(degraded.train_raw).any(axis=(1, 2))
        assert 0 < dead.sum() < tiny_dataset.num_sensors

    def test_scaler_refit_on_imputed_data(self, tiny_dataset):
        degraded = inject_sensor_dropout(tiny_dataset, rate=0.25, seed=3)
        assert degraded.scaler is not tiny_dataset.scaler
        assert np.isfinite(degraded.scaler.mean)

    def test_no_imputation_poisons_inputs(self, tiny_dataset):
        poisoned = inject_sensor_dropout(tiny_dataset, rate=0.25, seed=3, impute_method=None)
        assert np.isnan(poisoned.train).any()
        assert poisoned.scaler is tiny_dataset.scaler

    def test_rate_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            inject_sensor_dropout(tiny_dataset, rate=1.5)

    def test_trains_through_masked_pipeline(self, tiny_dataset):
        degraded = inject_sensor_dropout(tiny_dataset, rate=0.25, seed=3)
        trainer = small_trainer(degraded, epochs=2)
        history = trainer.fit()
        assert all(np.isfinite(history.train_loss))
        assert all(np.isfinite(history.val_mae))


# --------------------------------------------------------------------- #
# checkpoint/resume bit-exactness (repro.training)
# --------------------------------------------------------------------- #
def _assert_kill_and_resume_bit_exact(tiny_dataset, tmp_path, **config):
    """Kill at epoch 2, resume a fresh trainer; it must equal the uninterrupted run."""
    ckpt_dir = tmp_path / "ckpt"
    interrupted = small_trainer(
        tiny_dataset,
        epochs=4,
        checkpoint_dir=ckpt_dir,
        batch_hook=FaultInjector([ProcessKillFault(epoch=2, batch=0)]),
        **config,
    )
    with pytest.raises(SimulatedCrash):
        interrupted.fit()
    checkpoint = latest_checkpoint(ckpt_dir)
    assert checkpoint is not None and "0001" in checkpoint.name

    resumed_trainer = small_trainer(tiny_dataset, epochs=4, **config)
    resumed = resumed_trainer.fit(resume_from=checkpoint)

    reference_trainer = small_trainer(tiny_dataset, epochs=4, **config)
    reference = reference_trainer.fit()

    assert resumed.val_mae == reference.val_mae
    assert resumed.train_loss == reference.train_loss
    a = resumed_trainer.model.state_dict()
    b = reference_trainer.model.state_dict()
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    return resumed_trainer


class TestResume:
    def test_kill_and_resume_is_bit_exact(self, tiny_dataset, tmp_path):
        _assert_kill_and_resume_bit_exact(tiny_dataset, tmp_path)

    def test_kill_and_resume_is_bit_exact_compiled(self, tiny_dataset, tmp_path):
        # the resumed trainer's optimizer adopts the checkpoint weights
        # into its arena while compiled plans read parameter.data per replay
        resumed = _assert_kill_and_resume_bit_exact(
            tiny_dataset, tmp_path, executor=ExecutorSpec.compiled()
        )
        stats = resumed.executor.stats
        assert stats["replays"] > 0 and stats["fallback_steps"] == 0

    def test_retention_keeps_last_and_best(self, tiny_dataset, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        trainer = small_trainer(tiny_dataset, epochs=5, checkpoint_dir=ckpt_dir, keep_last=2)
        trainer.fit()
        kept = list_checkpoints(ckpt_dir)
        assert [p.name for p in kept] == ["ckpt_epoch_0003.npz", "ckpt_epoch_0004.npz"]
        assert (ckpt_dir / "best.npz").exists()

    def test_no_checkpoint_dir_writes_nothing(self, tiny_dataset, tmp_path):
        trainer = small_trainer(tiny_dataset, epochs=1)
        trainer.fit()
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# divergence recovery (repro.resilience + Trainer)
# --------------------------------------------------------------------- #
class TestRecovery:
    def test_nan_gradient_recovers_and_completes(self, tiny_dataset):
        sink = ListSink()
        trainer = small_trainer(
            tiny_dataset,
            epochs=3,
            sink=sink,
            recovery=RecoveryPolicy(),
            batch_hook=FaultInjector([NaNGradientFault(epoch=1, batch=1)]),
        )
        history = trainer.fit()
        assert history.epochs_run == 3
        assert history.recoveries == 1
        events = sink.of_type("recovery")
        assert len(events) == 1
        assert events[0]["error"] == "NumericalAnomalyError"
        assert events[0]["rollback_epoch"] == 0
        # lr was backed off by the policy
        assert events[0]["lr"] == pytest.approx(6e-3 * 0.5)
        assert trainer.optimizer.lr == pytest.approx(6e-3 * 0.5)

    def test_retries_are_bounded(self, tiny_dataset):
        # three separate faults at the same batch: each retry re-fires one
        faults = [NaNGradientFault(epoch=0, batch=0) for _ in range(3)]
        trainer = small_trainer(
            tiny_dataset,
            recovery=RecoveryPolicy(max_retries=2),
            batch_hook=FaultInjector(faults),
        )
        with pytest.raises(NumericalAnomalyError):
            trainer.fit()

    def test_without_policy_the_error_escapes(self, tiny_dataset):
        trainer = small_trainer(
            tiny_dataset, batch_hook=FaultInjector([NaNGradientFault(epoch=0, batch=0)])
        )
        with pytest.raises(NumericalAnomalyError):
            trainer.fit()

    def test_loss_explosion_rolls_back_weights(self, tiny_dataset):
        class WeightBomb:
            """Corrupt the weights mid-run; the next batch's loss explodes."""

            def __init__(self):
                self.fired = False

            def after_batch(self, trainer, epoch, batch):
                if not self.fired and epoch == 1 and batch == 0:
                    self.fired = True
                    for parameter in trainer.optimizer.parameters:
                        parameter.data = parameter.data * 1e4

        sink = ListSink()
        trainer = small_trainer(
            tiny_dataset,
            epochs=3,
            sink=sink,
            recovery=RecoveryPolicy(explosion_factor=5.0, min_history=3, window=10),
            batch_hook=WeightBomb(),
        )
        history = trainer.fit()
        assert history.epochs_run == 3
        assert history.recoveries >= 1
        events = sink.of_type("recovery")
        assert any(e["error"] == "LossExplosionError" for e in events)
        # the corrupted weights were rolled back: training ends sane
        assert np.isfinite(history.train_loss[-1])
        assert history.train_loss[-1] < 10.0

    def test_simulated_crash_is_never_swallowed(self, tiny_dataset):
        trainer = small_trainer(
            tiny_dataset,
            recovery=RecoveryPolicy(),
            batch_hook=FaultInjector([ProcessKillFault(epoch=0, batch=0)]),
        )
        with pytest.raises(SimulatedCrash):
            trainer.fit()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(lr_factor=1.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(explosion_factor=0.5)
        assert RecoveryPolicy(min_lr=1e-4).backed_off_lr(1e-4) == 1e-4


class TestDetectAnomalyInTrainer:
    def test_trainer_runs_with_detection_on(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, epochs=1, detect_anomaly=True)
        history = trainer.fit()
        assert history.epochs_run == 1


# --------------------------------------------------------------------- #
# chaos harness (repro.harness.chaos)
# --------------------------------------------------------------------- #
class TestChaosHarness:
    def test_full_drill_suite_recovers(self, tmp_path):
        table, report = chaos.run(fast=True, out_dir=tmp_path, model_name="gru")
        assert report["all_recovered"]
        assert set(report["scenarios"]) == {"kill_resume", "nan_gradient", "sensor_dropout"}
        assert (tmp_path / "chaos_report.json").exists()
        assert table.experiment_id == "chaos"
        assert all(row[1] == "PASS" for row in table.rows)
