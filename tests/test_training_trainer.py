"""Trainer loop: convergence, early stopping, checkpoint restore, eval."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import make_wa
from repro.baselines import GRUForecaster
from repro.baselines.classical import PersistenceForecaster
from repro.data import WindowSpec
from repro.training import Trainer, TrainerConfig


SPEC = WindowSpec(12, 12)


def small_trainer(tiny_dataset, model=None, **config_overrides):
    config = dict(epochs=3, batch_size=16, max_batches_per_epoch=6, eval_batches=3, lr=6e-3, seed=0)
    config.update(config_overrides)
    if model is None:
        model = GRUForecaster(12, 12, hidden_size=8, predictor_hidden=32, seed=0)
    return Trainer(model, tiny_dataset, SPEC, TrainerConfig(**config))


class TestFit:
    def test_loss_decreases(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, epochs=6)
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_bookkeeping(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset)
        history = trainer.fit()
        assert history.epochs_run == 3
        assert len(history.val_mae) == 3
        assert len(history.epoch_seconds) == 3
        assert history.seconds_per_epoch > 0
        assert 0 <= history.best_epoch < 3

    def test_early_stopping_triggers(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, epochs=50, patience=2, lr=1e-12, min_delta=1e-3)
        history = trainer.fit()
        # lr ~ 0: no improvement after epoch 0 -> stop at patience
        assert history.stopped_early
        assert history.epochs_run < 50

    def test_best_weights_restored(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, epochs=4)
        history = trainer.fit()
        restored = trainer.evaluate("val", max_batches=3)["mae"]
        np.testing.assert_allclose(restored, min(history.val_mae), rtol=0.2)

    def test_st_wa_trains_through_trainer(self, tiny_dataset):
        model = make_wa(tiny_dataset.num_sensors, model_dim=8, skip_dim=8, predictor_hidden=16, seed=0)
        trainer = small_trainer(tiny_dataset, model=model)
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_deterministic_given_seed(self, tiny_dataset):
        a = small_trainer(tiny_dataset).fit().train_loss
        b = small_trainer(tiny_dataset).fit().train_loss
        np.testing.assert_allclose(a, b)


class TestEvaluate:
    def test_unknown_split_raises(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset)
        with pytest.raises(KeyError):
            trainer.evaluate("holdout")

    def test_metrics_in_raw_units(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset)
        metrics = trainer.evaluate("test", max_batches=3)
        # raw traffic flows are O(100); scaled units would give MAE < 5
        assert metrics["mae"] > 5.0

    def test_eval_does_not_touch_parameters(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset)
        before = trainer.model.state_dict()
        trainer.evaluate("val", max_batches=2)
        after = trainer.model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_predict_returns_raw_units(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset)
        x = tiny_dataset.test[:, :24][None]  # (1, N, 24, 1) -> slice history
        prediction = trainer.predict(x[:, :, :12])
        assert prediction.shape == (1, tiny_dataset.num_sensors, 12, 1)
        assert prediction.mean() > 1.0  # raw scale


class DropoutForecaster(nn.Module):
    """Persistence behind an aggressive dropout: nondeterministic in train
    mode, so any eval path that forgets ``model.eval()`` is caught red-handed."""

    def __init__(self):
        super().__init__()
        self.dropout = nn.Dropout(0.5, rng=np.random.default_rng(0))
        self.inner = PersistenceForecaster(12, 12)

    def forward(self, x):
        return self.inner(self.dropout(x))


class TestEvalMode:
    def test_predict_is_deterministic_with_dropout(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, model=DropoutForecaster())
        trainer.model.train()  # as fit() leaves it
        x = tiny_dataset.test[:, :12][None]
        first = trainer.predict(x)
        second = trainer.predict(x)
        np.testing.assert_array_equal(first, second)

    def test_predict_has_dropout_disabled(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, model=DropoutForecaster())
        trainer.model.train()
        x = tiny_dataset.test[:, :12][None]
        prediction = trainer.predict(x)
        # with dropout truly off, the model is exact persistence in raw units
        expected = np.repeat(tiny_dataset.test_raw[:, 11:12][None], 12, axis=2)
        np.testing.assert_allclose(prediction, expected)

    def test_evaluate_restores_training_mode(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, model=DropoutForecaster())
        trainer.model.train()
        trainer.evaluate("val", max_batches=1)
        assert trainer.model.training
        assert trainer.model.dropout.training

    def test_evaluate_preserves_eval_mode(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, model=DropoutForecaster())
        trainer.model.eval()
        trainer.evaluate("val", max_batches=1)
        assert not trainer.model.training

    def test_predict_restores_training_mode(self, tiny_dataset):
        trainer = small_trainer(tiny_dataset, model=DropoutForecaster())
        trainer.model.train()
        trainer.predict(tiny_dataset.test[:, :12][None])
        assert trainer.model.training


class _EvaluateMidFit:
    """``batch_hook`` that evaluates once inside ``fit`` and keeps the weights."""

    def __init__(self):
        self.metrics = None
        self.state = None

    def after_batch(self, trainer, epoch, batch_index):
        if self.metrics is None and batch_index == 1:
            self.metrics = trainer.evaluate("val", max_batches=3)
            self.state = trainer.model.state_dict()


class TestShardedEvaluation:
    def test_validation_runs_on_the_pool_during_fit(self, tiny_dataset):
        from repro.core import SimSTForecaster
        from repro.exec import ExecutorSpec

        model = SimSTForecaster(
            tiny_dataset.num_sensors, tiny_dataset.adjacency, history=12, horizon=12,
            hidden=8, embedding_dim=4, predictor_hidden=16, num_neighbors=3, seed=0,
        )
        hook = _EvaluateMidFit()
        trainer = small_trainer(
            tiny_dataset, model=model, epochs=1, max_batches_per_epoch=3,
            batch_hook=hook, executor=ExecutorSpec.sharded(n_workers=2),
        )
        pool_batches = []
        pool_predict = trainer.executor.predict

        def counted(weights, inputs):
            pool_batches.append(len(inputs))
            return pool_predict(weights, inputs)

        trainer.executor.predict = counted
        trainer.fit()
        assert trainer.executor.shard_axis == "sensor"
        # the mid-fit evaluation and fit's own validation both ran on the pool
        assert len(pool_batches) == 6
        assert not trainer.executor.is_open
        # after fit the pool is closed; evaluate runs in-process at the same
        # weights and agrees with the pool's forecasts
        trainer.model.load_state_dict(hook.state)
        in_process = trainer.evaluate("val", max_batches=3)
        assert len(pool_batches) == 6
        for name, value in hook.metrics.items():
            np.testing.assert_allclose(value, in_process[name], rtol=1e-12, atol=0.0)


class _AfterBatchOnly:
    """A hook with only ``after_batch`` (the shape of a step clock)."""

    def __init__(self):
        self.calls = 0

    def after_batch(self, trainer, epoch, batch_index):
        self.calls += 1


class TestBatchHookValidation:
    """A ``batch_hook`` the loop would never call is refused at construction."""

    def test_plain_function_raises(self, tiny_dataset):
        def hook(trainer, epoch, batch_index):  # pragma: no cover - never called
            pass

        with pytest.raises(TypeError, match=r"after_backward or an after_batch.*function"):
            small_trainer(tiny_dataset, batch_hook=hook)

    def test_fault_injector_accepted(self, tiny_dataset):
        from repro.resilience import FaultInjector

        trainer = small_trainer(tiny_dataset, batch_hook=FaultInjector([]))
        assert isinstance(trainer.config.batch_hook, FaultInjector)

    def test_after_batch_only_hook_accepted_and_called(self, tiny_dataset):
        hook = _AfterBatchOnly()
        small_trainer(tiny_dataset, epochs=1, max_batches_per_epoch=2, batch_hook=hook).fit()
        assert hook.calls == 2
