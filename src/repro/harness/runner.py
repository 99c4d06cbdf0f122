"""Shared experiment executor: build -> train -> score one model.

Scopes trade fidelity for wall time (all on the simulated datasets):

* ``smoke``    — a few epochs; CI/benchmark default.  Validates the full
  pipeline and preserves gross ordering, not fine ordering.
* ``quick``    — minutes per model; resolves most of the paper's orderings.
* ``standard`` — the most faithful setting feasible on CPU.

Construct settings explicitly with :meth:`RunSettings.from_scope` (or the
``smoke()`` / ``quick()`` / ``standard()`` factories) and pass them down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..baselines import BuildSpec, build_from_spec
from ..data import TrafficDataset, WindowSpec, load_dataset
from ..obs import MetricsSink
from ..training import Trainer, TrainerConfig

#: models that are fit analytically (or not at all) rather than by SGD
NON_TRAINED = {"persistence", "windowmean", "var"}


@dataclass(frozen=True)
class RunSettings:
    """Wall-time scoped training settings for harness runs.

    ``sink`` (optional) is a :class:`repro.obs.MetricsSink` that every table
    harness threads into the :class:`Trainer` so runs leave a structured
    JSONL runtime trace.
    """

    scope: str = "smoke"
    profile: str = "fast"
    epochs: int = 2
    max_batches: int = 5
    eval_batches: Optional[int] = 4
    batch_size: int = 32
    lr: float = 8e-3
    patience: int = 50
    seed: int = 0
    sink: Optional[MetricsSink] = field(default=None, compare=False)

    @classmethod
    def smoke(cls) -> "RunSettings":
        return cls()

    @classmethod
    def quick(cls) -> "RunSettings":
        return cls(scope="quick", epochs=25, max_batches=20, eval_batches=8, lr=6e-3, patience=25)

    @classmethod
    def standard(cls) -> "RunSettings":
        return cls(scope="standard", epochs=40, max_batches=30, eval_batches=None, lr=6e-3, patience=10)

    @classmethod
    def from_scope(cls, name: str) -> "RunSettings":
        """Explicit constructor: ``name`` is smoke | quick | standard."""
        factories = {"smoke": cls.smoke, "quick": cls.quick, "standard": cls.standard}
        key = name.lower()
        if key not in factories:
            raise KeyError(f"scope must be one of {sorted(factories)}, got {name!r}")
        return factories[key]()

    def with_overrides(self, **kwargs) -> "RunSettings":
        return replace(self, **kwargs)

    def trainer_config(self, **overrides) -> TrainerConfig:
        """The :class:`TrainerConfig` these settings train with.

        Every harness run builds its config here, so ``sink`` reaches
        every trainer; ``overrides`` replace individual fields (e.g.
        ``kl_weight`` for Table X, ``checkpoint_dir`` for a chaos drill).
        """
        fields = dict(
            lr=self.lr,
            epochs=self.epochs,
            batch_size=self.batch_size,
            patience=self.patience,
            max_batches_per_epoch=self.max_batches,
            eval_batches=self.eval_batches,
            seed=self.seed,
            sink=self.sink,
        )
        fields.update(overrides)
        return TrainerConfig(**fields)


_DATASET_CACHE: Dict[tuple, TrafficDataset] = {}


def get_dataset(name: str, profile: str) -> TrafficDataset:
    """Load (and cache) a simulated dataset — the harness reuses them heavily."""
    key = (name.upper(), profile)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, profile=profile)
    return _DATASET_CACHE[key]


def train_and_score(
    model_name: str,
    dataset: TrafficDataset,
    history: int,
    horizon: int,
    settings: RunSettings,
) -> Dict[str, float]:
    """Train ``model_name`` on ``dataset`` and return test metrics + costs.

    Returns keys: ``mae``, ``rmse``, ``mape``, ``seconds_per_epoch``,
    ``seconds_per_epoch_warm``, ``train_seconds``, ``parameters``,
    ``epochs_run``.  The warm figure skips the JIT-/cache-cold first epoch
    and is what the runtime tables report.
    """
    spec = BuildSpec(dataset=dataset, history=history, horizon=horizon, seed=settings.seed)
    model = build_from_spec(model_name, spec)
    return train_and_score_model(model, dataset, history, horizon, settings, name=model_name)


def train_and_score_model(
    model,
    dataset: TrafficDataset,
    history: int,
    horizon: int,
    settings: RunSettings,
    name: str = "",
    **trainer_overrides,
) -> Dict[str, float]:
    """Like :func:`train_and_score` for an already-instantiated model.

    ``trainer_overrides`` replace :class:`TrainerConfig` fields (see
    :meth:`RunSettings.trainer_config`), e.g. Table X's ``kl_weight``.
    """
    config = settings.trainer_config(**trainer_overrides)
    trainer = Trainer(model, dataset, WindowSpec(history, horizon), config)
    start = time.perf_counter()
    if name.lower() in NON_TRAINED or not model.parameters():
        seconds_per_epoch = 0.0
        seconds_per_epoch_warm = 0.0
        epochs_run = 0
    else:
        history_record = trainer.fit()
        seconds_per_epoch = history_record.seconds_per_epoch
        seconds_per_epoch_warm = history_record.seconds_per_epoch_warm
        epochs_run = history_record.epochs_run
    train_seconds = time.perf_counter() - start
    metrics = trainer.evaluate("test", max_batches=settings.eval_batches)
    metrics["seconds_per_epoch"] = seconds_per_epoch
    metrics["seconds_per_epoch_warm"] = seconds_per_epoch_warm
    metrics["train_seconds"] = train_seconds
    metrics["parameters"] = float(model.num_parameters())
    metrics["epochs_run"] = float(epochs_run)
    return metrics
