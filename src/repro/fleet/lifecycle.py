"""Fleet lifecycle: registry-backed deploys and drift-triggered retraining.

:class:`FleetManager` closes the loop between the three planes the fleet is
built from — the :class:`repro.fleet.ModelRegistry` (what exists), the
:class:`repro.fleet.FleetRouter` (what serves), and the existing
:class:`repro.training.Trainer` (how new weights are made):

* :meth:`FleetManager.deploy` — load a registry version (default: live)
  and install it on the router, as a fresh tenant or as a hot swap.
* :meth:`FleetManager.retrain` — the drift response: fine-tune a copy of
  the live weights on recent data through the ordinary Trainer/executor
  seam, **validate** the candidate against the live model on held-back
  windows the fine-tune never saw, and only if the candidate wins publish
  it to the registry, promote it, and hot-swap it onto the router — the
  drained old engine closes with zero dropped requests.  A losing
  candidate is recorded (and published unpromoted for the audit trail)
  but never serves.

Retraining is synchronous from the caller's point of view; run it on a
background thread to keep serving undisturbed — the router is thread-safe
and the swap at the end is atomic either way.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..data import WindowSpec
from ..obs import MetricsSink, NullSink, SafeSink
from ..serve import ForecasterArtifact
from ..training import Trainer, TrainerConfig
from .registry import ModelRegistry, RegistryError
from .router import FleetRouter


@dataclass(frozen=True)
class RetrainPolicy:
    """Knobs of the drift-response fine-tune + validation gate."""

    epochs: int = 2
    lr: float = 1e-3
    batch_size: int = 16
    max_batches: Optional[int] = 10
    eval_batches: Optional[int] = 4
    holdout_windows: int = 8  # held-back validation windows per model
    holdout_stride: int = 3  # decorrelate consecutive holdout windows
    accept_margin: float = 1.0  # candidate_mae <= margin * live_mae to win
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.holdout_windows < 1 or self.holdout_stride < 1:
            raise ValueError("holdout_windows and holdout_stride must be >= 1")
        if self.accept_margin <= 0:
            raise ValueError("accept_margin must be > 0")


def holdout_mae(artifact: ForecasterArtifact, dataset, policy: RetrainPolicy) -> float:
    """Mean absolute error over held-back validation windows (raw units).

    Slides ``holdout_windows`` windows (``holdout_stride`` ticks apart)
    over the dataset's validation split — data the fine-tune loop never
    touches — and scores the artifact's raw-unit forecasts against the
    observed continuation.  NaN targets are masked, mirroring the training
    metrics.
    """
    raw = dataset.val_raw
    history, horizon = artifact.history, artifact.horizon
    total = raw.shape[1]
    errors = []
    for k in range(policy.holdout_windows):
        start = k * policy.holdout_stride
        if start + history + horizon > total:
            break
        window = raw[:, start : start + history, :]
        target = raw[:, start + history : start + history + horizon, :]
        forecast = artifact.predict(window)
        mask = np.isfinite(target)
        if mask.any():
            errors.append(float(np.mean(np.abs(forecast[mask] - target[mask]))))
    if not errors:
        raise ValueError(
            "validation split too short for even one holdout window "
            f"(T={total}, need {history + horizon})"
        )
    return float(np.mean(errors))


class FleetManager:
    """Registry-backed deployment and drift-triggered retraining."""

    def __init__(
        self,
        registry: ModelRegistry,
        router: FleetRouter,
        *,
        sink: Optional[MetricsSink] = None,
    ):
        self.registry = registry
        self.router = router
        self.sink: MetricsSink = NullSink() if sink is None else SafeSink(sink)

    # ------------------------------------------------------------------ #
    def deploy(
        self,
        model_id: str,
        *,
        version: Optional[int] = None,
        num_sensors: Optional[int] = None,
        num_features: int = 1,
        model=None,
        dataset=None,
    ) -> ForecasterArtifact:
        """Install a registry version (default live) on the router.

        A tenant not yet routed needs ``num_sensors`` (its city's network
        size) and becomes a fresh deployment; an already-routed tenant is
        hot-swapped in place.
        """
        artifact = self.registry.load(model_id, version, model=model, dataset=dataset)
        if model_id in self.router.models():
            self.router.swap(model_id, artifact)
        else:
            if num_sensors is None:
                raise ValueError(
                    f"first deploy of {model_id!r} needs num_sensors for its stream store"
                )
            self.router.add_model(
                model_id, artifact, num_sensors, num_features=num_features
            )
        return artifact

    def rollback(self, model_id: str, *, model=None, dataset=None) -> int:
        """Registry rollback + hot swap of the re-promoted version.

        ``model``/``dataset`` pass through to the registry load, for
        artifacts whose architecture the model registry cannot rebuild
        from the archive's dataset identity alone.
        """
        version = self.registry.rollback(model_id)
        self.deploy(model_id, model=model, dataset=dataset)
        return version

    # ------------------------------------------------------------------ #
    def retrain(
        self,
        model_id: str,
        dataset,
        *,
        policy: Optional[RetrainPolicy] = None,
        force: bool = False,
    ) -> Dict[str, object]:
        """Drift response: fine-tune -> validate on holdout -> promote + swap.

        ``dataset`` is the recent-regime data to fine-tune on (its val
        split is the held-back validation set).  Unless ``force``, the
        tenant's drift detector must have tripped.  Returns a report with
        the candidate/live holdout MAEs and what was done; the swap only
        happens when the candidate wins the validation gate.
        """
        policy = policy or RetrainPolicy()
        started = time.perf_counter()
        verdict = self.router.drift_status(model_id)
        if not (force or verdict["drifted"]):
            return {
                "model_id": model_id,
                "action": "skipped",
                "reason": "no drift detected",
                "drift": verdict,
            }

        live = self.router.live_artifact(model_id)
        candidate_model = copy.deepcopy(live.model)
        for parameter in candidate_model.parameters():
            parameter.requires_grad = True

        trainer = Trainer(
            candidate_model,
            dataset,
            WindowSpec(live.history, live.horizon),
            TrainerConfig(
                lr=policy.lr,
                epochs=policy.epochs,
                batch_size=policy.batch_size,
                max_batches_per_epoch=policy.max_batches,
                eval_batches=policy.eval_batches,
                seed=policy.seed,
            ),
        )
        history = trainer.fit()
        candidate = ForecasterArtifact(
            candidate_model,
            scaler=dataset.scaler,
            model_name=live.model_name,
            history=live.history,
            horizon=live.horizon,
            metadata={"fine_tuned_from": live.model_id},
        )

        candidate_mae = holdout_mae(candidate, dataset, policy)
        live_mae = holdout_mae(live, dataset, policy)
        accepted = candidate_mae <= policy.accept_margin * live_mae
        version = self.registry.publish(
            model_id,
            candidate,
            metrics={
                "holdout_mae": candidate_mae,
                "live_holdout_mae": live_mae,
                "fine_tune_epochs": history.epochs_run,
            },
            labels={"trigger": "forced" if force else "drift"},
            dataset_name=getattr(dataset, "name", None),
            dataset_profile=getattr(dataset, "profile", None),
            promote=accepted,
        )
        report: Dict[str, object] = {
            "model_id": model_id,
            "action": "swapped" if accepted else "rejected",
            "candidate_version": version,
            "candidate_mae": candidate_mae,
            "live_mae": live_mae,
            "accept_margin": policy.accept_margin,
            "fine_tune_epochs": history.epochs_run,
            "drift": verdict,
            "seconds": time.perf_counter() - started,
        }
        if accepted:
            candidate.metadata["registry"] = {"model_id": model_id, "version": version}
            swap = self.router.swap(model_id, candidate, version=version)
            report["swap"] = swap
        self.sink.emit({"event": "fleet_retrain", "time": time.time(), **report})
        return report

    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, object]:
        """Registry + router joint view, per routed tenant."""
        block: Dict[str, object] = {}
        routed = self.router.snapshot()["tenants"]
        for model_id, tenant in routed.items():
            try:
                registry_live = self.registry.live_version(model_id)
                versions = len(self.registry.versions(model_id))
            except RegistryError:
                registry_live, versions = None, 0
            block[model_id] = {
                **tenant,
                "registry_live": registry_live,
                "registry_versions": versions,
            }
        return block
