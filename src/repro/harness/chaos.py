"""Chaos drills: inject faults into real training runs and verify recovery.

``python -m repro.harness chaos`` runs three scenarios against a smoke-scale
training run and writes ``<out>/chaos_report.json``:

* ``kill_resume``     — train with checkpointing, kill the process partway
  (:class:`repro.resilience.ProcessKillFault`), resume a *fresh* trainer
  from the latest checkpoint, and require the resumed trajectory to match
  an uninterrupted run **bit-exactly** (validation curve and final weights).
* ``nan_gradient``    — poison a gradient with NaN mid-training and require
  the :class:`repro.resilience.RecoveryPolicy` to roll back, back off the
  learning rate, and finish the run (>=1 ``recovery`` event).
* ``sensor_dropout``  — silence 20% of sensors.  The masked pipeline
  (imputed inputs + masked loss/metrics) must stay within 2x the clean
  val-MAE; the unmasked negative control must diverge.

The report's ``all_recovered`` field is the CI gate: the ``chaos``
subcommand exits nonzero unless every scenario passed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..baselines import BuildSpec, build_from_spec
from ..data import TrafficDataset, WindowSpec
from ..obs import ListSink
from ..resilience import (
    FaultInjector,
    NaNGradientFault,
    ProcessKillFault,
    RecoveryPolicy,
    SimulatedCrash,
    inject_sensor_dropout,
)
from ..training import Trainer, latest_checkpoint
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset

HISTORY = 12
HORIZON = 12
DATASET = "PEMS08"  # the smallest simulated dataset: chaos is about the loop
DROPOUT_RATE = 0.2
DEGRADED_MAE_FACTOR = 2.0


def _build(
    model_name: str,
    dataset: TrafficDataset,
    settings: RunSettings,
    **overrides,
) -> Trainer:
    """A fresh model + Trainer configured from ``settings`` (harness style)."""
    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    model = build_from_spec(model_name, spec)
    return Trainer(model, dataset, WindowSpec(HISTORY, HORIZON), settings.trainer_config(**overrides))


def _kill_resume(
    model_name: str, dataset: TrafficDataset, settings: RunSettings, ckpt_dir: Path
) -> Dict:
    """Kill training mid-epoch, resume fresh, demand a bit-exact trajectory."""
    crash_epoch = settings.epochs // 2
    shutil.rmtree(ckpt_dir, ignore_errors=True)

    interrupted = _build(
        model_name,
        dataset,
        settings,
        checkpoint_dir=ckpt_dir,
        batch_hook=FaultInjector([ProcessKillFault(epoch=crash_epoch, batch=0)]),
    )
    crashed = False
    try:
        interrupted.fit()
    except SimulatedCrash:
        crashed = True
    checkpoint = latest_checkpoint(ckpt_dir)

    resumed_trainer = _build(model_name, dataset, settings, checkpoint_dir=ckpt_dir)
    resumed = resumed_trainer.fit(resume_from=checkpoint)

    reference_trainer = _build(model_name, dataset, settings)
    reference = reference_trainer.fit()

    curves_match = resumed.val_mae == reference.val_mae
    resumed_state = resumed_trainer.model.state_dict()
    reference_state = reference_trainer.model.state_dict()
    weights_match = set(resumed_state) == set(reference_state) and all(
        np.array_equal(resumed_state[name], reference_state[name]) for name in reference_state
    )
    return {
        "passed": crashed and checkpoint is not None and curves_match and weights_match,
        "crashed": crashed,
        "crash_epoch": crash_epoch,
        "resumed_from": None if checkpoint is None else checkpoint.name,
        "curves_match": curves_match,
        "weights_match": weights_match,
        "val_mae_resumed": resumed.val_mae,
        "val_mae_reference": reference.val_mae,
    }


def _nan_gradient(model_name: str, dataset: TrafficDataset, settings: RunSettings) -> Dict:
    """Poison a gradient with NaN; the recovery policy must finish the run."""
    fault_epoch = min(1, settings.epochs - 1)
    sink = ListSink()
    trainer = _build(
        model_name,
        dataset,
        settings,
        sink=sink,
        recovery=RecoveryPolicy(),
        batch_hook=FaultInjector([NaNGradientFault(epoch=fault_epoch, batch=0)]),
    )
    completed = False
    error = None
    history = None
    try:
        history = trainer.fit()
        completed = history.epochs_run == settings.epochs
    except Exception as exc:  # a drill must report, not crash the harness
        error = f"{type(exc).__name__}: {exc}"
    recovery_events = sink.of_type("recovery")
    recoveries = history.recoveries if history is not None else 0
    return {
        "passed": completed and recoveries >= 1 and len(recovery_events) >= 1,
        "completed": completed,
        "recoveries": recoveries,
        "recovery_events": len(recovery_events),
        "final_lr": [e["lr"] for e in recovery_events],
        "error": error,
    }


def _sensor_dropout(model_name: str, dataset: TrafficDataset, settings: RunSettings) -> Dict:
    """20% dead sensors: masked pipeline must hold up, unmasked must diverge."""
    clean_trainer = _build(model_name, dataset, settings)
    clean_trainer.fit()
    clean_mae = clean_trainer.evaluate("val", max_batches=settings.eval_batches)["mae"]

    degraded_data = inject_sensor_dropout(dataset, rate=DROPOUT_RATE, seed=settings.seed)
    degraded_trainer = _build(model_name, degraded_data, settings)
    degraded_trainer.fit()
    degraded_mae = degraded_trainer.evaluate("val", max_batches=settings.eval_batches)["mae"]

    poisoned_data = inject_sensor_dropout(
        dataset, rate=DROPOUT_RATE, seed=settings.seed, impute_method=None
    )
    poisoned_trainer = _build(model_name, poisoned_data, settings)
    baseline_diverged = False
    try:
        poisoned_trainer.fit()
    except FloatingPointError:
        baseline_diverged = True

    ratio = float(degraded_mae / clean_mae) if clean_mae > 0 else float("inf")
    within_budget = np.isfinite(degraded_mae) and ratio < DEGRADED_MAE_FACTOR
    return {
        "passed": bool(within_budget and baseline_diverged),
        "dropout_rate": DROPOUT_RATE,
        "clean_val_mae": float(clean_mae),
        "degraded_val_mae": float(degraded_mae),
        "ratio": ratio,
        "max_ratio": DEGRADED_MAE_FACTOR,
        "baseline_diverged": baseline_diverged,
    }


def run(
    settings: Optional[RunSettings] = None,
    out_dir: "Path | str" = "results",
    fast: bool = False,
    model_name: str = "st-wa",
) -> Tuple[TableResult, Dict]:
    """Run every chaos scenario; returns the table and the JSON report."""
    settings = settings or RunSettings.smoke()
    if fast:
        settings = settings.with_overrides(epochs=4, max_batches=3, eval_batches=2)
    elif settings.epochs < 4:
        # kill_resume needs room to crash halfway and keep training after
        settings = settings.with_overrides(epochs=4)
    out_dir = Path(out_dir)
    dataset = get_dataset(DATASET, settings.profile)
    ckpt_dir = out_dir / "chaos_ckpt"

    scenarios = {
        "kill_resume": _kill_resume(model_name, dataset, settings, ckpt_dir),
        "nan_gradient": _nan_gradient(model_name, dataset, settings),
        "sensor_dropout": _sensor_dropout(model_name, dataset, settings),
    }
    shutil.rmtree(ckpt_dir, ignore_errors=True)  # drill scratch, not a result
    report = {
        "model": model_name,
        "dataset": DATASET,
        "scope": settings.scope,
        "epochs": settings.epochs,
        "scenarios": scenarios,
        "all_recovered": all(s["passed"] for s in scenarios.values()),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "chaos_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    rows = []
    rows.append(
        [
            "kill_resume",
            "PASS" if scenarios["kill_resume"]["passed"] else "FAIL",
            f"resumed from {scenarios['kill_resume']['resumed_from']}, "
            f"bit-exact={scenarios['kill_resume']['weights_match']}",
        ]
    )
    rows.append(
        [
            "nan_gradient",
            "PASS" if scenarios["nan_gradient"]["passed"] else "FAIL",
            f"recoveries={scenarios['nan_gradient']['recoveries']}",
        ]
    )
    rows.append(
        [
            "sensor_dropout",
            "PASS" if scenarios["sensor_dropout"]["passed"] else "FAIL",
            f"val-MAE ratio {fmt(scenarios['sensor_dropout']['ratio'])} "
            f"(<{fmt(DEGRADED_MAE_FACTOR, 1)}), baseline diverged="
            f"{scenarios['sensor_dropout']['baseline_diverged']}",
        ]
    )
    table = TableResult(
        experiment_id="chaos",
        title=f"Fault-injection drills ({model_name}, {DATASET}, {settings.scope})",
        headers=["scenario", "status", "detail"],
        rows=rows,
        notes=[f"full report: {out_dir / 'chaos_report.json'}"],
        extras={"report": report},
    )
    return table, report
