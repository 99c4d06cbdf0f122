"""Parallel-training benchmark: serial equivalence + speedup vs workers.

``python -m repro.harness parallel-bench [--fast]`` runs two gates against
the data-parallel engine (:mod:`repro.parallel`) and writes
``<out>/parallel_bench.json``:

* **Equivalence** — a deterministic model (``st-wa-det``: the full ST-WA
  architecture with deterministic latents) is trained serially and with
  ``n_workers=2`` from the same seed for several epochs; the loss and
  validation trajectories must agree within ``EQUIVALENCE_RTOL`` relative
  tolerance (in practice they agree to ~1e-16: the parallel gradient is the
  same weighted mean serial training computes, merely re-associated).
  This gate is unconditional — it holds on any machine.
* **Speedup** — wall-clock seconds-per-warm-epoch serial vs parallel at
  each worker count.  This gate needs hardware: it is enforced only when
  the host exposes at least two CPU cores to this process
  (``len(os.sched_getaffinity(0))``); on a single-core host the measured
  speedup is still recorded, with ``enforced: false``, because no process
  placement can beat serial on one core.

The exit code is nonzero if the equivalence check fails, or if the speedup
gate is enforced and the best measured speedup falls below ``--min-speedup``
(default 1.3x at 2 workers).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import BuildSpec, build_from_spec
from ..data import WindowSpec
from ..exec import ExecutorSpec
from ..parallel.engine import available_cores
from ..training import Trainer, TrainerConfig, TrainingHistory
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset

HISTORY = 12
HORIZON = 12
DATASET = "PEMS08"  # smallest simulated network: the bench is about the loop
EQUIVALENCE_MODEL = "st-wa-det"  # deterministic latents: exact parallel math
EQUIVALENCE_RTOL = 1e-6
EQUIVALENCE_EPOCHS = 3


def _train(
    model_name: str,
    dataset,
    settings: RunSettings,
    *,
    n_workers: int,
    epochs: int,
    batch_size: int,
    prefetch: bool = True,
) -> Tuple[TrainingHistory, float]:
    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    model = build_from_spec(model_name, spec)
    executor = (
        ExecutorSpec.parallel(n_workers=n_workers, prefetch=prefetch)
        if n_workers >= 2
        else ExecutorSpec.serial()
    )
    config = TrainerConfig(
        lr=settings.lr,
        epochs=epochs,
        batch_size=batch_size,
        patience=10_000,  # fixed-length runs: early stopping would desync timing
        max_batches_per_epoch=settings.max_batches,
        eval_batches=settings.eval_batches,
        seed=settings.seed,
        executor=executor,
    )
    trainer = Trainer(model, dataset, WindowSpec(HISTORY, HORIZON), config)
    start = time.perf_counter()
    history = trainer.fit()
    return history, time.perf_counter() - start


def _max_rel_diff(a: Sequence[float], b: Sequence[float]) -> float:
    left = np.asarray(a, dtype=np.float64)
    right = np.asarray(b, dtype=np.float64)
    if left.shape != right.shape:
        return float("inf")
    scale = np.maximum(np.abs(left), 1e-12)
    return float(np.max(np.abs(left - right) / scale)) if left.size else float("inf")


def _equivalence_check(dataset, settings: RunSettings) -> Dict[str, object]:
    """Serial vs n_workers=2 loss trajectories on a deterministic model."""
    serial, _ = _train(
        EQUIVALENCE_MODEL,
        dataset,
        settings,
        n_workers=0,
        epochs=EQUIVALENCE_EPOCHS,
        batch_size=settings.batch_size,
    )
    parallel, _ = _train(
        EQUIVALENCE_MODEL,
        dataset,
        settings,
        n_workers=2,
        epochs=EQUIVALENCE_EPOCHS,
        batch_size=settings.batch_size,
    )
    loss_diff = _max_rel_diff(serial.train_loss, parallel.train_loss)
    val_diff = _max_rel_diff(serial.val_mae, parallel.val_mae)
    passed = loss_diff <= EQUIVALENCE_RTOL and val_diff <= EQUIVALENCE_RTOL
    return {
        "model": EQUIVALENCE_MODEL,
        "epochs": EQUIVALENCE_EPOCHS,
        "rtol": EQUIVALENCE_RTOL,
        "serial_train_loss": [float(v) for v in serial.train_loss],
        "parallel_train_loss": [float(v) for v in parallel.train_loss],
        "serial_val_mae": [float(v) for v in serial.val_mae],
        "parallel_val_mae": [float(v) for v in parallel.val_mae],
        "max_rel_diff_train_loss": loss_diff,
        "max_rel_diff_val_mae": val_diff,
        "passed": passed,
    }


def run(
    settings: Optional[RunSettings] = None,
    out_dir: Path = Path("results"),
    *,
    fast: bool = False,
    model_name: str = "st-wa",
    worker_counts: Optional[Sequence[int]] = None,
    min_speedup: float = 1.3,
) -> Tuple[TableResult, Dict]:
    """Run the equivalence and speedup gates; write ``parallel_bench.json``."""
    settings = settings or RunSettings.smoke()
    if fast:
        settings = settings.with_overrides(epochs=3, max_batches=4, eval_batches=2)
    counts = list(worker_counts) if worker_counts else ([2] if fast else [2, 4])
    cores = available_cores()
    dataset = get_dataset(DATASET, settings.profile)

    equivalence = _equivalence_check(dataset, settings)

    # speedup: generous batch so each shard amortizes the per-step overhead
    # (weight codec + pipe transfer); warm seconds-per-epoch excludes the
    # first epoch, which pays pool/prefetcher start-up
    bench_epochs = max(3, settings.epochs)
    bench_batch = max(64, settings.batch_size)
    serial_history, serial_wall = _train(
        model_name,
        dataset,
        settings,
        n_workers=0,
        epochs=bench_epochs,
        batch_size=bench_batch,
    )
    serial_epoch = serial_history.seconds_per_epoch_warm
    workers: List[Dict[str, object]] = []
    for count in counts:
        parallel_history, parallel_wall = _train(
            model_name,
            dataset,
            settings,
            n_workers=count,
            epochs=bench_epochs,
            batch_size=bench_batch,
        )
        parallel_epoch = parallel_history.seconds_per_epoch_warm
        workers.append(
            {
                "n_workers": count,
                "seconds_per_epoch_warm": parallel_epoch,
                "wall_seconds": parallel_wall,
                "speedup": serial_epoch / parallel_epoch if parallel_epoch > 0 else 0.0,
            }
        )

    best_speedup = max((w["speedup"] for w in workers), default=0.0)
    enforced = cores >= 2
    speedup_ok = (not enforced) or best_speedup >= min_speedup
    speedup_note = (
        None
        if enforced
        else (
            f"single-core host ({cores} core visible to this process): no "
            "process placement can beat serial here, so the serial-vs-parallel "
            "comparison is recorded but not rendered or enforced"
        )
    )
    report = {
        "host": {"cpu_cores": cores},
        # top-level mirrors for dashboards/jq one-liners: how much hardware
        # the run saw and whether the speedup gate could actually bite
        "cores_detected": cores,
        "speedup_gate_enforced": enforced,
        "model": model_name,
        "scope": settings.scope,
        "fast": fast,
        "bench_epochs": bench_epochs,
        "batch_size": bench_batch,
        "serial": {
            "seconds_per_epoch_warm": serial_epoch,
            "wall_seconds": serial_wall,
        },
        "workers": workers,
        "equivalence": equivalence,
        "speedup_gate": {
            "threshold": min_speedup,
            "enforced": enforced,
            "best_speedup": best_speedup,
            "passed": speedup_ok,
        },
        "all_passed": bool(equivalence["passed"] and speedup_ok),
    }
    if speedup_note is not None:
        report["speedup_note"] = speedup_note

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "parallel_bench.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")

    rows = [
        [
            "serial",
            fmt(serial_epoch, 3),
            "1.00",
            "-",
        ]
    ]
    for worker in workers:
        rows.append(
            [
                f"{worker['n_workers']} workers",
                fmt(worker["seconds_per_epoch_warm"], 3),
                fmt(worker["speedup"], 2),
                "pass" if worker["speedup"] >= min_speedup else ("-" if not enforced else "FAIL"),
            ]
        )
    notes = [
        f"equivalence ({EQUIVALENCE_MODEL}, {EQUIVALENCE_EPOCHS} epochs): "
        f"max rel diff {equivalence['max_rel_diff_train_loss']:.2e} "
        f"(rtol {EQUIVALENCE_RTOL:.0e}) -> "
        + ("PASS" if equivalence["passed"] else "FAIL"),
        f"report written to {json_path}",
    ]
    # the serial-vs-parallel comparison line only renders when the host could
    # actually parallelize; a single-core measurement would just be noise
    if enforced:
        notes.insert(
            1,
            f"speedup gate >= {min_speedup:.2f}x: "
            f"{'PASS' if speedup_ok else 'FAIL'} (best {best_speedup:.2f}x)",
        )
    else:
        notes.insert(1, speedup_note)
    table = TableResult(
        experiment_id="parallel_bench",
        title=f"Data-parallel training: {model_name}, speedup vs workers",
        headers=["configuration", "s/epoch (warm)", "speedup", "gate"],
        rows=rows,
        notes=notes,
        extras={"report": report},
    )
    return table, report
