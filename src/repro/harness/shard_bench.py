"""Sensor-sharding gates: serial equivalence, serve identity, city scale.

``python -m repro.harness shard-bench [--fast]`` runs four gates against
the sensor-sharded execution path (:class:`repro.exec.ShardedExecutor`) and
writes ``<out>/shard_bench.json``:

* **Training equivalence** — serial vs ``ExecutorSpec.sharded(n_workers=2)``
  loss trajectories on ``simst`` within ``EQUIVALENCE_RTOL``.
  Unconditional: the all-reduce identity holds on any machine.
* **Serve identity** — a SimST artifact served through
  :class:`repro.serve.ServingEngine` twice, default inference executor vs
  ``ServeConfig(executor=ExecutorSpec.sharded(...))``; forecasts must be
  identical within ``SERVE_ATOL`` (in practice bit-equal: per-sensor
  forwards are slice-invariant).
* **City scale** — SimST at ``city_sensors`` (default N=10k, synthetic
  ring neighbors, no dense adjacency anywhere): one serial training step's
  tracemalloc peak must stay within ``envelope_slack`` × the
  :class:`repro.training.CapacityPlanner` prediction (float64 bytes), the
  sharded executor must train at that N, and its fanned-out forecast must
  equal the in-process forward.
* **Shard memory** — the tracemalloc peak of one sharded step in the
  calling process, which computes shard 0 with the same code a worker
  runs (``sharded_local_peak_gb``), against the planner's per-shard
  prediction (:meth:`repro.training.CapacityPlanner.shard_gb`,
  ``predicted_shard_gb``): the prediction must bound the measured peak and
  stay within ``SHARD_PREDICTION_SLACK`` × of it.
* **Speedup** — seconds per city-scale training step, serial vs sharded.
  Enforced only on multi-core hosts (``speedup_gate_enforced`` /
  ``cores_detected``); a single core cannot beat serial by process
  placement.

Exit code is nonzero unless every enforced gate passes (``all_passed``).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import BuildSpec, build_from_spec
from ..data import WindowSpec
from ..exec import ExecutorSpec, make_executor
from ..parallel.engine import available_cores
from ..training import Trainer, TrainerConfig, TrainingHistory
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset

HISTORY = 12
HORIZON = 12
DATASET = "PEMS08"
EQUIVALENCE_MODELS = ("simst",)
EQUIVALENCE_RTOL = 1e-6
EQUIVALENCE_EPOCHS = 3
SERVE_ATOL = 1e-9
CITY_SENSORS = 10_000
ENVELOPE_SLACK = 2.0  # measured N=10k peak runs ~1.4x the analytic model
SHARD_PREDICTION_SLACK = 2.0  # per-shard prediction / measured caller-shard peak


def _train(
    model_name: str,
    dataset,
    settings: RunSettings,
    *,
    sharded_workers: int,
    epochs: int,
) -> TrainingHistory:
    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    model = build_from_spec(model_name, spec)
    executor = (
        ExecutorSpec.sharded(n_workers=sharded_workers)
        if sharded_workers >= 2
        else ExecutorSpec.serial()
    )
    config = TrainerConfig(
        lr=settings.lr,
        epochs=epochs,
        batch_size=settings.batch_size,
        patience=10_000,
        max_batches_per_epoch=settings.max_batches,
        eval_batches=settings.eval_batches,
        seed=settings.seed,
        executor=executor,
    )
    return Trainer(model, dataset, WindowSpec(HISTORY, HORIZON), config).fit()


def _max_rel_diff(a: Sequence[float], b: Sequence[float]) -> float:
    left = np.asarray(a, dtype=np.float64)
    right = np.asarray(b, dtype=np.float64)
    if left.shape != right.shape:
        return float("inf")
    scale = np.maximum(np.abs(left), 1e-12)
    return float(np.max(np.abs(left - right) / scale)) if left.size else float("inf")


def _equivalence_check(
    dataset, settings: RunSettings, n_workers: int
) -> List[Dict[str, object]]:
    """Serial vs sensor-sharded loss trajectories."""
    checks: List[Dict[str, object]] = []
    for model_name in EQUIVALENCE_MODELS:
        serial = _train(
            model_name, dataset, settings, sharded_workers=0, epochs=EQUIVALENCE_EPOCHS
        )
        sharded = _train(
            model_name,
            dataset,
            settings,
            sharded_workers=n_workers,
            epochs=EQUIVALENCE_EPOCHS,
        )
        loss_diff = _max_rel_diff(serial.train_loss, sharded.train_loss)
        val_diff = _max_rel_diff(serial.val_mae, sharded.val_mae)
        checks.append(
            {
                "model": model_name,
                "shard_axis": "sensor",
                "epochs": EQUIVALENCE_EPOCHS,
                "rtol": EQUIVALENCE_RTOL,
                "max_rel_diff_train_loss": loss_diff,
                "max_rel_diff_val_mae": val_diff,
                "serial_train_loss": [float(v) for v in serial.train_loss],
                "sharded_train_loss": [float(v) for v in sharded.train_loss],
                "passed": loss_diff <= EQUIVALENCE_RTOL and val_diff <= EQUIVALENCE_RTOL,
            }
        )
    return checks


def _serve_identity_check(dataset, settings: RunSettings, n_workers: int) -> Dict[str, object]:
    """ServingEngine forecasts: default inference executor vs sharded fanout."""
    from ..serve import ForecasterArtifact, ServeConfig, ServingEngine

    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    model = build_from_spec("simst", spec)
    artifact = ForecasterArtifact(
        model,
        scaler=dataset.scaler,
        model_name="simst",
        history=HISTORY,
        horizon=HORIZON,
    )
    window = dataset.train_raw[:, -HISTORY:, :]  # raw is (N, T, F) -> (N, H, F)
    with ServingEngine(artifact, num_sensors=dataset.num_sensors) as engine:
        baseline = engine.forecast(window)
    config = ServeConfig(executor=ExecutorSpec.sharded(n_workers=n_workers))
    with ServingEngine(artifact, num_sensors=dataset.num_sensors, config=config) as engine:
        sharded = engine.forecast(window)
        executor_kind = engine.snapshot().get("executor_kind")
    max_diff = float(np.max(np.abs(baseline.forecast - sharded.forecast)))
    return {
        "model": "simst",
        "n_workers": n_workers,
        "atol": SERVE_ATOL,
        "executor_kind": executor_kind,
        "max_abs_diff": max_diff,
        "passed": max_diff <= SERVE_ATOL,
    }


def _build_city_model(num_sensors: int, seed: int):
    """SimST at city scale: synthetic ring neighbors, no dense adjacency."""
    from ..core import SimSTForecaster

    k = 8
    idx = (np.arange(num_sensors)[:, None] + np.arange(1, k + 1)[None, :]) % num_sensors
    wt = np.full((num_sensors, k), 1.0 / k)
    return SimSTForecaster(
        num_sensors,
        history=HISTORY,
        horizon=HORIZON,
        hidden=64,
        embedding_dim=16,
        predictor_hidden=128,
        neighbors=(idx.astype(np.int64), wt),
        seed=seed,
    )


def _city_planner(batch: int):
    """The planner at the city model's dimensions, in float64 bytes."""
    from ..training.memory import CapacityPlanner, ModelDims

    return CapacityPlanner(
        dims=ModelDims(batch=batch, history=HISTORY, horizon=HORIZON, hidden=64, proxies=8),
        bytes_per_element=8,  # this substrate trains in float64
    )


def _city_scale_check(
    num_sensors: int,
    n_workers: int,
    seed: int,
    *,
    envelope_slack: float,
    steps: int,
) -> Dict[str, object]:
    """Train + serve SimST at N sensors inside the planner's envelope."""
    from ..exec.base import eval_forward

    rng = np.random.default_rng(seed)
    batch = 4
    x = rng.standard_normal((batch, num_sensors, HISTORY, 1))
    y = rng.standard_normal((batch, num_sensors, HORIZON, 1))

    planner = _city_planner(batch)
    predicted_gb = planner.family_gb("per_sensor", num_sensors)
    envelope_gb = predicted_gb * envelope_slack
    predicted_shard_gb = planner.shard_gb("per_sensor", num_sensors, n_workers)

    model = _build_city_model(num_sensors, seed)
    serial_seconds: List[float] = []
    with make_executor(model, ExecutorSpec.serial()) as executor:
        tracemalloc.start()
        for _ in range(max(1, steps)):
            start = time.perf_counter()
            executor.train_step(None, (x, y))
            serial_seconds.append(time.perf_counter() - start)
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        expected = eval_forward(model, x[:1])
    measured_gb = peak_bytes / 1024**3

    sharded_model = _build_city_model(num_sensors, seed)
    sharded_seconds: List[float] = []
    with make_executor(sharded_model, ExecutorSpec.sharded(n_workers=n_workers)) as executor:
        shard_axis = executor.shard_axis
        for _ in range(max(1, steps)):
            start = time.perf_counter()
            executor.train_step(None, (x, y))
            sharded_seconds.append(time.perf_counter() - start)
        # one more (untimed) step traced in this process, which computes
        # shard 0 beside the workers with the code a worker runs
        tracemalloc.start()
        executor.train_step(None, (x, y))
        _, local_peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # reset to the serial model's initial weights so the fanned-out
        # forecast is comparable with the in-process one
        sharded_model.load_state_dict(model.state_dict())
        forecast = executor.predict(None, x[:1])
    serve_diff = float(np.max(np.abs(forecast - expected)))
    local_peak_gb = local_peak_bytes / 1024**3
    shard_ratio = predicted_shard_gb / local_peak_gb if local_peak_gb > 0 else float("inf")

    return {
        "num_sensors": int(num_sensors),
        "batch": batch,
        "n_workers": n_workers,
        "shard_axis": shard_axis,
        "steps": int(max(1, steps)),
        "predicted_gb": predicted_gb,
        "envelope_slack": envelope_slack,
        "envelope_gb": envelope_gb,
        "measured_peak_gb": measured_gb,
        "within_envelope": measured_gb <= envelope_gb,
        "sharded_local_peak_gb": local_peak_gb,
        "shard_memory": {
            "predicted_shard_gb": predicted_shard_gb,
            "ratio": shard_ratio,
            "slack": SHARD_PREDICTION_SLACK,
            "passed": 1.0 <= shard_ratio <= SHARD_PREDICTION_SLACK,
        },
        "serial_step_seconds": serial_seconds,
        "sharded_step_seconds": sharded_seconds,
        "serve_max_abs_diff": serve_diff,
        "serve_identical": serve_diff <= SERVE_ATOL,
        "passed": measured_gb <= envelope_gb and serve_diff <= SERVE_ATOL,
    }


def run(
    settings: Optional[RunSettings] = None,
    out_dir: Path = Path("results"),
    *,
    fast: bool = False,
    model_name: str = "simst",
    n_workers: int = 2,
    city_sensors: int = CITY_SENSORS,
    city_steps: int = 3,
    envelope_slack: float = ENVELOPE_SLACK,
    min_speedup: float = 1.1,
) -> Tuple[TableResult, Dict]:
    """Run the sharding gates; write ``shard_bench.json``."""
    settings = settings or RunSettings.smoke()
    if fast:
        settings = settings.with_overrides(epochs=3, max_batches=4, eval_batches=2)
        city_steps = min(city_steps, 2)
    cores = available_cores()
    dataset = get_dataset(DATASET, settings.profile)

    equivalence = _equivalence_check(dataset, settings, n_workers)
    serve_identity = _serve_identity_check(dataset, settings, n_workers)
    city = _city_scale_check(
        city_sensors,
        n_workers,
        settings.seed,
        envelope_slack=envelope_slack,
        steps=city_steps,
    )

    # speedup from the city-scale step timings (skip the first sharded step:
    # it pays worker-pool warm-up); at city N the per-step compute dwarfs
    # the weight/shard pipe transport, which is where sensor sharding wins
    serial_step = float(np.mean(city["serial_step_seconds"]))
    warm_sharded = city["sharded_step_seconds"][1:] or city["sharded_step_seconds"]
    sharded_step = float(np.mean(warm_sharded))
    speedup = serial_step / sharded_step if sharded_step > 0 else 0.0
    enforced = cores >= 2
    speedup_ok = (not enforced) or speedup >= min_speedup

    equivalence_ok = all(check["passed"] for check in equivalence)
    report = {
        "host": {"cpu_cores": cores},
        "cores_detected": cores,
        "speedup_gate_enforced": enforced,
        "model": model_name,
        "scope": settings.scope,
        "fast": fast,
        "n_workers": n_workers,
        "equivalence": equivalence,
        "serve_identity": serve_identity,
        "city_scale": city,
        "speedup_gate": {
            "threshold": min_speedup,
            "enforced": enforced,
            "serial_step_seconds": serial_step,
            "sharded_step_seconds": sharded_step,
            "speedup": speedup,
            "passed": speedup_ok,
        },
        "all_passed": bool(
            equivalence_ok
            and serve_identity["passed"]
            and city["passed"]
            and city["shard_memory"]["passed"]
            and speedup_ok
        ),
    }
    if not enforced:
        report["speedup_note"] = (
            f"single-core host ({cores} core visible to this process): the "
            "serial-vs-sharded step comparison is recorded but not enforced"
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "shard_bench.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")

    rows = []
    for check in equivalence:
        rows.append(
            [
                f"train equivalence ({check['model']}, {check['shard_axis']})",
                f"rel diff {check['max_rel_diff_train_loss']:.2e}",
                f"rtol {EQUIVALENCE_RTOL:.0e}",
                "pass" if check["passed"] else "FAIL",
            ]
        )
    rows.append(
        [
            "serve identity (ServingEngine)",
            f"abs diff {serve_identity['max_abs_diff']:.2e}",
            f"atol {SERVE_ATOL:.0e}",
            "pass" if serve_identity["passed"] else "FAIL",
        ]
    )
    rows.append(
        [
            f"city memory (N={city['num_sensors']})",
            f"{fmt(city['measured_peak_gb'], 3)} GB peak",
            f"envelope {fmt(city['envelope_gb'], 3)} GB",
            "pass" if city["within_envelope"] else "FAIL",
        ]
    )
    shard_memory = city["shard_memory"]
    rows.append(
        [
            f"city shard memory (N={city['num_sensors']}, caller's 1 of {n_workers})",
            f"{fmt(city['sharded_local_peak_gb'], 4)} GB peak",
            f"planner {fmt(shard_memory['predicted_shard_gb'], 4)} GB "
            f"(1-{SHARD_PREDICTION_SLACK:.0f}x)",
            "pass" if shard_memory["passed"] else "FAIL",
        ]
    )
    rows.append(
        [
            f"city serve (N={city['num_sensors']}, {city['shard_axis']}-sharded)",
            f"abs diff {city['serve_max_abs_diff']:.2e}",
            f"atol {SERVE_ATOL:.0e}",
            "pass" if city["serve_identical"] else "FAIL",
        ]
    )
    rows.append(
        [
            f"speedup ({n_workers} shard workers)",
            f"{fmt(speedup, 2)}x",
            f">= {min_speedup:.2f}x" if enforced else "unenforced",
            ("pass" if speedup_ok else "FAIL") if enforced else "-",
        ]
    )
    notes = [f"report written to {json_path}"]
    if not enforced:
        notes.insert(0, report["speedup_note"])
    table = TableResult(
        experiment_id="shard_bench",
        title=f"Sensor sharding: serial equivalence + city scale (N={city_sensors})",
        headers=["gate", "measured", "bound", "verdict"],
        rows=rows,
        notes=notes,
        extras={"report": report},
    )
    return table, report
