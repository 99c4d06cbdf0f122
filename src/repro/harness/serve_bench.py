"""Serving load benchmark: the whole ``repro.serve`` stack under fire.

``python -m repro.harness serve-bench`` exercises the online inference
engine end to end and writes ``<out>/serve_bench.json``:

1. **Train** a real model (default ST-WA on PEMS08, smoke scale) with
   checkpointing, then promote the schema-v2 checkpoint to a frozen
   :class:`repro.serve.ForecasterArtifact` (plus a save/load round-trip of
   the standalone artifact archive).
2. **Inference mode** — time the artifact's :class:`repro.tensor.
   inference_mode` forward against the same weights with autodiff graph
   construction enabled; the report records both and the speedup.
3. **Executor comparison** — serve the same request stream once through
   the default ``inference`` backend and once through
   ``ExecutorSpec(kind="compiled")`` (trace-once/replay-many,
   :mod:`repro.compile`); p50/p95/p99 request latencies land side by side
   in the report, and every SLO report event is stamped with the
   ``executor_kind`` that produced it.
4. **Load phase** — replay the test split as a live stream into a
   :class:`repro.serve.ServingEngine` while concurrent client threads
   request forecasts: micro-batch coalescing, cache hits on repeated
   queries, invalidation on every ingest.  The report carries the phase's
   batch-size histogram and the batcher's linger outcomes, which show that
   concurrent load still coalesces.
5. **Fault drill** — a forward pre-hook makes the model raise; requests
   must degrade to the persistence fallback, the circuit breaker must open,
   and service must recover once the fault clears.
6. **SLO gate** — p95 latency is checked against ``--slo-p95-ms``; the
   subcommand exits nonzero if the SLO fails, any drill fails, or the
   cache never hit.  ``--fast`` shrinks everything to the CI budget.
"""

from __future__ import annotations

import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..baselines import BuildSpec, build_from_spec
from ..data import WindowSpec
from ..exec import ExecutorSpec
from ..obs import ListSink
from ..serve import ForecasterArtifact, ServeConfig, ServingEngine, load_artifact
from ..tensor import Tensor
from ..training import Trainer, TrainerConfig, latest_checkpoint
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset

HISTORY = 12
HORIZON = 12
DATASET = "PEMS08"  # smallest simulated network: serve-bench is about the engine


def _train_artifact(
    model_name: str, dataset, settings: RunSettings, ckpt_dir: Path
) -> Tuple[ForecasterArtifact, Dict]:
    """Short real training run -> schema-v2 checkpoint -> frozen artifact."""
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    trainer = Trainer(
        build_from_spec(model_name, spec),
        dataset,
        WindowSpec(HISTORY, HORIZON),
        TrainerConfig(
            lr=settings.lr,
            epochs=settings.epochs,
            batch_size=settings.batch_size,
            patience=settings.patience,
            max_batches_per_epoch=settings.max_batches,
            eval_batches=settings.eval_batches,
            seed=settings.seed,
            checkpoint_dir=ckpt_dir,
        ),
    )
    history = trainer.fit()
    checkpoint = latest_checkpoint(ckpt_dir)
    if checkpoint is None:
        raise RuntimeError(f"training left no checkpoint in {ckpt_dir}")
    artifact = ForecasterArtifact.from_training_checkpoint(
        checkpoint,
        build_from_spec(model_name, spec),
        scaler=dataset.scaler,
        model_name=model_name,
        history=HISTORY,
        horizon=HORIZON,
    )
    info = {
        "epochs_run": history.epochs_run,
        "best_val_mae": min(history.val_mae) if history.val_mae else None,
        "checkpoint": checkpoint.name,
    }
    return artifact, info


def _roundtrip(artifact: ForecasterArtifact, dataset, path: Path, window: np.ndarray) -> Dict:
    """Save/load the standalone artifact archive; forecasts must match."""
    artifact.save(
        path, dataset_name=dataset.name, dataset_profile=dataset.profile, seed=0
    )
    reloaded = load_artifact(path, dataset=dataset)
    match = bool(np.allclose(artifact.predict(window), reloaded.predict(window)))
    return {
        "path": str(path),
        "model_id_match": reloaded.model_id == artifact.model_id,
        "forecast_match": match,
        "ok": match and reloaded.model_id == artifact.model_id,
    }


def _time_inference_vs_grad(artifact: ForecasterArtifact, window: np.ndarray, repeats: int) -> Dict:
    """Same weights, same input: inference_mode vs graph-building forward."""
    scaled = artifact.scaler.transform(window[None])

    artifact.predict(window)  # warm both paths' caches once
    start = time.perf_counter()
    for _ in range(repeats):
        artifact.predict(window)
    inference_s = (time.perf_counter() - start) / repeats

    # grad-enabled control: thaw the parameters so the forward records the
    # full autodiff graph, exactly as a training step would
    for parameter in artifact.model.parameters():
        parameter.requires_grad = True
    try:
        artifact.model(Tensor(scaled))
        start = time.perf_counter()
        for _ in range(repeats):
            artifact.model(Tensor(scaled))
        grad_s = (time.perf_counter() - start) / repeats
    finally:
        artifact.freeze()

    return {
        "repeats": repeats,
        "inference_ms": 1e3 * inference_s,
        "grad_ms": 1e3 * grad_s,
        "speedup": grad_s / inference_s if inference_s > 0 else float("inf"),
    }


def _executor_comparison(artifact: ForecasterArtifact, dataset, requests: int) -> Dict:
    """Same artifact, same request stream: inference vs compiled serving.

    Each backend serves ``requests`` forecasts for *distinct* windows (so
    the prediction cache never masks the model path) through its own
    :class:`ServingEngine`, and the report places their p50/p95/p99 request
    latencies side by side.  The compiled engine pays its one-off plan
    trace during a warm-up forward issued *before* the timed requests, so
    the quantiles compare steady-state replay against steady-state
    ``inference_mode`` — exactly the serving regime the compiled backend
    targets (single-window micro-batches).
    """
    stream = dataset.test_raw
    backends: Dict[str, Dict] = {}
    for spec in (ExecutorSpec.inference(), ExecutorSpec.compiled()):
        config = ServeConfig(
            max_batch_size=1,
            max_wait_ms=0.0,
            deadline_ms=10_000.0,
            executor=spec,
        )
        with ServingEngine(artifact, num_sensors=dataset.num_sensors, config=config) as engine:
            # warm outside the stats window: the compiled path traces its
            # plan here, the inference path warms any lazy module caches
            engine._predict_batch(stream[None, :, :HISTORY, :])
            for i in range(requests):
                engine.forecast(stream[:, 1 + i : 1 + i + HISTORY, :])
            latency = engine.snapshot()["latency"]
            backends[spec.kind] = {
                "executor_kind": engine.executor_kind,
                "requests": requests,
                "p50_ms": latency["p50_ms"],
                "p95_ms": latency["p95_ms"],
                "p99_ms": latency["p99_ms"],
                "fallbacks": engine.stats.fallbacks,
            }
    inference_p50 = backends["inference"]["p50_ms"]
    compiled_p50 = backends["compiled"]["p50_ms"]
    return {
        "requests": requests,
        "inference": backends["inference"],
        "compiled": backends["compiled"],
        "p50_speedup": inference_p50 / compiled_p50 if compiled_p50 > 0 else float("inf"),
        # informational comparison; the hard speedup gate lives in
        # ``repro.harness bench --check``.  Serving it without a single
        # fallback is the correctness bar here.
        "ok": backends["compiled"]["fallbacks"] == 0 and backends["inference"]["fallbacks"] == 0,
    }


def _load_phase(
    engine: ServingEngine, dataset, ticks: int, clients: int, rounds_per_tick: int = 2
) -> Dict:
    """Replay the test stream; concurrent clients query between ticks.

    Each tick fires ``rounds_per_tick`` rounds of ``clients`` concurrent
    requests: round one misses the (just-invalidated) cache and coalesces in
    the micro-batcher; later rounds hit the cache.
    """
    stream = dataset.test_raw  # (N, T, F), raw units
    total = stream.shape[1]
    for t in range(HISTORY):  # warm the ring to a full window
        engine.ingest(stream[:, t % total, :])
    sources = {"model": 0, "cache": 0, "fallback": 0}
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for tick in range(ticks):
            engine.ingest(stream[:, (HISTORY + tick) % total, :])
            for _ in range(rounds_per_tick):
                results = list(pool.map(lambda _: engine.forecast(), range(clients)))
                for result in results:
                    sources[result.source] += 1
    return {
        "ticks": ticks,
        "clients": clients,
        "requests": int(sum(sources.values())),
        "sources": sources,
        "batches_run": engine.batcher.batches_run,
        "batch_size_histogram": engine.stats.batch_sizes.histogram(),
        "linger": engine.stats.linger_summary(),
    }


def _fault_drill(engine: ServingEngine, dataset, windows: int) -> Dict:
    """Break the model, demand graceful degradation, then demand recovery."""
    handle = engine.artifact.model.register_forward_pre_hook(
        lambda module, args: (_ for _ in ()).throw(RuntimeError("injected model fault"))
    )
    stream = dataset.test_raw
    reasons = []
    try:
        for i in range(windows):
            # distinct explicit windows so the cache cannot mask the fault
            window = stream[:, i : i + HISTORY, :]
            result = engine.forecast(window)
            reasons.append(result.reason or result.source)
            if not result.ok and result.forecast.shape != (
                dataset.num_sensors,
                HORIZON,
                stream.shape[2],
            ):
                raise AssertionError("fallback forecast has the wrong shape")
    finally:
        handle.remove()
    all_fallback = all(r != "model" for r in reasons)
    circuit_opened = engine.circuit.opens >= 1
    time.sleep(engine.config.cooldown_s + 0.01)  # let the half-open probe through
    recovered = engine.forecast(stream[:, windows : windows + HISTORY, :]).source == "model"
    return {
        "injected_requests": windows,
        "reasons": reasons,
        "all_served_degraded": all_fallback,
        "circuit_opened": circuit_opened,
        "recovered": recovered,
        "ok": all_fallback and circuit_opened and recovered,
    }


def run(
    settings: Optional[RunSettings] = None,
    out_dir: "Path | str" = "results",
    fast: bool = False,
    model_name: str = "st-wa",
    slo_p95_ms: float = 500.0,
) -> Tuple[TableResult, Dict]:
    """Run the full serving benchmark; returns the table and the JSON report."""
    settings = settings or RunSettings.smoke()
    if fast:
        settings = settings.with_overrides(epochs=2, max_batches=3, eval_batches=2)
    ticks, clients, repeats = (6, 4, 3) if fast else (12, 6, 10)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = get_dataset(DATASET, settings.profile)
    ckpt_dir = out_dir / "serve_ckpt"

    artifact, train_info = _train_artifact(model_name, dataset, settings, ckpt_dir)
    probe = dataset.test_raw[:, :HISTORY, :]
    roundtrip = _roundtrip(artifact, dataset, ckpt_dir / "artifact.npz", probe)
    timing = _time_inference_vs_grad(artifact, probe, repeats)
    executors = _executor_comparison(artifact, dataset, requests=5 * clients)

    sink = ListSink()
    config = ServeConfig(
        max_batch_size=max(2, clients),
        max_wait_ms=5.0,
        cache_ttl_s=60.0,
        deadline_ms=10_000.0,  # generous: SLO gating is the latency judge, not the deadline
        failure_threshold=3,
        cooldown_s=0.05,
        sink=sink,
    )
    with ServingEngine(artifact, num_sensors=dataset.num_sensors, config=config) as engine:
        load = _load_phase(engine, dataset, ticks=ticks, clients=clients)
        fault = _fault_drill(engine, dataset, windows=config.failure_threshold + 2)
        snapshot = engine.snapshot()
        slo = engine.stats.slo_report(p95_ms=slo_p95_ms)
    shutil.rmtree(ckpt_dir, ignore_errors=True)  # bench scratch, not a result

    cache_hit_rate = snapshot["cache_hit_rate"]
    ok = bool(
        slo["ok"] and fault["ok"] and roundtrip["ok"] and executors["ok"] and cache_hit_rate > 0
    )
    report = {
        "schema": 1,
        "model": model_name,
        "dataset": DATASET,
        "scope": settings.scope,
        "fast": fast,
        "train": train_info,
        "artifact": {"model_id": artifact.model_id, "roundtrip": roundtrip},
        "inference_mode": timing,
        "executor_comparison": executors,
        "load": load,
        "fault_injection": fault,
        "serving": snapshot,
        "events": {
            "total": len(sink.events),
            "fallback": len(sink.of_type("fallback")),
            "serve_batch": len(sink.of_type("serve_batch")),
        },
        "slo": slo,
        "ok": ok,
    }
    out_path = out_dir / "serve_bench.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    latency = snapshot["latency"]
    rows = [
        [
            "train->artifact",
            "PASS" if roundtrip["ok"] else "FAIL",
            f"{artifact.model_id} from {train_info['checkpoint']}, roundtrip ok",
        ],
        [
            "inference_mode",
            "PASS" if timing["speedup"] > 1.0 else "FAIL",
            f"{fmt(timing['inference_ms'])} ms vs {fmt(timing['grad_ms'])} ms grad "
            f"({fmt(timing['speedup'])}x)",
        ],
        [
            "executors",
            "PASS" if executors["ok"] else "FAIL",
            f"compiled p50/p95/p99 {fmt(executors['compiled']['p50_ms'])}/"
            f"{fmt(executors['compiled']['p95_ms'])}/{fmt(executors['compiled']['p99_ms'])} ms "
            f"vs inference {fmt(executors['inference']['p50_ms'])}/"
            f"{fmt(executors['inference']['p95_ms'])}/{fmt(executors['inference']['p99_ms'])} ms "
            f"({fmt(executors['p50_speedup'])}x p50)",
        ],
        [
            "load",
            "PASS" if cache_hit_rate > 0 else "FAIL",
            f"{load['requests']} req, {load['batches_run']} batches, "
            f"hit rate {fmt(cache_hit_rate)}",
        ],
        [
            "batcher",
            "INFO",
            f"load batch sizes {load['batch_size_histogram']}; lingered "
            f"{load['linger']['lingered']} ({load['linger']['with_company']} in company), "
            f"at once {load['linger']['at_once']}",
        ],
        [
            "latency",
            "PASS" if slo["ok"] else "FAIL",
            f"p50 {fmt(latency['p50_ms'])} / p95 {fmt(latency['p95_ms'])} / "
            f"p99 {fmt(latency['p99_ms'])} ms (SLO p95 < {fmt(slo_p95_ms, 0)})",
        ],
        [
            "fault_drill",
            "PASS" if fault["ok"] else "FAIL",
            f"degraded={fault['all_served_degraded']}, circuit={fault['circuit_opened']}, "
            f"recovered={fault['recovered']}",
        ],
    ]
    table = TableResult(
        experiment_id="serve_bench",
        title=f"Serving load benchmark ({model_name}, {DATASET}, {settings.scope})",
        headers=["phase", "status", "detail"],
        rows=rows,
        notes=[f"full report: {out_path}"],
        extras={"report": report},
    )
    return table, report
