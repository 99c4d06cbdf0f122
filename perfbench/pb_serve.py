"""``serve-fleet``: an open loop at one fixed rate through ``FleetRouter``.

One ST-WA tenant on simulated PEMS08 (``fast``) is served with the default
``ServeConfig``, so forwards run on the artifact's ``InferenceExecutor``.
A single load thread replays a schedule fixed by the seed: every tick is
one ``router.ingest`` (a stream write: store, cache invalidation, drift)
followed by 9 forecast reads.  The first read names the live window and
the second a seeded historical what-if window; both miss.  The other 7
repeat the live window and must hit the prediction cache.  With the
cache path under p50 and the model path (linger and forward) under p90,
each latency quantile sits inside one population instead of on the
boundary between them.  The live window's cache fill runs on the batcher
thread after its waiter wakes, but the batcher finishes it before it
takes the historical read's batch, so every repeat finds the fill in
place and the hit/miss split repeats exactly, however late the load
thread runs.

Each operation is timed from the moment it was due, so a stall also
charges the operations queued behind it.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.registry import BuildSpec, build_from_spec
from repro.data import load_dataset
from repro.fleet import FleetConfig, FleetRouter
from repro.serve import ForecasterArtifact, ServingEngine

import pb_checks
import pb_measure
import pb_trace

HISTORY = HORIZON = 12
SETUP_REPS = 3
TENANT = "pems08"
OP_INTERVAL_S = 0.020  # 50 operations/s offered
TICK_OPS = 10  # 1 ingest + 9 forecasts: 5 stream ticks/s, 45 forecasts/s
CHECK_P = 0.1  # share of reads compared with ForecasterArtifact.predict
UNIT_TICKS = 10  # a throughput/CPU unit is 2 s of schedule
WARMUP_TICKS = 2


@dataclass(frozen=True)
class Op:
    kind: str  # "ingest" | "forecast"
    window: object  # forecast: "live" or a historical start index
    hit: bool  # forecast expected to be served from the cache
    check: bool  # forecast compared with the artifact afterwards


def build_schedule(seed: int, ticks: int, historical: int) -> List[Op]:
    """The seeded operation order; ``historical`` is the what-if pool size."""
    rng = np.random.default_rng([seed, 7])
    ops: List[Op] = []
    for _ in range(ticks):
        ops.append(Op("ingest", None, False, False))
        ops.append(Op("forecast", "live", False, bool(rng.random() < CHECK_P)))
        ops.append(Op("forecast", int(rng.integers(historical)), False, bool(rng.random() < CHECK_P)))
        for _ in range(TICK_OPS - 3):
            ops.append(Op("forecast", "live", True, bool(rng.random() < CHECK_P)))
    return ops


class _Stream:
    """The tenant's input feed and the benchmark's mirror of its window."""

    def __init__(self, dataset):
        self.rows = dataset.test_raw  # (N, T, F) raw units
        self.history = dataset.val_raw
        self.position = 0
        self.recent: deque = deque(maxlen=HISTORY)

    def next_row(self) -> np.ndarray:
        row = self.rows[:, self.position % self.rows.shape[1], :]
        self.position += 1
        self.recent.append(row)
        return row

    def live_window(self) -> np.ndarray:
        return np.stack(self.recent, axis=1)

    def historical(self, index: int) -> np.ndarray:
        return self.history[:, index : index + HISTORY, :]

    @property
    def historical_count(self) -> int:
        return self.history.shape[1] - HISTORY + 1


def _setup(seed: int):
    dataset = load_dataset("PEMS08", "fast", seed_offset=seed)
    model = build_from_spec(
        "st-wa", BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=seed)
    )
    artifact = ForecasterArtifact(
        model, scaler=dataset.scaler, model_name="st-wa", history=HISTORY, horizon=HORIZON
    )
    router = FleetRouter(FleetConfig())
    router.add_model(TENANT, artifact, dataset.num_sensors)
    stream = _Stream(dataset)
    for _ in range(HISTORY):
        router.ingest(TENANT, stream.next_row())
    warm = build_schedule(seed + 1, WARMUP_TICKS, stream.historical_count)
    for op in warm:
        _execute(router, stream, op)
    return artifact, router, stream


def _execute(router: FleetRouter, stream: _Stream, op: Op):
    if op.kind == "ingest":
        router.ingest(TENANT, stream.next_row())
        return None
    if op.window == "live":
        return router.forecast(TENANT)
    return router.forecast(TENANT, stream.historical(op.window))


def _sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _tenant_counters(router: FleetRouter) -> Dict[str, float]:
    block = router.snapshot()["tenants"][TENANT]
    engine = block["engine"]
    return {
        "sheds": block["sheds"],
        "hits": engine["cache_hits"],
        "misses": engine["cache_misses"],
        "fallbacks": engine["fallbacks"],
        "batch_size_mean": engine["batch_size"].get("mean", 0.0),
        "queue_depth_mean": engine["queue_depth"].get("mean", 0.0),
    }


def run(name: str, seed: int, seconds: float, tracer: Optional[pb_trace.Tracer]) -> Dict[str, object]:
    setup_wall: List[float] = []
    setup_cpu: List[float] = []
    artifact = router = stream = None
    for rep in range(SETUP_REPS):
        if router is not None:
            router.close()
        artifact = router = stream = None
        gc.collect()
        start = time.perf_counter()
        cpu_start = pb_measure.sample_tree()["cpu_s"]
        artifact, router, stream = _setup(seed)
        setup_wall.append(time.perf_counter() - start)
        setup_cpu.append(pb_measure.sample_tree()["cpu_s"] - cpu_start)
    restore = None
    if tracer is not None:
        restore = _install_wrappers(router, artifact, tracer)
    try:
        result = _timed(seed, seconds, artifact, router, stream, tracer, setup_cpu)
        result["info"]["setup_wall_s"] = setup_wall
        return result
    finally:
        if restore is not None:
            restore()
        router.close()
        pb_measure.reap_children()


def _install_wrappers(router, artifact, tracer):
    def note_batch(span, args, result):
        span.attrs["batch"] = int(np.shape(args[1])[0])

    router.forecast = tracer.wrap("fleet.route", router.forecast)
    router.ingest = tracer.wrap("fleet.ingest", router.ingest)
    artifact.executor.predict = tracer.wrap("exec.predict", artifact.executor.predict, note_batch)
    original = ServingEngine.forecast
    ServingEngine.forecast = tracer.wrap("serve.forecast", original)

    def restore():
        ServingEngine.forecast = original

    return restore


def _timed(seed, seconds, artifact, router, stream, tracer, setup_cpu):
    ticks = max(2 * UNIT_TICKS, int(round(seconds / (OP_INTERVAL_S * TICK_OPS))))
    ticks -= ticks % UNIT_TICKS
    schedule = build_schedule(seed, ticks, stream.historical_count)
    switch_op = (ticks // UNIT_TICKS // 2) * UNIT_TICKS * TICK_OPS if tracer else None
    meter = pb_measure.UnitMeter()
    pb_measure.reset_peak_rss()
    due0 = time.perf_counter() + 0.005
    records = []  # (op, due, start, end, result)
    checked = []  # (window, forecast)
    counters_switch = None
    forecasts = 0
    failed = 0
    for i, op in enumerate(schedule):
        due = due0 + i * OP_INTERVAL_S
        _sleep_until(due)
        if i % (UNIT_TICKS * TICK_OPS) == 0:
            meter.mark(forecasts)
        if i == switch_op:
            counters_switch = _tenant_counters(router)
            switch_time = time.perf_counter()
            tracer.recording = True
        if tracer is not None:
            tracer.begin_request(i)
        start = time.perf_counter()
        try:
            result = _execute(router, stream, op)
        except Exception as error:  # an operation that raises is a failed one
            result = error
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_request()
        records.append((op, due, start, end, result))
        if op.kind == "forecast":
            forecasts += 1
            if op.check and not isinstance(result, Exception):
                window = stream.live_window() if op.window == "live" else stream.historical(op.window)
                checked.append((window, result.forecast.copy()))
    _sleep_until(due0 + len(schedule) * OP_INTERVAL_S)
    meter.mark(forecasts)
    end_time = records[-1][3]
    if tracer is not None:
        tracer.recording = False

    wrong_source = 0
    for op, _, _, _, result in records:
        if isinstance(result, Exception):
            failed += 1
        elif op.kind == "forecast":
            if result.source not in ("model", "cache"):
                failed += 1
            elif result.source != ("cache" if op.hit else "model"):
                wrong_source += 1
                failed += 1
    check = pb_checks.compare_forecasts(
        [f for _, f in checked], [artifact.predict(w) for w, _ in checked]
    )
    failed += check["bad"]
    latencies = [end - due for op, due, _, end, _ in records if op.kind == "forecast"]
    lateness = [start - due for _, due, start, _, _ in records]
    hits_expected = sum(op.hit for op in schedule if op.kind == "forecast")
    counters = _tenant_counters(router)
    info = {
        "workload": "serve-fleet", "loop": f"open, 1 load thread, {1 / OP_INTERVAL_S:.0f} ops/s",
        "ops": len(schedule), "forecasts": forecasts, "ingests": len(schedule) - forecasts,
        "expected_hits": hits_expected, "wrong_source": wrong_source,
        "generator_late_ms": {"p50": 1e3 * float(np.percentile(lateness, 50)),
                              "max": 1e3 * max(lateness)},
        "forecast_check": check, "warmup_ticks": WARMUP_TICKS, "setup_reps": SETUP_REPS,
        "units": meter.units,
    }
    result = {
        "info": info,
        "correct": failed == 0 and check["ok"],
        "attempted": len(schedule),
        "failed": failed,
        "setup_cpu_s": setup_cpu,
        "metrics": {
            "samples_per_s": meter.samples_per_s(),
            "latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
            "latency_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
            "cpu_ms_per_sample": meter.cpu_ms_per_sample(),
            "peak_rss_mb": meter.peak_rss_mb,
        },
    }
    if tracer is not None:
        result["layers"], result["attribution"] = _layers(
            tracer, records, switch_op, switch_time, end_time, counters_switch, counters
        )
    return result


def _layers(tracer, records, switch_op, switch_time, end_time, before, after):
    spans = [s for s in tracer.spans if s.start >= switch_time and s.end <= end_time]
    by_id = {s.id: s for s in spans}
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    serve_by_parent = {s.parent: s for s in by_name.get("serve.forecast", [])}
    predicts = by_name.get("exec.predict", [])
    traced = records[switch_op:]
    untraced = records[:switch_op]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    layers = {
        "exec.predict_ms": 1e3 * pb_measure.mean(s.duration for s in predicts),
        "exec.predict_batch_size": pb_measure.mean(s.attrs.get("batch", 0) for s in predicts),
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.linger_ms": 1e3 * pb_measure.mean(
            s.start - by_id[s.parent].start for s in predicts if s.parent in by_id
        ),
        "serve.batch_size_mean": after["batch_size_mean"],
        "serve.queue_depth_mean": after["queue_depth_mean"],
        "serve.fallbacks": after["fallbacks"] - before["fallbacks"],
        "fleet.route_ms": 1e3 * pb_measure.mean(
            s.duration - serve_by_parent[s.id].duration
            for s in by_name.get("fleet.route", []) if s.id in serve_by_parent
        ),
        "fleet.ingest_ms": 1e3 * pb_measure.mean(s.duration for s in by_name.get("fleet.ingest", [])),
        "fleet.sheds": after["sheds"] - before["sheds"],
    }
    end_to_end = sum(end - due for _, due, _, end, _ in traced)
    parts = pb_trace.attribution(tracer.spans, switch_time, end_time, end_to_end)
    layers["unattributed_ms"] = 1e3 * parts["unattributed"] / max(1, len(traced))

    def forecast_mean(rows):
        return pb_measure.mean(end - due for op, due, _, end, _ in rows if op.kind == "forecast")

    layers["trace.overhead_ms"] = 1e3 * (forecast_mean(traced) - forecast_mean(untraced))
    attribution = {"end_to_end_ms": 1e3 * end_to_end, "ops": len(traced),
                   "parts_ms": {k: 1e3 * v for k, v in parts.items()},
                   "top_level_ms": 1e3 * pb_trace.top_level_seconds(tracer.spans, switch_time, end_time)}
    return layers, attribution
