"""The online inference engine: ingest -> buffer -> batch -> cache -> model.

:class:`ServingEngine` is the request path of the repo's north-star
deployment story.  One engine owns:

* a :class:`repro.serve.StreamStateStore` fed by :meth:`ServingEngine.ingest`
  (live observations, possibly partial/late);
* a :class:`repro.serve.MicroBatcher` that coalesces concurrent
  :meth:`ServingEngine.forecast` calls into single batched forwards of the
  frozen :class:`repro.serve.ForecasterArtifact`;
* a :class:`repro.serve.PredictionCache` keyed on (model id, window
  fingerprint, horizon), TTL-bounded and invalidated by every ingest;
* a :class:`repro.resilience.CircuitBreaker` plus a classical persistence
  fallback — model exceptions and deadline overruns degrade to a cheap
  last-value forecast (``source="fallback"``) instead of failing the
  request, and repeated failures stop touching the model at all;
* a :class:`repro.serve.metrics.ServingStats` bundle (latency quantiles,
  batch-size/queue-depth distributions, cache hit rate) mirrored as
  structured events on an optional :class:`repro.obs.MetricsSink`.

Request lifecycle (see DESIGN.md "Serving"): cache lookup -> circuit check
-> micro-batched model forward (bounded by ``deadline_ms``) -> cache fill
-> metrics; any failure en route detours to the fallback forecast.

Model forwards run on compiled plans by default
(``ServeConfig.executor = ExecutorSpec.compiled()``): one plan per batch
size, each validated against the interpreter when it is traced, with the
interpreted path as the guarded fallback (and the only path while the
model carries forward hooks).
``ExecutorSpec.serial()`` serves through the artifact's interpreted
``SerialExecutor`` instead.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..baselines.classical import PersistenceForecaster
from ..exec import ExecutorSpec, SerialExecutor, make_executor
from ..obs import MetricsSink, NullSink, SafeSink
from ..resilience import CircuitBreaker
from .artifact import ForecasterArtifact
from .batcher import MicroBatcher
from .cache import PredictionCache, fingerprint_window
from .metrics import ServingStats
from .state import LiveWindow, StreamStateStore


@dataclass
class ServeConfig:
    """Knobs of the online request path."""

    max_batch_size: int = 16  # micro-batcher coalescing limit
    max_wait_ms: float = 2.0  # upper bound on the linger (see repro.serve.batcher)
    cache_ttl_s: float = 30.0  # prediction staleness bound
    cache_capacity: int = 256
    deadline_ms: Optional[float] = 1000.0  # per-request budget; overrun -> fallback
    failure_threshold: int = 3  # consecutive failures before the circuit opens
    cooldown_s: float = 2.0  # open-circuit probe interval
    impute_method: str = "last"  # ring-buffer gap fill
    sink: Optional[MetricsSink] = None  # structured serve events (JSONL etc.)
    latency_capacity: int = 4096  # latency reservoir size
    #: prediction backend: compiled trace-once/replay-many plans
    #: (repro.compile) with transparent interpreted fallback;
    #: ExecutorSpec.serial() (or None) -> the artifact's SerialExecutor
    executor: Optional[ExecutorSpec] = ExecutorSpec.compiled()


@dataclass
class ForecastResult:
    """One served forecast plus its provenance."""

    forecast: np.ndarray  # (N, U, F), raw units
    source: str  # "model" | "cache" | "fallback"
    latency_s: float
    reason: str = ""  # fallback cause, empty otherwise
    batched: bool = False

    @property
    def ok(self) -> bool:
        return self.source != "fallback"


class ServingEngine:
    """Serve forecasts from a frozen artifact over a live sensor stream."""

    def __init__(
        self,
        artifact: ForecasterArtifact,
        num_sensors: int,
        num_features: int = 1,
        config: Optional[ServeConfig] = None,
        store: Optional[StreamStateStore] = None,
    ):
        self.artifact = artifact
        self.config = config or ServeConfig()
        if store is not None:
            # fleet deployments share one stream store across the primary,
            # shadow, and A/B engines of a tenant — shapes must agree
            if (
                store.num_sensors != num_sensors
                or store.window_size != artifact.history
                or store.num_features != num_features
            ):
                raise ValueError(
                    f"shared store has shape (N={store.num_sensors}, "
                    f"W={store.window_size}, F={store.num_features}) but the "
                    f"engine needs (N={num_sensors}, W={artifact.history}, "
                    f"F={num_features})"
                )
            self.store = store
        else:
            self.store = StreamStateStore(
                num_sensors,
                window=artifact.history,
                num_features=num_features,
                impute_method=self.config.impute_method,
            )
        self.cache = PredictionCache(
            ttl_seconds=self.config.cache_ttl_s, capacity=self.config.cache_capacity
        )
        self.circuit = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            cooldown_s=self.config.cooldown_s,
            on_transition=self._on_circuit_transition,
        )
        # degraded path: a persistence forecast through its own serial
        # executor — raw units in/out, no scaler, and never the model
        self._fallback_executor = SerialExecutor(
            PersistenceForecaster(artifact.history, artifact.horizon),
            history=artifact.history,
        ).open()
        self.sink: MetricsSink = (
            NullSink() if self.config.sink is None else SafeSink(self.config.sink)
        )
        self._observed = self.config.sink is not None
        # the batcher's forward runs through the repro.exec seam — by
        # default compiled plans, one per batch size; kind="serial" keeps
        # the artifact's own SerialExecutor
        spec = self.config.executor
        if spec is not None and spec.kind != "serial":
            self.executor_kind = spec.kind
            self._model_executor = make_executor(
                artifact.model,
                spec,
                scaler=artifact.scaler,
                history=artifact.history,
            ).open()
            self._owns_model_executor = True
        else:
            self.executor_kind = "serial"
            self._model_executor = artifact.executor
            self._owns_model_executor = False
        # identity-stamped stats: every snapshot / SLO report names the
        # artifact (and its fleet-registry version) plus the backend, so
        # fleet A/B and shadow comparisons stay attributable
        self.stats = ServingStats(
            self.config.latency_capacity,
            model_id=artifact.model_id,
            artifact_version=artifact.registry_version,
            executor_kind=self.executor_kind,
        )
        self.batcher = MicroBatcher(
            self._predict_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_wait_ms / 1e3,
            on_batch=self._record_batch,
        )

    # ------------------------------------------------------------------ #
    # ingest path
    # ------------------------------------------------------------------ #
    def ingest(self, values: np.ndarray, sensor_ids=None) -> int:
        """Feed one stream tick; invalidates forecasts built on older state."""
        version = self.store.ingest(values, sensor_ids=sensor_ids)
        self.invalidate_stale(version)
        return version

    def invalidate_stale(self, version: int) -> int:
        """Drop this engine's cached forecasts computed before ``version``.

        Split out from :meth:`ingest` for fleet deployments where several
        engines share one stream store: the router ticks the store once and
        calls this hook on every arm.  Invalidation is scoped to this
        engine's ``model_id`` so tenants sharing a cache never evict each
        other.
        """
        dropped = self.cache.invalidate_before(version, model_id=self.artifact.model_id)
        self.stats.ingests += 1
        if self._observed and dropped:
            self.sink.emit(
                {"event": "cache_invalidate", "version": version, "dropped": dropped}
            )
        return dropped

    def _on_circuit_transition(self, from_state: str, to_state: str) -> None:
        """Mirror breaker flaps (closed→open→half-open) onto the sink."""
        if self._observed:
            self.sink.emit(
                {
                    "event": "circuit_transition",
                    "from": from_state,
                    "to": to_state,
                    "model_id": self.artifact.model_id,
                    "time": time.time(),
                }
            )

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def forecast(
        self, window: Union[np.ndarray, LiveWindow, None] = None
    ) -> ForecastResult:
        """Serve one forecast for ``window`` (default: the live stream state).

        A :class:`~repro.serve.state.LiveWindow` (what ``store.live()``
        returns) is served as the live read it records: its window, the
        data version it was built from and its stored digest.  An explicit
        array is hashed on every call.

        Never raises for model-side problems: exceptions, deadline overruns
        and an open circuit all degrade to the persistence fallback with
        ``source="fallback"`` and an explanatory ``reason``.
        """
        start = time.perf_counter()
        if window is None:
            window = self.store.live()
        if isinstance(window, LiveWindow):
            data_version, digest = window.version, window.digest
            window = window.window
        else:
            window = np.asarray(window, dtype=np.float64)
            data_version, digest = self.store.version, fingerprint_window(window)
        key = self.cache.digest_key(self.artifact.model_id, digest, self.artifact.horizon)

        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return self._finish(cached, "cache", start)
        self.stats.cache_misses += 1

        if not self.circuit.allow():
            self.stats.fallbacks += 1
            return self._finish(self._fallback(window), "fallback", start, reason="circuit_open")

        timeout = None if self.config.deadline_ms is None else self.config.deadline_ms / 1e3
        future = self.batcher.submit(window)
        # late results still warm the cache for the next identical query
        future.add_done_callback(self._make_cache_filler(key, data_version))
        try:
            forecast = future.result(timeout=timeout)
        except FutureTimeoutError:
            self.stats.fallbacks += 1
            self.circuit.record_failure()
            return self._finish(
                self._fallback(window), "fallback", start, reason="deadline_overrun"
            )
        except Exception as error:
            self.stats.fallbacks += 1
            self.stats.errors += 1
            self.circuit.record_failure()
            return self._finish(
                self._fallback(window),
                "fallback",
                start,
                reason=f"{type(error).__name__}: {error}",
            )
        self.circuit.record_success()
        # the cache filler copies this same array, possibly after we return
        forecast.setflags(write=False)
        return self._finish(forecast, "model", start, batched=True)

    def _make_cache_filler(self, key, data_version):
        def fill(future) -> None:
            if future.cancelled() or future.exception() is not None:
                return
            self.cache.put(key, future.result(), data_version)

        return fill

    def _predict_batch(self, windows: np.ndarray) -> np.ndarray:
        """Micro-batched model forward through the configured executor."""
        return self._model_executor.predict(None, windows)

    def _fallback(self, window: np.ndarray) -> np.ndarray:
        """Classical persistence forecast in raw units (never the model)."""
        return self._fallback_executor.predict(None, window)

    def _finish(
        self,
        forecast: np.ndarray,
        source: str,
        start: float,
        reason: str = "",
        batched: bool = False,
    ) -> ForecastResult:
        latency = time.perf_counter() - start
        self.stats.latency.record(latency)
        if self._observed:
            event = {
                "event": "request",
                "source": source,
                "executor_kind": self.executor_kind,
                "latency_ms": 1e3 * latency,
                "time": time.time(),
            }
            if reason:
                event["reason"] = reason
            self.sink.emit(event)
            if source == "fallback":
                self.sink.emit(
                    {"event": "fallback", "reason": reason, "time": time.time()}
                )
        return ForecastResult(
            forecast=forecast, source=source, latency_s=latency, reason=reason, batched=batched
        )

    def _record_batch(
        self, batch_size: int, queue_depth: int, wait_seconds: float, linger: str
    ) -> None:
        self.stats.batch_sizes.record(batch_size)
        self.stats.queue_depths.record(queue_depth)
        self.stats.linger_outcomes[linger] += 1
        if self._observed:
            self.sink.emit(
                {
                    "event": "serve_batch",
                    "batch_size": batch_size,
                    "queue_depth": queue_depth,
                    "wait_ms": 1e3 * wait_seconds,
                    "linger": linger,
                }
            )

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Full observability snapshot: stats + cache + store + circuit."""
        snap = self.stats.snapshot()
        snap["cache"] = self.cache.stats()
        snap["store"] = self.store.snapshot()
        snap["circuit"] = self.circuit.snapshot()
        snap["model_id"] = self.artifact.model_id
        snap["executor_kind"] = self.executor_kind
        return snap

    def slo_report(
        self, p95_ms: Optional[float] = None, p99_ms: Optional[float] = None
    ) -> dict:
        """Latency SLO check annotated with the serving executor backend.

        Delegates to :meth:`repro.serve.metrics.ServingStats.slo_report` and
        stamps ``executor_kind`` so the report (and the mirrored sink event)
        records *which* prediction backend produced the measured quantiles.
        """
        report = self.stats.slo_report(p95_ms=p95_ms, p99_ms=p99_ms)
        report["executor_kind"] = self.executor_kind
        if self._observed:
            self.sink.emit({"event": "slo_report", "time": time.time(), **report})
        return report

    def close(self) -> None:
        self.batcher.close()
        if self._owns_model_executor:
            self._model_executor.close()
        self._fallback_executor.close()
        self.sink.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
