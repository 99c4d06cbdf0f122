"""Multi-tenant routing over live serving engines: swap, shadow, A/B, shed.

A :class:`FleetRouter` owns one :class:`repro.serve.ServingEngine` per live
deployment and routes requests by ``model_id`` (the per-city tenant key).
On top of plain routing it provides the fleet's zero-downtime moves:

* **Admission control** — each tenant admits at most
  ``max_inflight`` concurrent requests; excess load is shed immediately
  with a cheap persistence forecast and ``source="shed"`` instead of
  queueing behind the model, so one tenant's overload cannot blow every
  tenant's p99.
* **Atomic hot swap** — :meth:`FleetRouter.swap` installs a new artifact
  under the tenant lock, lets the old engine *drain* its in-flight
  requests, then closes it.  Requests admitted before the swap complete on
  the old engine; requests admitted after run on the new one; none are
  dropped.
* **Primary/shadow** — :meth:`FleetRouter.start_shadow` mirrors every
  served window to a shadow artifact *off the hot path* (a bounded queue
  and one worker thread); per-pair divergence (MAE and percent
  disagreement) streams through the :class:`repro.obs.MetricsSink` as
  ``shadow_divergence`` events.
* **Weighted A/B** — :meth:`FleetRouter.set_ab` serves a deterministic
  fraction of requests (error-diffusion weighting, no RNG flakiness) from
  a candidate engine; every response is stamped with the arm and registry
  version that produced it.
* **Drift watch** — each ingest compares the new observations against the
  first horizon step the live model predicted for that tick and feeds the
  residual to the tenant's :class:`repro.fleet.DriftDetector`; the trip
  edge is emitted as a ``drift`` event for the lifecycle layer to act on.

All engines of one tenant share a single
:class:`repro.serve.StreamStateStore`, so shadow and A/B arms see exactly
the state the primary serves from and a swap needs no stream warmup.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..obs import MetricsSink, NullSink, SafeSink
from ..serve import ForecasterArtifact, ServeConfig, ServingEngine, StreamStateStore
from .drift import DriftDetector, DriftPolicy


class UnknownModelError(KeyError):
    """A request named a tenant the router does not serve."""


@dataclass
class FleetConfig:
    """Knobs of the fleet routing plane."""

    max_inflight: int = 8  # per-tenant admission bound; excess -> shed
    shadow_queue: int = 64  # bounded shadow-compare backlog; full -> skip
    disagree_tol: float = 0.05  # relative threshold for percent disagreement
    drain_timeout_s: float = 30.0  # swap waits this long for the old engine
    drift: DriftPolicy = field(default_factory=DriftPolicy)
    serve: Optional[ServeConfig] = None  # template for per-tenant engines
    sink: Optional[MetricsSink] = None  # fleet events (swap/shed/shadow/drift)


@dataclass
class FleetResult:
    """One routed forecast plus full fleet provenance."""

    model_id: str  # tenant key
    forecast: np.ndarray  # (N, U, F), raw units
    source: str  # "model" | "cache" | "fallback" | "shed"
    arm: str  # "primary" | "candidate" | "shed"
    version: Optional[int]  # registry version of the serving artifact
    latency_s: float
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.source in ("model", "cache")


class _TenantSink(SafeSink):
    """Stamp tenant identity on engine events; never closes the shared sink."""

    def __init__(self, sink: MetricsSink, model_id: str, version: Optional[int]):
        super().__init__(sink)
        self._stamp = {"tenant": model_id, "artifact_version": version}

    def emit(self, event: Mapping[str, object]) -> None:
        super().emit({**event, **self._stamp})

    def close(self) -> None:
        pass  # the router owns the underlying sink's lifetime


class _Handle:
    """One live engine plus its in-flight accounting (for draining)."""

    def __init__(self, engine: ServingEngine, version: Optional[int], arm: str):
        self.engine = engine
        self.version = version
        self.arm = arm
        self.requests = 0
        self._inflight = 0
        self._cond = threading.Condition()

    def acquire(self) -> None:
        with self._cond:
            self._inflight += 1
            self.requests += 1

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def drain(self, timeout: float) -> bool:
        """Wait for in-flight requests to finish; True when fully drained."""
        with self._cond:
            return self._cond.wait_for(lambda: self._inflight == 0, timeout=timeout)


class _Tenant:
    """Per-tenant routing state: store, handles, drift, admission counters."""

    def __init__(
        self,
        model_id: str,
        store: StreamStateStore,
        primary: _Handle,
        drift: DriftDetector,
    ):
        self.model_id = model_id
        self.store = store
        self.primary = primary
        self.candidate: Optional[_Handle] = None
        self.ab_weight = 0.0
        self._ab_acc = 0.0
        self.shadow_artifact: Optional[ForecasterArtifact] = None
        self.shadow_version: Optional[int] = None
        self.shadow_stats = {"compared": 0, "skipped": 0, "mae_sum": 0.0, "disagree_sum": 0.0}
        self.drift = drift
        self.lock = threading.Lock()
        self.inflight = 0
        self.sheds = 0
        self.requests = 0
        self.swaps = 0
        #: (data_version, first-step forecast) awaiting its observed tick
        self.pending: Optional[tuple] = None

    def handles(self) -> List[_Handle]:
        with self.lock:
            return [h for h in (self.primary, self.candidate) if h is not None]

    def pick(self) -> _Handle:
        """Weighted A/B arm selection by error diffusion (deterministic)."""
        if self.candidate is None or self.ab_weight <= 0.0:
            return self.primary
        self._ab_acc += self.ab_weight
        if self._ab_acc >= 1.0:
            self._ab_acc -= 1.0
            return self.candidate
        return self.primary

    @property
    def horizon(self) -> int:
        return self.primary.engine.artifact.horizon


class FleetRouter:
    """Route forecasts across N tenants' live engines (see module docstring)."""

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        self.sink: MetricsSink = (
            NullSink() if self.config.sink is None else SafeSink(self.config.sink)
        )
        self._tenants: Dict[str, _Tenant] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._shadow_queue: "queue.Queue" = queue.Queue(maxsize=self.config.shadow_queue)
        self._shadow_worker = threading.Thread(
            target=self._shadow_loop, name="repro-fleet-shadow", daemon=True
        )
        self._shadow_worker.start()

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def _build_engine(
        self,
        model_id: str,
        artifact: ForecasterArtifact,
        store: StreamStateStore,
        version: Optional[int],
    ) -> ServingEngine:
        template = self.config.serve or ServeConfig()
        config = replace(
            template, sink=_TenantSink(self.sink, model_id, version)
        )
        return ServingEngine(
            artifact,
            num_sensors=store.num_sensors,
            num_features=store.num_features,
            config=config,
            store=store,
        )

    @staticmethod
    def _registry_version(artifact: ForecasterArtifact, version: Optional[int]) -> Optional[int]:
        if version is not None:
            return int(version)
        return artifact.registry_version

    def add_model(
        self,
        model_id: str,
        artifact: ForecasterArtifact,
        num_sensors: int,
        *,
        num_features: int = 1,
        version: Optional[int] = None,
    ) -> None:
        """Deploy ``artifact`` as tenant ``model_id``'s primary engine."""
        version = self._registry_version(artifact, version)
        store = StreamStateStore(
            num_sensors,
            window=artifact.history,
            num_features=num_features,
            impute_method=(self.config.serve or ServeConfig()).impute_method,
        )
        engine = self._build_engine(model_id, artifact, store, version)
        tenant = _Tenant(
            model_id,
            store,
            _Handle(engine, version, "primary"),
            DriftDetector(self.config.drift),
        )
        with self._lock:
            if self._closed:
                engine.close()
                raise RuntimeError("FleetRouter is closed")
            if model_id in self._tenants:
                engine.close()
                raise ValueError(
                    f"tenant {model_id!r} is already deployed; use swap() to replace it"
                )
            self._tenants[model_id] = tenant
        self._emit(
            {"event": "fleet_deploy", "tenant": model_id, "version": version}
        )

    def remove_model(self, model_id: str, drain_timeout_s: Optional[float] = None) -> None:
        """Undeploy a tenant: drain every arm, then close its engines."""
        with self._lock:
            tenant = self._tenants.pop(model_id, None)
        if tenant is None:
            raise UnknownModelError(model_id)
        timeout = self.config.drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        for handle in tenant.handles():
            handle.drain(timeout)
            handle.engine.close()

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def _tenant(self, model_id: str) -> _Tenant:
        with self._lock:
            tenant = self._tenants.get(model_id)
        if tenant is None:
            raise UnknownModelError(
                f"no tenant {model_id!r} deployed (have: {self.models()})"
            )
        return tenant

    def live_artifact(self, model_id: str) -> ForecasterArtifact:
        return self._tenant(model_id).primary.engine.artifact

    def live_version(self, model_id: str) -> Optional[int]:
        return self._tenant(model_id).primary.version

    def drift_status(self, model_id: str) -> Dict[str, object]:
        tenant = self._tenant(model_id)
        with tenant.lock:
            return tenant.drift.check()

    # ------------------------------------------------------------------ #
    # ingest path
    # ------------------------------------------------------------------ #
    def ingest(self, model_id: str, values: np.ndarray, sensor_ids=None) -> int:
        """Advance a tenant's stream one tick; feeds caches and drift watch.

        The shared store ticks exactly once; every live arm's prediction
        cache is invalidated against the new data version.  For full-network
        ticks the newly observed values are compared against the first
        horizon step the live model forecast for this tick (when one
        exists), and the residual drives the tenant's drift detector.
        """
        tenant = self._tenant(model_id)
        with tenant.lock:
            pending = tenant.pending
            tenant.pending = None
            pre_version = tenant.store.version
        version = tenant.store.ingest(values, sensor_ids=sensor_ids)
        for handle in tenant.handles():
            handle.engine.invalidate_stale(version)
        if pending is not None and pending[0] == pre_version and sensor_ids is None:
            observed = np.asarray(values, dtype=np.float64).reshape(pending[1].shape)
            residual = float(np.nanmean(np.abs(observed - pending[1])))
            if np.isfinite(residual):
                with tenant.lock:
                    tripped = tenant.drift.record(residual)
                    verdict = tenant.drift.check() if tripped else None
                if verdict is not None:
                    self._emit({"event": "drift", "tenant": model_id, **verdict})
        return version

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def forecast(self, model_id: str, window: Optional[np.ndarray] = None) -> FleetResult:
        """Serve one forecast for a tenant, under admission control.

        Never raises for capacity or model problems: over-admission sheds
        (``source="shed"``), and everything past admission inherits the
        engine's own degradation ladder (cache/model/fallback).
        """
        start = time.perf_counter()
        tenant = self._tenant(model_id)
        if window is None:
            # one record: the version is the one this window was built from
            request = tenant.store.live()
            window, data_version = request.window, request.version
        else:
            window = request = np.asarray(window, dtype=np.float64)
            data_version = tenant.store.version

        with tenant.lock:
            tenant.requests += 1
            if tenant.inflight >= self.config.max_inflight:
                tenant.sheds += 1
                handle = None
                live_version = tenant.primary.version
            else:
                handle = tenant.pick()
                handle.acquire()
                tenant.inflight += 1
        if handle is None:
            forecast = np.repeat(window[:, -1:, :], tenant.horizon, axis=1)
            latency = time.perf_counter() - start
            self._emit(
                {
                    "event": "fleet_shed",
                    "tenant": model_id,
                    "version": live_version,
                    "latency_ms": 1e3 * latency,
                }
            )
            return FleetResult(
                model_id=model_id,
                forecast=forecast,
                source="shed",
                arm="shed",
                version=live_version,
                latency_s=latency,
                reason="admission_overload",
            )

        try:
            result = handle.engine.forecast(request)
        finally:
            handle.release()
            with tenant.lock:
                tenant.inflight -= 1

        if result.source in ("model", "cache"):
            with tenant.lock:
                tenant.pending = (data_version, result.forecast[:, 0, :].copy())
            self._submit_shadow(tenant, window, result.forecast, handle.version)
        return FleetResult(
            model_id=model_id,
            forecast=result.forecast,
            source=result.source,
            arm=handle.arm,
            version=handle.version,
            latency_s=time.perf_counter() - start,
            reason=result.reason,
        )

    # ------------------------------------------------------------------ #
    # hot swap
    # ------------------------------------------------------------------ #
    def swap(
        self,
        model_id: str,
        artifact: ForecasterArtifact,
        *,
        version: Optional[int] = None,
        drain_timeout_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Atomically replace a tenant's primary engine; old traffic drains.

        The new engine shares the tenant's stream store, is warmed before
        installation, and takes over for every request admitted after the
        pointer flip; requests already in flight complete on the old engine,
        which is closed only once fully drained.  The drift detector is
        rearmed to recalibrate against the new model.
        """
        tenant = self._tenant(model_id)
        version = self._registry_version(artifact, version)
        engine = self._build_engine(model_id, artifact, tenant.store, version)
        window, _mask = tenant.store.window()
        artifact.predict(window)  # warm the forward path off the request path
        new_handle = _Handle(engine, version, "primary")
        with tenant.lock:
            old = tenant.primary
            tenant.primary = new_handle
            tenant.swaps += 1
            tenant.pending = None
            tenant.drift.reset()
        timeout = self.config.drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        drained = old.drain(timeout)
        old.engine.close()
        report = {
            "event": "fleet_swap",
            "tenant": model_id,
            "from_version": old.version,
            "to_version": version,
            "drained": drained,
            "old_requests": old.requests,
        }
        self._emit(report)
        return dict(report)

    # ------------------------------------------------------------------ #
    # shadow deployment
    # ------------------------------------------------------------------ #
    def start_shadow(
        self,
        model_id: str,
        artifact: ForecasterArtifact,
        *,
        version: Optional[int] = None,
    ) -> None:
        """Mirror served windows to ``artifact`` off the hot path."""
        tenant = self._tenant(model_id)
        version = self._registry_version(artifact, version)
        with tenant.lock:
            tenant.shadow_artifact = artifact
            tenant.shadow_version = version
            tenant.shadow_stats = {
                "compared": 0, "skipped": 0, "mae_sum": 0.0, "disagree_sum": 0.0
            }
        self._emit(
            {"event": "fleet_shadow_start", "tenant": model_id, "version": version}
        )

    def stop_shadow(self, model_id: str) -> Dict[str, object]:
        """Detach the shadow; returns the accumulated divergence summary."""
        tenant = self._tenant(model_id)
        with tenant.lock:
            stats = dict(tenant.shadow_stats)
            version = tenant.shadow_version
            tenant.shadow_artifact = None
            tenant.shadow_version = None
            tenant.shadow_stats = {
                "compared": 0, "skipped": 0, "mae_sum": 0.0, "disagree_sum": 0.0
            }
        compared = stats["compared"]
        return {
            "version": version,
            "compared": compared,
            "skipped": stats["skipped"],
            "mean_mae": stats["mae_sum"] / compared if compared else float("nan"),
            "mean_disagree_pct": (
                100.0 * stats["disagree_sum"] / compared if compared else float("nan")
            ),
        }

    def promote_shadow(self, model_id: str) -> Dict[str, object]:
        """Swap the current shadow artifact in as primary."""
        tenant = self._tenant(model_id)
        with tenant.lock:
            artifact, version = tenant.shadow_artifact, tenant.shadow_version
        if artifact is None:
            raise ValueError(f"tenant {model_id!r} has no shadow deployment")
        summary = self.stop_shadow(model_id)
        report = self.swap(model_id, artifact, version=version)
        report["shadow"] = summary
        return report

    def _submit_shadow(self, tenant, window, primary_forecast, primary_version) -> None:
        if tenant.shadow_artifact is None:
            return
        try:
            self._shadow_queue.put_nowait(
                (tenant, window, primary_forecast, primary_version)
            )
        except queue.Full:
            with tenant.lock:
                tenant.shadow_stats["skipped"] += 1

    def _shadow_loop(self) -> None:
        while True:
            item = self._shadow_queue.get()
            try:
                if item is None:
                    return
                self._shadow_compare(*item)
            finally:
                self._shadow_queue.task_done()

    def _shadow_compare(self, tenant, window, primary_forecast, primary_version) -> None:
        with tenant.lock:
            artifact, version = tenant.shadow_artifact, tenant.shadow_version
        if artifact is None:
            return
        try:
            shadow_forecast = artifact.predict(window)
        except Exception as error:  # a broken shadow must not kill the loop
            self._emit(
                {
                    "event": "shadow_error",
                    "tenant": tenant.model_id,
                    "version": version,
                    "reason": f"{type(error).__name__}: {error}",
                }
            )
            return
        diff = np.abs(primary_forecast - shadow_forecast)
        mae = float(np.mean(diff))
        scale = np.maximum(np.abs(primary_forecast), 1.0)
        disagree = float(np.mean(diff > self.config.disagree_tol * scale))
        with tenant.lock:
            if tenant.shadow_artifact is artifact:
                tenant.shadow_stats["compared"] += 1
                tenant.shadow_stats["mae_sum"] += mae
                tenant.shadow_stats["disagree_sum"] += disagree
        self._emit(
            {
                "event": "shadow_divergence",
                "tenant": tenant.model_id,
                "primary_version": primary_version,
                "shadow_version": version,
                "mae": mae,
                "disagree_pct": 100.0 * disagree,
            }
        )

    def drain_shadow(self, timeout_s: float = 10.0) -> bool:
        """Block until the shadow queue is empty (tests and benches)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._shadow_queue.unfinished_tasks == 0:
                return True
            time.sleep(0.005)
        return self._shadow_queue.unfinished_tasks == 0

    # ------------------------------------------------------------------ #
    # weighted A/B
    # ------------------------------------------------------------------ #
    def set_ab(
        self,
        model_id: str,
        artifact: ForecasterArtifact,
        weight: float,
        *,
        version: Optional[int] = None,
    ) -> None:
        """Serve ``weight`` of the tenant's traffic from a candidate engine."""
        if not 0.0 < weight < 1.0:
            raise ValueError(f"A/B weight must be in (0, 1), got {weight}")
        tenant = self._tenant(model_id)
        if tenant.candidate is not None:
            raise ValueError(
                f"tenant {model_id!r} already has an A/B candidate; conclude it first"
            )
        version = self._registry_version(artifact, version)
        engine = self._build_engine(model_id, artifact, tenant.store, version)
        window, _mask = tenant.store.window()
        artifact.predict(window)  # warm off the request path
        with tenant.lock:
            tenant.candidate = _Handle(engine, version, "candidate")
            tenant.ab_weight = float(weight)
            tenant._ab_acc = 0.0
        self._emit(
            {
                "event": "fleet_ab_start",
                "tenant": model_id,
                "version": version,
                "weight": float(weight),
            }
        )

    def conclude_ab(self, model_id: str, promote: bool) -> Dict[str, object]:
        """End the A/B test; optionally promote the candidate to primary.

        Either way the losing engine drains before closing; returns per-arm
        request counts and latency summaries for the comparison record.
        """
        tenant = self._tenant(model_id)
        with tenant.lock:
            candidate = tenant.candidate
            if candidate is None:
                raise ValueError(f"tenant {model_id!r} has no A/B candidate")
            tenant.candidate = None
            tenant.ab_weight = 0.0
            primary = tenant.primary
            if promote:
                tenant.primary = candidate
                candidate.arm = "primary"
                tenant.swaps += 1
                tenant.pending = None
                tenant.drift.reset()
        loser = primary if promote else candidate
        arms = {
            "primary": {
                "version": primary.version,
                "requests": primary.requests,
                "latency": primary.engine.stats.latency.summary(),
            },
            "candidate": {
                "version": candidate.version,
                "requests": candidate.requests,
                "latency": candidate.engine.stats.latency.summary(),
            },
        }
        drained = loser.drain(self.config.drain_timeout_s)
        loser.engine.close()
        report = {
            "event": "fleet_ab_conclude",
            "tenant": model_id,
            "promoted": bool(promote),
            "live_version": (candidate if promote else primary).version,
            "drained": drained,
            "arms": arms,
        }
        self._emit(report)
        return dict(report)

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def _emit(self, event: Dict[str, object]) -> None:
        self.sink.emit({**event, "time": time.time()})

    def snapshot(self) -> Dict[str, object]:
        """Per-tenant gauge block: versions, admission, drift, shadow, SLOs."""
        tenants = {}
        with self._lock:
            items = list(self._tenants.items())
        for model_id, tenant in items:
            with tenant.lock:
                block = {
                    "live_version": tenant.primary.version,
                    "requests": tenant.requests,
                    "sheds": tenant.sheds,
                    "swaps": tenant.swaps,
                    "inflight": tenant.inflight,
                    "ab_weight": tenant.ab_weight,
                    "candidate_version": (
                        tenant.candidate.version if tenant.candidate else None
                    ),
                    "shadow_version": tenant.shadow_version,
                    "drift": tenant.drift.check(),
                }
            block["engine"] = tenant.primary.engine.snapshot()
            tenants[model_id] = block
        return {"tenants": tenants, "models": sorted(t for t, _ in items)}

    def close(self) -> None:
        """Drain the shadow worker and close every tenant's engines."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tenants = list(self._tenants.values())
            self._tenants.clear()
        self._shadow_queue.put(None)
        self._shadow_worker.join(timeout=5.0)
        for tenant in tenants:
            for handle in tenant.handles():
                handle.drain(self.config.drain_timeout_s)
                handle.engine.close()
        self.sink.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
