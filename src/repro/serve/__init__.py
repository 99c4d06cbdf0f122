"""Online inference: frozen artifacts served with micro-batching and SLOs.

``repro.serve`` turns a trained forecaster into a production request path:

* :class:`ForecasterArtifact` — a checkpoint promoted to a frozen,
  eval-mode model with a pure ``predict(window) -> horizon`` function that
  runs under :class:`repro.tensor.inference_mode` (no graph, no gradient
  buffers, no op tracing).
* :class:`StreamStateStore` — per-sensor ring buffers of the last W
  observations, with online imputation of gaps at read time; each data
  version's window is materialized once, as a read-only :class:`LiveWindow`.
* :class:`MicroBatcher` — coalesces concurrent requests into one batched
  forward (bounded batch size; lingers for companions, up to a bound, only
  while callers have been seen to be concurrent).
* :class:`PredictionCache` — TTL/LRU cache keyed on (model id, window
  fingerprint, horizon), invalidated whenever new observations arrive.
* :class:`ServingEngine` — the request path wiring all of the above plus a
  :class:`repro.resilience.CircuitBreaker` and a classical persistence
  fallback, with latency/batch/cache metrics streamed to a
  :class:`repro.obs.MetricsSink`.

``python -m repro.harness serve-bench`` load-tests the whole stack end to
end and writes ``results/serve_bench.json``; see DESIGN.md "Serving".
"""

from .artifact import (
    ARTIFACT_VERSION,
    ForecasterArtifact,
    load_artifact,
    save_artifact,
)
from .batcher import MicroBatcher
from .cache import PredictionCache, fingerprint_window
from .engine import ForecastResult, ServeConfig, ServingEngine
from .metrics import Distribution, LatencyHistogram, ServingStats
from .state import LiveWindow, StreamStateStore

__all__ = [
    "ARTIFACT_VERSION",
    "ForecasterArtifact",
    "save_artifact",
    "load_artifact",
    "StreamStateStore",
    "LiveWindow",
    "MicroBatcher",
    "PredictionCache",
    "fingerprint_window",
    "ServingEngine",
    "ServeConfig",
    "ForecastResult",
    "LatencyHistogram",
    "Distribution",
    "ServingStats",
]
