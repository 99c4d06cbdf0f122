"""Serving-side metrics: latency quantiles, counters, distributions.

The online engine (:mod:`repro.serve.engine`) must answer "are we inside
the SLO?" cheaply and continuously, so this module keeps bounded in-memory
aggregates rather than full traces:

* :class:`LatencyHistogram` — reservoir of request latencies with exact
  quantiles over the retained window (p50/p95/p99 for the SLO check).
* :class:`Distribution` — count/mean/max of an integer-valued stream
  (batch sizes, queue depths).
* per-batch linger outcomes of the micro-batcher
  (:data:`repro.serve.batcher.LINGER_OUTCOMES`).
* :class:`ServingStats` — the engine's aggregate bundle, rendered by
  :meth:`ServingStats.snapshot` into the flat dict that lands in
  ``results/serve_bench.json`` and in ``stats`` events on the
  :class:`repro.obs.MetricsSink`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .batcher import LINGER_OUTCOMES

#: quantiles every latency summary reports, in SLO-speak
QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


class LatencyHistogram:
    """Bounded reservoir of latencies (seconds) with exact quantiles.

    Keeps the most recent ``capacity`` samples (a ring, so long-running
    engines reflect *current* behaviour, not the cold start forever) plus
    all-time count/total for throughput accounting.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._samples = np.empty(capacity, dtype=np.float64)
        self._write = 0
        self._filled = 0
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self._samples[self._write] = seconds
        self._write = (self._write + 1) % self.capacity
        self._filled = min(self._filled + 1, self.capacity)
        self.count += 1
        self.total_seconds += seconds

    def quantile(self, q: float) -> float:
        """Exact quantile over the retained window (NaN when empty)."""
        if self._filled == 0:
            return float("nan")
        return float(np.quantile(self._samples[: self._filled], q))

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else float("nan")

    def summary(self) -> Dict[str, float]:
        """The standard latency block: count, mean, and SLO quantiles (ms)."""
        block = {"count": self.count, "mean_ms": 1e3 * self.mean_seconds}
        for name, q in QUANTILES.items():
            block[f"{name}_ms"] = 1e3 * self.quantile(q)
        return block


class Distribution:
    """Streaming count/mean/max of a non-negative metric (e.g. batch size)."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._counts: Dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = float(value)
        key = int(value)
        self._counts[key] = self._counts.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def histogram(self) -> Dict[str, int]:
        """Exact value -> count map (values are integerized)."""
        return {str(k): v for k, v in sorted(self._counts.items())}

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            "histogram": self.histogram(),
        }


class ServingStats:
    """Aggregate serving metrics bundle owned by the engine.

    The optional identity fields (``model_id``, ``artifact_version``,
    ``executor_kind``) stamp every snapshot and SLO report with *which*
    artifact and backend produced the numbers — without them a fleet's
    A/B or shadow comparison cannot attribute a quantile to a model.
    """

    def __init__(
        self,
        latency_capacity: int = 4096,
        *,
        model_id: Optional[str] = None,
        artifact_version: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ):
        self.latency = LatencyHistogram(latency_capacity)
        self.batch_sizes = Distribution()
        self.queue_depths = Distribution()
        self.linger_outcomes: Dict[str, int] = dict.fromkeys(LINGER_OUTCOMES, 0)
        self.cache_hits = 0
        self.cache_misses = 0
        self.fallbacks = 0
        self.errors = 0
        self.ingests = 0
        self.model_id = model_id
        self.artifact_version = artifact_version
        self.executor_kind = executor_kind

    def identity(self) -> Dict[str, object]:
        """The artifact/backend identity block stamped on reports."""
        return {
            "model_id": self.model_id,
            "artifact_version": self.artifact_version,
            "executor_kind": self.executor_kind,
        }

    @property
    def requests(self) -> int:
        return self.latency.count

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def linger_summary(self) -> Dict[str, int]:
        """Batches that lingered, lingers left in company, batches sent at once."""
        outcomes = self.linger_outcomes
        return {
            "lingered": outcomes["alone"] + outcomes["company"],
            "with_company": outcomes["company"],
            "at_once": outcomes["at_once"],
        }

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-serializable summary (the ``stats`` event payload)."""
        return {
            **self.identity(),
            "requests": self.requests,
            "latency": self.latency.summary(),
            "batch_size": self.batch_sizes.summary(),
            "queue_depth": self.queue_depths.summary(),
            "linger": self.linger_summary(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "fallbacks": self.fallbacks,
            "errors": self.errors,
            "ingests": self.ingests,
        }

    def slo_report(self, p95_ms: Optional[float] = None, p99_ms: Optional[float] = None) -> Dict:
        """Check the latency quantiles against millisecond SLO targets.

        Unset targets pass vacuously; the report carries measured vs target
        per objective, an overall ``ok`` flag, and the artifact/backend
        identity block so fleet comparisons stay attributable.
        """
        objectives: List[Dict[str, object]] = []
        for name, target in (("p95", p95_ms), ("p99", p99_ms)):
            if target is None:
                continue
            measured = 1e3 * self.latency.quantile(QUANTILES[name])
            objectives.append(
                {
                    "objective": f"{name}_ms",
                    "target": float(target),
                    "measured": measured,
                    "ok": bool(np.isfinite(measured) and measured <= target),
                }
            )
        return {
            **self.identity(),
            "ok": all(o["ok"] for o in objectives),
            "objectives": objectives,
        }
