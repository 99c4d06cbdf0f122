"""TTL prediction cache keyed on (model id, window fingerprint, horizon).

Forecasts are pure functions of (model weights, input window, horizon), so
identical concurrent queries — the common case when many users watch the
same corridor between stream ticks — can share one forward pass.  Entries
expire two ways:

* **TTL** — wall-clock staleness bound, for deployments that ingest
  irregularly;
* **data version** — every entry is stamped with the
  :class:`repro.serve.state.StreamStateStore` version it was computed from,
  and :meth:`PredictionCache.invalidate_before` (called by the engine on
  every ingest) drops entries computed from older state.

The fingerprint is a content hash, so a live read and an explicit window
with the same contents share one entry.  Explicit windows are hashed on
every lookup; the live window's digest is computed once per data version
and stored on its :class:`repro.serve.state.LiveWindow` record, which the
engine keys through :meth:`PredictionCache.digest_key`.

Capacity is bounded with LRU eviction.  The clock is injectable so tests
control time.  Entries are private read-only copies: a caller that writes
into a served forecast gets an error instead of corrupting later hits.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

CacheKey = Tuple[str, str, int]


def fingerprint_window(window: np.ndarray) -> str:
    """Stable content hash of an input window (dtype/shape-sensitive)."""
    window = np.ascontiguousarray(window)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(window.shape).encode())
    digest.update(window.dtype.str.encode())
    digest.update(window.tobytes())
    return digest.hexdigest()


class PredictionCache:
    """Bounded TTL + data-version cache of forecast arrays."""

    def __init__(
        self,
        ttl_seconds: float = 30.0,
        capacity: int = 256,
        clock: Optional[Callable[[], float]] = None,
    ):
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ttl_seconds = ttl_seconds
        self.capacity = capacity
        self._clock = clock if clock is not None else time.monotonic
        self._entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def make_key(model_id: str, window: np.ndarray, horizon: int) -> CacheKey:
        return PredictionCache.digest_key(model_id, fingerprint_window(window), horizon)

    @staticmethod
    def digest_key(model_id: str, digest: str, horizon: int) -> CacheKey:
        """Key for a window whose :func:`fingerprint_window` digest is known."""
        return (model_id, digest, int(horizon))

    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """Return the cached forecast, or None on miss/expiry."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, stored_at, _version = entry
            if now - stored_at > self.ttl_seconds:
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: np.ndarray, data_version: int = 0) -> None:
        """Insert a read-only copy of a forecast computed from ``data_version``."""
        value = np.array(value)
        value.setflags(write=False)
        with self._lock:
            self._entries[key] = (value, self._clock(), int(data_version))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_before(self, data_version: int, model_id: Optional[str] = None) -> int:
        """Drop entries computed from state older than ``data_version``.

        The engine calls this on every ingest so a fresh observation is
        never shadowed by a pre-ingest forecast; returns the drop count.

        ``model_id`` scopes the invalidation to one tenant's entries: in a
        shared cache (fleet deployments, several models per process) one
        tenant's ingest advances only *its* stream, so evicting other
        models' fresh entries by bare data version would let tenant A's
        traffic cold-start tenant B.  ``None`` keeps the old evict-all
        behaviour for single-model caches.
        """
        with self._lock:
            stale = [
                k
                for k, (_, _, v) in self._entries.items()
                if v < data_version and (model_id is None or k[0] == model_id)
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "ttl_seconds": self.ttl_seconds,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
