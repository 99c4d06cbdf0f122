"""Micro-batching queue: coalesce concurrent forecasts into one forward.

A single NumPy forward pass over a ``(B, N, H, F)`` batch costs far less
than B passes over ``(1, N, H, F)`` — exactly the batching economics the
serving literature optimizes for.  :class:`MicroBatcher` owns one worker
thread and a queue: request threads :meth:`~MicroBatcher.submit` a window
and block on the returned future; the worker drains up to
``max_batch_size`` requests per cycle.

Lingering — waiting up to ``max_wait_s`` after the first request for
companions — pays only while callers are concurrent, so the worker
lingers only while it has seen them be:

* lingering starts on, so the first concurrent burst coalesces;
* a linger that ends with its first request still alone turns it off,
  and from then on a batch is dispatched at once with whatever is queued;
* a cycle that finds two or more requests already queued (they piled up
  behind a busy forward) turns it back on.

A steady stream of lone requests therefore pays one linger per batcher
lifetime, and concurrent load lingers exactly as a fixed linger would.
Every batch reports its outcome (:data:`LINGER_OUTCOMES`) to the observer.

A batch that fails mid-forward fails all of its requests — each future
carries the exception, and the engine's per-request fallback takes over
from there.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple

import numpy as np

#: forward fn contract: stacked (B, N, H, F) windows -> (B, N, U, F) forecasts
BatchForward = Callable[[np.ndarray], np.ndarray]

#: how a batch left the queue: dispatched without lingering, or after a
#: linger that ended with its first request alone / in company
LINGER_OUTCOMES = ("at_once", "alone", "company")

#: metrics callback: (batch_size, queue_depth_at_drain, wait_seconds, outcome);
#: the wait runs from the oldest request's submit to dispatch (queue + linger)
BatchObserver = Callable[[int, int, float, str], None]

#: a queued request: (window, future, perf_counter() at submit)
_Request = Tuple[np.ndarray, "Future[np.ndarray]", float]


class MicroBatcher:
    """Coalesces concurrent single-window requests into batched forwards."""

    def __init__(
        self,
        forward: BatchForward,
        max_batch_size: int = 16,
        max_wait_s: float = 0.002,
        on_batch: Optional[BatchObserver] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.forward = forward
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.on_batch = on_batch
        self._queue: List[_Request] = []
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._closed = False
        self._lingering = True  # guarded by _lock; see the module docstring
        self.batches_run = 0
        self.requests_seen = 0
        self._worker = threading.Thread(target=self._run, name="repro-serve-batcher", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    def submit(self, window: np.ndarray) -> "Future[np.ndarray]":
        """Enqueue one ``(N, H, F)`` window; resolves to its ``(N, U, F)`` forecast."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 3:
            raise ValueError(f"expected a (N, H, F) window, got shape {window.shape}")
        future: "Future[np.ndarray]" = Future()
        with self._work_available:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append((window, future, time.perf_counter()))
            self.requests_seen += 1
            self._work_available.notify()
        return future

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the queue, and join the worker."""
        with self._work_available:
            if self._closed:
                return
            self._closed = True
            self._work_available.notify_all()
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _take_batch(self) -> Optional[Tuple[List[_Request], str]]:
        """Block until a batch is ready; returns it with its linger outcome.

        None means closed and drained.
        """
        with self._work_available:
            while not self._queue and not self._closed:
                self._work_available.wait()
            if not self._queue:
                return None  # closed with nothing left
            if len(self._queue) >= 2:
                self._lingering = True  # they queued behind a busy forward
            outcome = "at_once"
            if (
                self._lingering
                and self.max_wait_s > 0
                and len(self._queue) < self.max_batch_size
                and not self._closed
            ):
                # first request is in hand: linger up to max_wait_s for companions
                deadline = time.monotonic() + self.max_wait_s
                while len(self._queue) < self.max_batch_size and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._work_available.wait(timeout=remaining):
                        break
                outcome = "company" if len(self._queue) > 1 else "alone"
                self._lingering = outcome == "company"
            batch = self._queue[: self.max_batch_size]
            del self._queue[: len(batch)]
            return batch, outcome

    def _run(self) -> None:
        while True:
            taken = self._take_batch()
            if taken is None:
                return
            batch, outcome = taken
            wait_seconds = time.perf_counter() - batch[0][2]
            if self.on_batch is not None:
                try:
                    self.on_batch(len(batch), self.queue_depth, wait_seconds, outcome)
                except Exception:
                    pass  # metrics must never take down the request path
            futures = [f for _, f, _ in batch]
            try:
                stacked = np.stack([w for w, _, _ in batch])
                forecasts = self.forward(stacked)
                if forecasts.shape[0] != len(batch):
                    raise RuntimeError(
                        f"batch forward returned {forecasts.shape[0]} forecasts "
                        f"for {len(batch)} requests"
                    )
            except Exception as error:
                for future in futures:
                    if not future.cancelled():
                        future.set_exception(error)
                continue
            self.batches_run += 1
            for future, forecast in zip(futures, forecasts):
                if not future.cancelled():
                    future.set_result(forecast)
