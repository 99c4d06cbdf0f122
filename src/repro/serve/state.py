"""Streaming state store: per-sensor ring buffers of recent observations.

Online forecasting needs the last ``W`` observations of every sensor at all
times.  :class:`StreamStateStore` keeps them in one ``(N, W, F)`` ring:
each :meth:`~StreamStateStore.ingest` advances the stream one tick for the
whole network, writing the reported sensors and recording ``NaN`` for late
or dead ones.  :meth:`~StreamStateStore.window` materializes the model-ready
history in chronological order, filling gaps through
:func:`repro.data.imputation.impute_series` (the same degraded-input path
training uses) and returning the validity mask alongside.

A monotonically increasing :attr:`~StreamStateStore.version` stamps every
ingest; the prediction cache (:mod:`repro.serve.cache`) uses it to drop
forecasts computed from stale state.  All methods are thread-safe — the
micro-batcher's worker reads windows while request threads ingest.

Between two ingests every live read has the same input, so the store
materializes each data version's window once: :meth:`~StreamStateStore.live`
returns one :class:`LiveWindow` record (version, window, mask and, on first
use, the window's :func:`~repro.serve.cache.fingerprint_window` digest) and
hands the same record to every read until the version moves.  Its arrays
are shared and read-only — ``.copy()`` before writing.  Reading version and
window from one record also keeps a concurrent ingest from stamping a
forecast of window *v* with version *v + 1*.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from ..data.imputation import impute_series
from .cache import fingerprint_window


class LiveWindow:
    """One data version's model-ready window, built once and shared read-only.

    ``window`` and ``mask`` are the ``(N, W, F)`` arrays
    :meth:`StreamStateStore.window` returns; ``version`` is the store version
    they were built from.  :attr:`digest` is the window's content hash,
    computed on first use with :func:`repro.serve.cache.fingerprint_window`,
    so a live read keys the prediction cache exactly like an explicit
    window with the same contents.
    """

    __slots__ = ("version", "window", "mask", "_digest")

    def __init__(self, version: int, window: np.ndarray, mask: np.ndarray):
        window.setflags(write=False)
        mask.setflags(write=False)
        self.version = version
        self.window = window
        self.mask = mask
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """Content hash of :attr:`window` (racing first reads compute the same value)."""
        if self._digest is None:
            self._digest = fingerprint_window(self.window)
        return self._digest


class StreamStateStore:
    """Rolling ``(N, W, F)`` observation window over a live sensor stream.

    Parameters
    ----------
    num_sensors / window / num_features:
        Network size N, history length W (the model's input length), and
        feature count F.
    impute_method:
        Gap-fill strategy for :meth:`window` (see
        :data:`repro.data.imputation.IMPUTE_METHODS`).
    """

    def __init__(
        self,
        num_sensors: int,
        window: int,
        num_features: int = 1,
        impute_method: str = "last",
    ):
        if num_sensors < 1 or window < 1 or num_features < 1:
            raise ValueError("num_sensors, window and num_features must be >= 1")
        self.num_sensors = num_sensors
        self.window_size = window
        self.num_features = num_features
        self.impute_method = impute_method
        self._ring = np.full((num_sensors, window, num_features), np.nan)
        self._head = 0  # next write position along the time axis
        self._ticks = 0  # total ingests ever
        self._version = 0
        self._live: Optional[LiveWindow] = None  # the current version's window, once read
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone data version; bumped by every :meth:`ingest`."""
        with self._lock:
            return self._version

    @property
    def ticks(self) -> int:
        """Total stream ticks ingested since construction."""
        with self._lock:
            return self._ticks

    @property
    def ready(self) -> bool:
        """Whether a full ``W``-step history has been observed."""
        with self._lock:
            return self._ticks >= self.window_size

    # ------------------------------------------------------------------ #
    def ingest(
        self,
        values: np.ndarray,
        sensor_ids: Optional[Sequence[int]] = None,
    ) -> int:
        """Advance the stream one tick; returns the new data version.

        ``values`` is ``(N,)`` / ``(N, F)`` for a full-network tick, or
        ``(len(sensor_ids),)`` / ``(len(sensor_ids), F)`` when only a subset
        reported.  Unreported sensors get ``NaN`` for this tick (filled by
        imputation at read time); explicitly reported NaN marks a sensor
        that sent garbage.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[1] != self.num_features:
            raise ValueError(
                f"expected (*, {self.num_features}) observations, got shape {values.shape}"
            )
        with self._lock:
            column = np.full((self.num_sensors, self.num_features), np.nan)
            if sensor_ids is None:
                if values.shape[0] != self.num_sensors:
                    raise ValueError(
                        f"full-network tick needs {self.num_sensors} rows, got {values.shape[0]}"
                    )
                column[:] = values
            else:
                ids = np.asarray(sensor_ids, dtype=np.intp)
                if ids.shape[0] != values.shape[0]:
                    raise ValueError("sensor_ids and values disagree on length")
                if ids.size and (ids.min() < 0 or ids.max() >= self.num_sensors):
                    raise IndexError(f"sensor ids must be in [0, {self.num_sensors})")
                column[ids] = values
            self._ring[:, self._head, :] = column
            self._head = (self._head + 1) % self.window_size
            self._ticks += 1
            self._version += 1
            return self._version

    def window(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize the chronological ``(N, W, F)`` window plus its mask.

        Non-finite entries (unreported ticks, dead sensors, the not-yet-
        observed prefix of a cold stream) are filled via the configured
        imputation method; ``mask`` is 1.0 where the value was actually
        observed.  Works from the very first tick — a stream shorter than
        ``W`` simply has an all-missing prefix.  Both arrays are the current
        :meth:`live` record's: shared between reads and read-only.
        """
        live = self.live()
        return live.window, live.mask

    def live(self) -> LiveWindow:
        """The current data version's :class:`LiveWindow`, built on first read."""
        with self._lock:
            live = self._live
            if live is None or live.version != self._version:
                live = self._live = self._materialize()
            return live

    def _materialize(self) -> LiveWindow:
        # built under the lock, so racing first reads at a version build it
        # once; the oldest tick sits at the write head
        split = self.window_size - self._head
        ordered = np.empty_like(self._ring)
        ordered[:, :split] = self._ring[:, self._head :]
        ordered[:, split:] = self._ring[:, : self._head]
        window, mask = impute_series(ordered, method=self.impute_method)
        return LiveWindow(self._version, window, mask)

    def snapshot(self) -> dict:
        """Cheap JSON-able gauge block for observability."""
        with self._lock:
            observed = int(np.isfinite(self._ring).any(axis=(1, 2)).sum())
            return {
                "version": self._version,
                "ticks": self._ticks,
                "ready": self._ticks >= self.window_size,
                "sensors_with_data": observed,
            }
