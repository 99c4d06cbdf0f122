"""Sensor-sharded executor: split the *network*, not the batch.

:class:`ShardedExecutor` reuses the data-parallel machinery — persistent
:class:`repro.parallel.WorkerPool`, schema-v2 weight transport, the
finite-target-count all-reduce — but splits every batch along the sensor
axis into contiguous ranges (:func:`repro.parallel.sensor_shard_ranges`),
so each shard holds the *whole model* while only ever evaluating its slice
of the network.  That is the execution shape that scales N past one
process: a shard is stepped in cache-sized sensor blocks
(:func:`repro.parallel.engine.sensor_blocks`), so its activation memory is
``O(block rows)`` rather than ``O(B·N/K)``, while the graph-free SimST
track's parameters stay ``O(N·E)`` (see DESIGN.md §15 and
:class:`repro.training.CapacityPlanner`).

Process topology
----------------
``n_workers=K`` means K shards, and the calling process is one of them:
it computes shard 0 on a private view of its model that shares the
parameters, while K−1 worker processes compute shards 1…K−1.  Step stats
keep one ``worker0…worker{K-1}`` entry per shard; ``worker0`` is the
caller's shard.  A sensor-sharded model must hold no module random
generators (the caller's shard would draw from the caller's own streams),
so the executor refuses one.

Exactness (why sensor shards reduce like batch shards)
------------------------------------------------------
The masked-Huber loss is a mean over *finite target elements*.  Sensors
partition those elements exactly like batch samples do, so the serial loss
is the finite-count-weighted mean of shard losses and the serial gradient
is the same weighted mean of shard gradients — the identical all-reduce
identity PR 5 proved for the batch axis, merely along axis 1.  Per-sensor
parameters (SimST's node embeddings) are consistent too: each shard's
embedding gradient is a full-size array that is zero outside its sensor
rows, so the weighted tree-reduce scatters every row's exact serial
gradient back onto the parent.

The one cross-sensor coupling SimST has — the proximity-aggregate input
channel — needs the full network, so the raw batch reaches every shard:
the parent writes it once into the pool's shared arena
(:meth:`repro.parallel.WorkerPool.sensor_step`) and each shard calls
:meth:`SimSTForecaster.augment` with its own ``sensors=(start, stop)``
range, getting only its rows, bit-identical to slicing the full augment.
Nothing sensor-sized is split or pickled; the parent augments only its own
shard's rows.  The slowest shard's augment time is reported as
``stats["augment"]`` (and in the profiler's ``parallel`` section); it is
part of that shard's ``workerK`` time.

Axis selection
--------------
Only models declaring ``sensor_shardable = True`` (and exposing
``augment`` / ``set_sensor_shard``) split along sensors.  For every other
model — including ST-WA, whose :class:`SensorCorrelationAttention` mixes
across sensors inside the forward — the executor degrades to batch-axis
sharding, which is :class:`ParallelExecutor` semantics exactly.  The chosen
axis is exposed as :attr:`shard_axis` and stamped into step stats.

``predict`` fans out across the same pool through the same arena
(:meth:`repro.parallel.WorkerPool.sensor_predict`) and reassembles with
:func:`repro.parallel.unshard_sensors`,
with the scaler/rank/history bookkeeping of
:class:`repro.exec.InferenceExecutor` so :class:`repro.serve.ServingEngine`
can put a sharded executor directly behind a tenant.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import Weights
from .parallel import ParallelExecutor

__all__ = ["ShardedExecutor"]


class ShardedExecutor(ParallelExecutor):
    """Sensor-axis (or fallback batch-axis) sharding over a WorkerPool."""

    def __init__(
        self,
        model,
        *,
        n_workers: int = 2,
        start_method: Optional[str] = None,
        prefetch: bool = True,
        detect_anomaly: bool = False,
        step_timeout: float = 300.0,
        seed: int = 0,
        huber_delta: float = 1.0,
        kl_weight: float = 0.0,
        scaler=None,
        history: Optional[int] = None,
    ):
        super().__init__(
            model,
            n_workers=n_workers,
            start_method=start_method,
            prefetch=prefetch,
            detect_anomaly=detect_anomaly,
            step_timeout=step_timeout,
            seed=seed,
            huber_delta=huber_delta,
            kl_weight=kl_weight,
        )
        self.scaler = scaler
        self.history = None if history is None else int(history)
        shardable = bool(getattr(model, "sensor_shardable", False))
        num_sensors = int(getattr(model, "num_sensors", 0))
        # a single-sensor network (or a non-shardable model) degrades to
        # batch-axis sharding, which is plain ParallelExecutor semantics
        self.shard_axis = "sensor" if shardable and num_sensors >= 2 else "batch"
        if self.shard_axis == "sensor":
            from ..tensor.rng import module_generators

            generators = module_generators(model)
            if generators:
                raise ValueError(
                    f"{type(model).__name__} holds module random generators "
                    f"({', '.join(generators)}); a sensor-sharded pool computes "
                    "shard 0 on the caller's model, so it would draw from the "
                    "caller's own streams"
                )
        self._ranges: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # lifecycle: pool sized to the shard plan, workers pinned to ranges
    # ------------------------------------------------------------------ #
    def _acquire(self) -> None:
        if self.shard_axis != "sensor":
            super()._acquire()
            return
        from ..parallel import ParallelConfig, WorkerPool, sensor_shard_ranges

        self._ranges = sensor_shard_ranges(self.model.num_sensors, self.n_workers)
        self._pool = WorkerPool(
            self.model,
            ParallelConfig(
                n_workers=len(self._ranges),
                start_method=self.start_method,
                detect_anomaly=self.detect_anomaly,
                seed=self.seed,
                step_timeout=self.step_timeout,
            ),
            huber_delta=self.huber_delta,
            kl_weight=self.kl_weight,
            sensor_ranges=self._ranges,
        )

    def _release(self) -> None:
        super()._release()
        self._ranges = []

    @property
    def shard_ranges(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` sensor range of each shard (open pools);
        the first is computed in the calling process."""
        return list(self._ranges)

    # ------------------------------------------------------------------ #
    # training: the raw batch goes to the arena, workers augment their rows
    # ------------------------------------------------------------------ #
    def _pool_step(self, weights_blob, x, y, stats):
        if self.shard_axis != "sensor":
            return super()._pool_step(weights_blob, x, y, stats)
        results = self._pool.sensor_step(weights_blob, x, y)
        stats["augment"] = max(result.augment for result in results)
        return results

    def train_step(self, weights, batch):
        result = super().train_step(weights, batch)
        result.stats["shard_axis"] = self.shard_axis
        return result

    # ------------------------------------------------------------------ #
    # serving: shard-fanout prediction across the same pool
    # ------------------------------------------------------------------ #
    def predict(self, weights: Weights, inputs: np.ndarray) -> np.ndarray:
        """Fan a forecast out over the shards and reassemble.

        Accepts ``(N, H, F)`` or ``(B, N, H, F)`` windows, applies the
        configured scaler around the forward like
        :class:`~repro.exec.inference.InferenceExecutor`, and always ships
        the current parent weights — the workers' copies are stale after
        any parent-side optimizer step.  The caller's own shard reads the
        model's weights directly.
        """
        self._require_open("predict")
        from ..parallel import unshard_sensors
        from ..training import checkpoint as checkpoint_module

        if weights is not None:
            self.model.load_state_dict(weights)
        array = np.asarray(inputs, dtype=np.float64)
        squeeze = array.ndim == 3
        window = array[None] if squeeze else array
        if self.history is not None and (
            window.ndim != 4 or window.shape[2] != self.history
        ):
            raise ValueError(
                f"expected (B, N, {self.history}, F) window, got shape {array.shape}"
            )
        if self.scaler is not None:
            window = self.scaler.transform(window)
        weights_blob = checkpoint_module.dumps_state_dict(self.model.state_dict())
        if self.shard_axis == "sensor":
            forecast = unshard_sensors(self._pool.sensor_predict(weights_blob, window))
        else:
            pieces = min(self._pool.n_workers, len(window))
            shards = [s for s in np.array_split(window, pieces) if len(s)]
            forecast = np.concatenate(
                self._pool.predict(weights_blob, shards), axis=0
            )
        if self.scaler is not None:
            forecast = self.scaler.inverse_transform(forecast)
        return forecast[0] if squeeze else forecast
