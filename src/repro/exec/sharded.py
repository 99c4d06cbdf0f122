"""Sensor-sharded executor: split the *network*, not the batch.

:class:`ShardedExecutor` runs a :class:`repro.parallel.WorkerPool` behind
the :class:`repro.exec.Executor` contract.  It splits every batch along the
sensor axis into contiguous ranges (:func:`repro.parallel.sensor_shard_ranges`),
so each shard holds the *whole model* while only ever evaluating its slice
of the network.  That is the execution shape that scales N past one
process: a shard is stepped in cache-sized sensor blocks
(:func:`repro.parallel.engine.sensor_blocks`), so its activation memory is
``O(block rows)`` rather than ``O(B·N/K)``, while the graph-free SimST
track's parameters stay ``O(N·E)`` (see DESIGN.md §15 and
:class:`repro.training.CapacityPlanner`).

Every ``train_step``:

1. loads the step's ``weights`` into the model when given (the model's
   current state when ``None``),
2. writes the parameters and the raw batch once into the pool's shared
   arena and runs every shard's forward/backward
   (:meth:`repro.parallel.WorkerPool.sensor_step`); the caller's shard
   computes on the model's own parameters,
3. tree-reduces the shard gradients into the model's parameters
   (:func:`repro.optim.all_reduce_gradients`) and combines the losses as
   the finite-count-weighted mean — exactly the loss and gradient serial
   execution produces, merely re-associated.

The pool is a real resource: :meth:`open` starts the worker processes
(pickling the model exactly once) and :meth:`close` stops them; a closed
executor can be re-opened, which starts a fresh pool.  Worker/serialize/
augment/reduce wall times are attributed to the active :mod:`repro.obs`
profiler's ``parallel`` section and mirrored into :class:`StepResult.stats`;
``serialize`` is the parameter copy into the arena.

Process topology
----------------
``n_workers=K`` means K shards, and the calling process is one of them:
it computes shard 0 on a private view of its model that shares the
parameters, while K−1 worker processes compute shards 1…K−1.  Step stats
keep one ``worker0…worker{K-1}`` entry per shard; ``worker0`` is the
caller's shard.

Which models shard
------------------
Only a model declaring ``sensor_shardable = True`` (and exposing
``augment`` / ``set_sensor_shard``) over at least two sensors.  Any other
model is refused with a ``ValueError`` naming it and the reason — ST-WA,
whose :class:`SensorCorrelationAttention` mixes sensors inside the
forward, is one.  So is a model holding module random generators: the
caller's shard would draw from the caller's own streams.

Exactness
---------
The masked-Huber loss is a mean over *finite target elements*.  Sensors
partition those elements, so the serial loss is the finite-count-weighted
mean of shard losses and the serial gradient is the same weighted mean of
shard gradients.  Per-sensor parameters (SimST's node embeddings) are
consistent too: each shard's embedding gradient is a full-size array that
is zero outside its sensor rows, so the weighted tree-reduce scatters
every row's exact serial gradient back onto the model.

The one cross-sensor coupling SimST has — the proximity-aggregate input
channel — needs the full network, so the raw batch reaches every shard
through the arena and each shard calls :meth:`SimSTForecaster.augment`
with its own ``sensors=(start, stop)`` range, getting only its rows,
bit-identical to slicing the full augment.  The slowest shard's augment
time is reported as ``stats["augment"]``; it is part of that shard's
``workerK`` time.

``predict`` fans out across the same pool through the same arena
(:meth:`repro.parallel.WorkerPool.sensor_predict`) and reassembles with
:func:`repro.parallel.unshard_sensors`, inside the scaler/rank/history
wrapper every kind shares (:meth:`repro.exec.Executor.predict`), so
:class:`repro.serve.ServingEngine` can put a sharded executor directly
behind a tenant.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from .base import Batch, Executor, StepResult, Weights

__all__ = ["ShardedExecutor"]


def _refusal(model) -> Optional[str]:
    """Why ``model`` cannot be sensor-sharded, naming it; ``None`` if it can."""
    name = type(model).__name__
    if not getattr(model, "sensor_shardable", False):
        return (
            f"{name} cannot be sensor-sharded: it mixes sensors in its forward "
            "(it does not declare sensor_shardable)"
        )
    num_sensors = int(getattr(model, "num_sensors", 0))
    if num_sensors < 2:
        return (
            f"{name} cannot be sensor-sharded: it has {num_sensors} sensor(s), "
            "and a sensor-sharded pool needs at least 2"
        )
    from ..tensor.rng import module_generators

    generators = module_generators(model)
    if generators:
        return (
            f"{name} holds module random generators ({', '.join(generators)}); "
            "a sensor-sharded pool computes shard 0 on the caller's model, so it "
            "would draw from the caller's own streams"
        )
    return None


class ShardedExecutor(Executor):
    """Sensor-axis sharding over a WorkerPool; trains and serves."""

    #: the axis a batch is split along (read by the Trainer and benchmarks)
    shard_axis = "sensor"

    def __init__(
        self,
        model,
        *,
        n_workers: int = 2,
        start_method: Optional[str] = None,
        detect_anomaly: bool = False,
        step_timeout: float = 300.0,
        huber_delta: float = 1.0,
        kl_weight: float = 0.0,
        scaler=None,
        history: Optional[int] = None,
    ):
        reason = _refusal(model)
        if reason is not None:
            raise ValueError(reason)
        super().__init__(model, scaler=scaler, history=history)
        self.n_workers = n_workers
        self.start_method = start_method
        self.detect_anomaly = detect_anomaly
        self.step_timeout = step_timeout
        self.huber_delta = huber_delta
        self.kl_weight = kl_weight
        self._pool = None
        self._ranges: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # lifecycle: the pool is the resource, one shard per sensor range
    # ------------------------------------------------------------------ #
    def _acquire(self) -> None:
        from ..parallel import ParallelConfig, WorkerPool, sensor_shard_ranges

        self._ranges = sensor_shard_ranges(self.model.num_sensors, self.n_workers)
        self._pool = WorkerPool(
            self.model,
            ParallelConfig(
                start_method=self.start_method,
                detect_anomaly=self.detect_anomaly,
                step_timeout=self.step_timeout,
            ),
            sensor_ranges=self._ranges,
            huber_delta=self.huber_delta,
            kl_weight=self.kl_weight,
        )

    def _release(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._ranges = []

    @property
    def shard_ranges(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` sensor range of each shard (open pools);
        the first is computed in the calling process."""
        return list(self._ranges)

    # ------------------------------------------------------------------ #
    # training: the raw batch goes to the arena, shards augment their rows
    # ------------------------------------------------------------------ #
    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        """One sharded step; the reduced gradient lands on the model."""
        self._require_open("train_step")
        from ..obs import current_profiler
        from ..optim import all_reduce_gradients

        x, y = batch
        self._load(weights)  # the caller's shard computes with the model's weights
        results = self._pool.sensor_step(x, y)
        stats = {
            "serialize": self._pool.serialize_seconds,
            "augment": max(result.augment for result in results),
        }
        reduce_start = time.perf_counter()
        total = all_reduce_gradients(
            self._parameters,
            [result.grads for result in results],
            [result.weight for result in results],
        )
        value = float(
            np.sum([result.weight * result.loss for result in results]) / total
        )
        stats["reduce"] = time.perf_counter() - reduce_start
        for result in results:
            stats[f"worker{result.worker_id}"] = result.seconds
        profiler = current_profiler()
        if profiler is not None:
            for name, seconds in stats.items():
                profiler.record_parallel(name, seconds)
        stats["shard_axis"] = self.shard_axis
        if not np.isfinite(value):
            raise FloatingPointError(
                f"training diverged: loss became {value}; lower the learning "
                "rate or tighten grad_clip"
            )
        return StepResult(
            loss=value,
            grads=[parameter.grad for parameter in self._parameters],
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # serving: shard-fanout prediction across the same pool
    # ------------------------------------------------------------------ #
    def _forward(self, window: np.ndarray) -> np.ndarray:
        """Fan a forecast out over the shards and reassemble.

        Always ships the current parameters through the pool's arena — the
        workers' copies are stale after any optimizer step in this process.
        The caller's own shard reads the model's parameters directly.
        """
        from ..parallel import unshard_sensors

        return unshard_sensors(self._pool.sensor_predict(window))
