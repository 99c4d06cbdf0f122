"""Data-parallel executor: shard every batch across a WorkerPool.

Wraps :class:`repro.parallel.WorkerPool` + :func:`repro.optim.allreduce`
behind the :class:`repro.exec.Executor` contract.  Every ``train_step``:

1. loads the step's ``weights`` into the model when given, then
   serializes them once through the schema-v2 checkpoint codec (the
   model's current state when ``None``),
2. splits the batch into contiguous shards (:func:`repro.parallel.shard_batch`)
   pickled into each worker's pipe,
3. runs forward/backward on every worker,
4. tree-reduces the shard gradients into the parent model's parameters
   (:func:`repro.optim.all_reduce_gradients`) and combines the losses as
   the shard-weight-weighted mean — exactly the loss and gradient serial
   execution produces, merely re-associated.

The pool is a real resource: :meth:`open` starts the worker processes
(pickling the model exactly once) and :meth:`close` stops them; a closed
executor can be re-opened, which starts a fresh pool.  Worker/serialize/
reduce wall times are attributed to the active :mod:`repro.obs` profiler's
``parallel`` section and mirrored into :class:`StepResult.stats`.

``predict`` runs on the parent model in-process: the parent's weights are
authoritative between optimizer steps, so a batch-axis forecast needs no
pool round trip.  Sharded prediction lives in
:class:`repro.exec.ShardedExecutor`, which fans ``predict`` out over its
sensor-shard workers.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .base import Batch, Executor, StepResult, Weights, eval_forward

__all__ = ["ParallelExecutor"]


class ParallelExecutor(Executor):
    """Sharded forward/backward on N persistent worker processes."""

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
    ):
        super().__init__(model)
        self.n_workers = n_workers
        self.start_method = start_method
        self.prefetch = prefetch
        self.detect_anomaly = detect_anomaly
        self.step_timeout = step_timeout
        self.seed = seed
        self.huber_delta = huber_delta
        self.kl_weight = kl_weight
        self._pool = None

    # ------------------------------------------------------------------ #
    # lifecycle: the pool is the resource
    # ------------------------------------------------------------------ #
    def _acquire(self) -> None:
        from ..parallel import ParallelConfig, WorkerPool

        self._pool = WorkerPool(
            self.model,
            ParallelConfig(
                n_workers=self.n_workers,
                start_method=self.start_method,
                detect_anomaly=self.detect_anomaly,
                seed=self.seed,
                step_timeout=self.step_timeout,
            ),
            huber_delta=self.huber_delta,
            kl_weight=self.kl_weight,
        )

    def _release(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------ #
    def _pool_step(self, weights_blob: bytes, x: np.ndarray, y: np.ndarray, stats: dict):
        """Run one step on the pool; one :class:`ShardResult` per shard.

        Splits the batch into pickled batch-axis shards; a subclass may
        change the axis and the transport.  Preparation it times goes into
        ``stats``.
        """
        from ..parallel import shard_batch

        return self._pool.train_step(weights_blob, shard_batch(x, y, self._pool.n_workers))

    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        """One sharded step; the reduced gradient lands on the parent model."""
        self._require_open("train_step")
        from ..obs import current_profiler
        from ..optim import all_reduce_gradients
        from ..training import checkpoint as checkpoint_module

        x, y = batch
        if weights is not None:
            # a sensor pool's own shard computes with the model's weights
            self.model.load_state_dict(weights)
        serialize_start = time.perf_counter()
        state = weights if weights is not None else self.model.state_dict()
        weights_blob = checkpoint_module.dumps_state_dict(state)
        stats = {"serialize": time.perf_counter() - serialize_start}
        results = self._pool_step(weights_blob, x, y, stats)
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

    def predict(self, weights: Weights, inputs: np.ndarray) -> np.ndarray:
        """Eval-mode inference forward on the parent copy of the model."""
        self._require_open("predict")
        if weights is not None:
            self.model.load_state_dict(weights)
        return eval_forward(self.model, inputs)

    # ------------------------------------------------------------------ #
    def make_batch_iterator(
        self,
        windows,
        *,
        batch_size: int,
        shuffle: bool = True,
        rng=None,
        max_batches: Optional[int] = None,
    ):
        """Shared-memory prefetching iterator (unless ``prefetch=False``)."""
        if not self.prefetch:
            return super().make_batch_iterator(
                windows,
                batch_size=batch_size,
                shuffle=shuffle,
                rng=rng,
                max_batches=max_batches,
            )
        from ..parallel import PrefetchingBatchIterator

        return PrefetchingBatchIterator(
            windows,
            batch_size=batch_size,
            shuffle=shuffle,
            rng=rng,
            max_batches=max_batches,
            start_method=self.start_method,
        )
