"""Multiprocess sensor-sharded training (see DESIGN.md "Parallel training").

:class:`WorkerPool` (:mod:`repro.parallel.engine`) runs one shard per
contiguous sensor range: the calling process computes shard 0 and one
worker process per remaining range computes the others, each on its slice
of every mini-batch.  The current parameters and the raw batch reach the
workers through one shared arena; the caller tree-reduces their gradients
(:func:`repro.optim.all_reduce_gradients`) and takes a single optimizer
step.  Failures translate back into the exception types the resilience
layer already handles.

The front door is :class:`repro.exec.ShardedExecutor` — selected by
``TrainerConfig(executor=ExecutorSpec.sharded(n_workers=...))`` — and
this package is the engine room.  The equivalence contract — sharded
training reproduces the serial loss trajectory at any shard count — is
enforced by ``tests/test_parallel.py``, ``tests/test_shard_fuzz.py`` and
``python -m repro.harness shard-bench``.
"""

from .engine import (
    ParallelConfig,
    ShardResult,
    WorkerError,
    WorkerPool,
    default_start_method,
    sensor_shard_ranges,
    shard_sensors,
    unshard_sensors,
)

__all__ = [
    "ParallelConfig",
    "ShardResult",
    "WorkerError",
    "WorkerPool",
    "default_start_method",
    "sensor_shard_ranges",
    "shard_sensors",
    "unshard_sensors",
]
