"""Multiprocess sensor-sharded training (see DESIGN.md "Parallel training").

Two cooperating pieces:

* :class:`WorkerPool` (:mod:`repro.parallel.engine`) — one shard per
  contiguous sensor range: the calling process computes shard 0 and one
  worker process per remaining range computes the others, each on its
  slice of every mini-batch read from a shared arena; the caller
  tree-reduces their gradients (:func:`repro.optim.all_reduce_gradients`)
  and takes a single optimizer step.  Weights travel through the schema-v2
  checkpoint codec; failures translate back into the exception types the
  resilience layer already handles.
* :class:`PrefetchingBatchIterator` (:mod:`repro.parallel.prefetch`) — a
  background assembler writing sliding-window batches into double-buffered
  shared memory so batch assembly overlaps compute.

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
from .prefetch import PrefetchingBatchIterator

__all__ = [
    "ParallelConfig",
    "ShardResult",
    "WorkerError",
    "WorkerPool",
    "default_start_method",
    "sensor_shard_ranges",
    "shard_sensors",
    "unshard_sensors",
    "PrefetchingBatchIterator",
]
