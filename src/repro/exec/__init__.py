"""One Executor API under training and serving (see DESIGN.md "Executor").

Every way this repo runs a model — the serial training loop, compiled
plans, the sensor-sharded worker pool, gradient-free inference,
micro-batched serving — implements one contract:

* :class:`Executor` — ``train_step(weights, batch) -> StepResult`` /
  ``predict(weights, inputs) -> outputs`` plus an ``open()``/``close()``
  resource lifecycle (:mod:`repro.exec.base`).  ``predict`` is defined
  once there: rank handling, the optional ``history`` check and the
  optional ``scaler`` wrap each kind's scaled-space forward.
* :class:`SerialExecutor` — in-process forward/backward, and the
  :class:`repro.tensor.inference_mode` graph-free forward for ``predict``.
* :class:`ShardedExecutor` — contiguous *sensor*-dimension sharding over
  a :class:`repro.parallel.WorkerPool` for ``sensor_shardable`` models
  (any other model is refused), gradients tree-reduced; trains and
  serves, reassembling shard forecasts.
* :class:`ExecutorSpec` + :func:`make_executor` — declarative selection.

:class:`repro.training.Trainer` and :class:`repro.serve.ServingEngine`
both execute exclusively through this seam, so backends land once and
apply everywhere — ``ExecutorSpec(kind="compiled")`` selects the
trace-once/replay-many backend in :mod:`repro.compile`, which replays a
fixed-shape step as a preallocated instruction program and transparently
falls back to the interpreted executors when a step cannot be compiled.
"""

from .base import (
    Batch,
    Executor,
    ExecutorError,
    ExecutorStateError,
    StepResult,
    eval_forward,
)
from .serial import SerialExecutor
from .sharded import ShardedExecutor
from .spec import EXECUTOR_KINDS, ExecutorSpec, make_executor

__all__ = [
    "Batch",
    "EXECUTOR_KINDS",
    "Executor",
    "ExecutorError",
    "ExecutorStateError",
    "ExecutorSpec",
    "SerialExecutor",
    "ShardedExecutor",
    "StepResult",
    "eval_forward",
    "make_executor",
]
