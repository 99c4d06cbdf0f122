"""Executor selection: a declarative spec + the factory that builds one.

:class:`ExecutorSpec` is the single configuration surface for *how* a model
executes — serial in-process, compiled, or sensor-sharded across a
multiprocess worker pool — independent of
*what* runs (the model, the loss, the dataset).  :class:`repro.training.TrainerConfig` carries one, the
serving plane builds one per artifact, and the harness benches sweep them.

>>> from repro.exec import ExecutorSpec, make_executor
>>> spec = ExecutorSpec.sharded(n_workers=4)
>>> executor = make_executor(model, spec, huber_delta=1.0, kl_weight=0.02)
>>> with executor:
...     result = executor.train_step(None, (x, y))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["EXECUTOR_KINDS", "ExecutorSpec", "make_executor"]

#: the execution strategies the factory knows how to build
EXECUTOR_KINDS = ("serial", "compiled", "sharded")


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative description of an execution strategy.

    Parameters
    ----------
    kind:
        ``"serial"`` — in-process forward/backward and eval-mode forward;
        ``"compiled"`` — trace-once/replay-many compiled plans
        (:mod:`repro.compile`), falling back to the interpreted executors
        for unsupported or shape-changing steps;
        ``"sharded"`` — contiguous sensor-dimension sharding across a
        worker pool (:class:`repro.exec.ShardedExecutor`), gradients
        tree-reduced; only for ``sensor_shardable`` models (SimST) —
        building one over any other model raises ``ValueError``; trains
        *and* serves.
    n_workers / start_method / step_timeout:
        Worker-pool knobs, meaningful for ``kind="sharded"`` only.
        ``n_workers`` counts shards: the pool computes one of them in the
        calling process and starts ``n_workers - 1`` worker processes.
    detect_anomaly:
        Per-op NaN/Inf screening during training steps (slow; debugging).
    """

    kind: str = "serial"
    n_workers: int = 0
    start_method: Optional[str] = None  # fork | spawn | None (auto)
    detect_anomaly: bool = False
    step_timeout: float = 300.0

    def __post_init__(self):
        if self.kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor kind must be one of {EXECUTOR_KINDS}, got {self.kind!r}"
            )
        if self.kind == "sharded" and self.n_workers < 2:
            raise ValueError(
                f"a sharded executor needs n_workers >= 2, got {self.n_workers}"
            )
        if self.kind != "sharded" and self.n_workers:
            raise ValueError(
                f"n_workers={self.n_workers} only makes sense with kind 'sharded'"
            )

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def serial(cls, *, detect_anomaly: bool = False) -> "ExecutorSpec":
        return cls(kind="serial", detect_anomaly=detect_anomaly)

    @classmethod
    def sharded(
        cls,
        n_workers: int = 2,
        *,
        start_method: Optional[str] = None,
        detect_anomaly: bool = False,
        step_timeout: float = 300.0,
    ) -> "ExecutorSpec":
        """``n_workers`` sensor shards, the caller being one of them: shard 0
        runs in the calling process beside ``n_workers - 1`` worker
        processes."""
        return cls(
            kind="sharded",
            n_workers=n_workers,
            start_method=start_method,
            detect_anomaly=detect_anomaly,
            step_timeout=step_timeout,
        )

    @classmethod
    def compiled(cls, *, detect_anomaly: bool = False) -> "ExecutorSpec":
        return cls(kind="compiled", detect_anomaly=detect_anomaly)

    def with_overrides(self, **changes) -> "ExecutorSpec":
        return replace(self, **changes)


def make_executor(
    model,
    spec: ExecutorSpec,
    *,
    huber_delta: float = 1.0,
    kl_weight: float = 0.0,
    scaler=None,
    history: Optional[int] = None,
):
    """Build the :class:`Executor` described by ``spec`` over ``model``.

    ``huber_delta`` / ``kl_weight`` parameterize the training loss;
    ``scaler`` / ``history`` configure executors that serve raw-unit
    windows (see :meth:`repro.exec.Executor.predict`).  A ``"sharded"`` spec
    over a model that cannot be sensor-sharded raises ``ValueError`` naming
    the model and the reason.
    """
    from .serial import SerialExecutor

    if spec.kind == "serial":
        return SerialExecutor(
            model,
            huber_delta=huber_delta,
            kl_weight=kl_weight,
            detect_anomaly=spec.detect_anomaly,
            scaler=scaler,
            history=history,
        )
    if spec.kind == "compiled":
        from repro.compile import CompiledExecutor

        return CompiledExecutor(
            model,
            huber_delta=huber_delta,
            kl_weight=kl_weight,
            detect_anomaly=spec.detect_anomaly,
            scaler=scaler,
            history=history,
        )
    from .sharded import ShardedExecutor

    return ShardedExecutor(
        model,
        n_workers=spec.n_workers,
        start_method=spec.start_method,
        detect_anomaly=spec.detect_anomaly,
        step_timeout=spec.step_timeout,
        huber_delta=huber_delta,
        kl_weight=kl_weight,
        scaler=scaler,
        history=history,
    )
