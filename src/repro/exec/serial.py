"""In-process executor: the classic forward/backward loop as an Executor.

This is the exact step the pre-``repro.exec`` Trainer ran inline — zero
the gradients, forward, loss (+ KL when the model exposes
``kl_divergence``), finite check *before* backward, backward — packaged
behind the :class:`repro.exec.Executor` contract so the serial path, the
sensor-sharded pool and the compiled plan are interchangeable.  It holds
no external resources: ``open``/``close`` only drive the lifecycle state
machine.  With a ``scaler``/``history`` it also serves raw-unit windows
(:meth:`repro.exec.Executor.predict`): :class:`repro.serve.ForecasterArtifact`
and the serving plane's persistence fallback predict through one.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional

import numpy as np

from ..core.loss import STWALoss
from ..tensor import Tensor, detect_anomaly
from .base import Batch, Executor, StepResult, Weights, eval_forward

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Forward/backward on the calling process, one batch at a time."""

    def __init__(
        self,
        model,
        *,
        huber_delta: float = 1.0,
        kl_weight: float = 0.0,
        detect_anomaly: bool = False,
        loss_fn: Optional[STWALoss] = None,
        scaler=None,
        history: Optional[int] = None,
    ):
        super().__init__(model, scaler=scaler, history=history)
        self.detect_anomaly = detect_anomaly
        self.loss_fn = loss_fn or STWALoss(delta=huber_delta, kl_weight=kl_weight)
        self._kl_model = model if hasattr(model, "kl_divergence") else None

    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        """One forward/backward; gradients land on the model's parameters."""
        self._require_open("train_step")
        x, y = batch
        self._load(weights)
        start = time.perf_counter()
        target = Tensor(y)
        for parameter in self._parameters:
            parameter.zero_grad()
        guard = detect_anomaly() if self.detect_anomaly else nullcontext()
        with guard:
            prediction = self.model(Tensor(x))
            loss = self.loss_fn(prediction, target, model=self._kl_model)
            value = float(loss.item())
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"training diverged: loss became {value}; lower the learning "
                    "rate or tighten grad_clip"
                )
            loss.backward()
        return StepResult(
            loss=value,
            grads=[parameter.grad for parameter in self._parameters],
            stats={"seconds": time.perf_counter() - start},
        )

    def _forward(self, window: np.ndarray) -> np.ndarray:
        return eval_forward(self.model, window)
