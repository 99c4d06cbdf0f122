"""Inference executor: the gradient-free fast path as an Executor.

Wraps :class:`repro.tensor.inference_mode` (no graph construction, no
gradient buffers, no op tracing) plus the window bookkeeping every
prediction surface used to hand-roll: optional raw↔scaled conversion
through a baked-in scaler, ``(N, H, F)`` vs ``(B, N, H, F)`` rank
handling, and history-length validation.

Three callers share it, so the step logic exists exactly once:

* :class:`repro.serve.ForecasterArtifact` builds one over its frozen model
  (``scaler`` set, ``history`` validated) and delegates ``predict`` to it;
* :class:`repro.serve.ServingEngine` routes both the micro-batched model
  path and the circuit-breaker persistence fallback through inference
  executors instead of reaching into artifact internals;
* :class:`repro.training.Trainer` evaluates and predicts through a
  scaler-less instance (its inputs are already in scaled model space).

``train_step`` always raises :class:`ExecutorError`: an inference executor
is the one place gradients must be impossible, which is what makes it safe
to share behind a serving replica.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Batch, Executor, ExecutorError, StepResult, Weights, eval_forward

__all__ = ["InferenceExecutor"]


class InferenceExecutor(Executor):
    """Prediction-only executor over an eval-mode forward pass.

    Parameters
    ----------
    scaler:
        Optional scaler applied around the forward pass (raw units in,
        raw units out).  ``None`` means inputs and outputs stay in the
        model's scaled space.
    history:
        Optional expected window length; when set, inputs whose time axis
        disagrees raise ``ValueError`` before touching the model.
    """

    def __init__(self, model, *, scaler=None, history: Optional[int] = None):
        super().__init__(model)
        self.scaler = scaler
        self.history = None if history is None else int(history)

    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        raise ExecutorError(
            "InferenceExecutor cannot train: it exists so serving replicas "
            "can never accumulate gradients; use a serial, compiled or sharded executor"
        )

    def predict(self, weights: Weights, inputs: np.ndarray) -> np.ndarray:
        """Forecast from a history window (single snapshot or batch).

        ``inputs`` is ``(N, H, F)`` for one network snapshot or
        ``(B, N, H, F)`` for a batch; the result keeps the input's rank.
        With a scaler configured: scaling in, inference-mode forward,
        inverse scaling out — raw units end to end.
        """
        self._require_open("predict")
        self._load(weights)
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
        forecast = eval_forward(self.model, window)
        if self.scaler is not None:
            forecast = self.scaler.inverse_transform(forecast)
        return forecast[0] if squeeze else forecast
