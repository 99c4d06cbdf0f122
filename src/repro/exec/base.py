"""The Executor contract: one step API under training and serving.

Historically the repo grew four divergent execution paths — the serial
forward/backward inside :class:`repro.training.Trainer`, the multiprocess
:class:`repro.parallel.WorkerPool` path, ``inference_mode`` prediction in
:class:`repro.serve.ForecasterArtifact`, and micro-batched serving in
:class:`repro.serve.ServingEngine` — each hand-threading its own weight
shipping, gradient handling, and eval-mode bookkeeping.  ``repro.exec``
collapses them onto one seam:

* :meth:`Executor.train_step(weights, batch) <Executor.train_step>` runs
  forward + backward on a ``(x, y)`` batch (both in scaled model space) and
  returns a :class:`StepResult` — the scalar loss, the per-parameter
  gradients (left on the model's parameters *and* returned), and a
  free-form ``stats`` dict of timings.
* :meth:`Executor.predict(weights, inputs) <Executor.predict>` runs a
  gradient-free forward pass and returns the outputs.  It is defined once,
  here: ``(N, H, F)``/``(B, N, H, F)`` rank handling, the optional
  ``history`` check and the optional ``scaler`` (raw units in and out)
  wrap each kind's scaled-space :meth:`Executor._forward`.
* :meth:`Executor.open` / :meth:`Executor.close` bracket resource
  ownership (worker processes, shared-memory buffers).  Opening an open
  executor or stepping a closed one raises :class:`ExecutorStateError`;
  ``close`` is idempotent and a closed executor may be re-opened.

``weights`` is either ``None`` — *use the model's current in-process
weights* — or a state dict to load first; every implementation loads it
into its model, and the sharded one also ships it to its workers, so
callers never care which kind they hold.  Anything that wants to extend execution (a compiled
trace-once backend, sensor-sharded spatial ops, batched serving) implements
this interface once and every caller — Trainer, ServingEngine, the harness
benches — picks it up for free.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Batch",
    "Executor",
    "ExecutorError",
    "ExecutorStateError",
    "StepResult",
    "eval_forward",
]

#: one training batch in scaled model space: ``(x, y)`` float arrays
Batch = Tuple[np.ndarray, np.ndarray]

#: optional weights argument: ``None`` = the executor's current weights
Weights = Optional[Dict[str, np.ndarray]]


class ExecutorError(RuntimeError):
    """An executor was asked to do something it cannot do."""


class ExecutorStateError(ExecutorError):
    """Lifecycle violation: double-open, or step/predict outside open()."""


@dataclass
class StepResult:
    """What one :meth:`Executor.train_step` call produced.

    ``grads`` is aligned with ``model.parameters()``; entries are ``None``
    for parameters that received no gradient.  The same arrays are also
    left on ``parameter.grad``, so optimizer code that reads gradients off
    the parameters keeps working unchanged.
    """

    loss: float
    grads: List[Optional[np.ndarray]] = field(repr=False, default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)


def eval_forward(model, inputs: np.ndarray) -> np.ndarray:
    """One gradient-free forward pass; restores the model's train/eval mode.

    Dropout and latent sampling are switched off for the pass and the
    previous mode is restored afterward, so calling this mid-training never
    perturbs the run.  Runs under :class:`repro.tensor.inference_mode` —
    no graph construction, no gradient buffers, no op tracing — which is
    the fast path every prediction surface (Trainer.evaluate/predict,
    artifacts, serving) now shares.  Under an active ``repro.obs.profile``
    context it drops to :func:`repro.tensor.no_grad` instead, so forward
    ops still reach the profiler (inference_mode bypasses op dispatch
    entirely and would record nothing).
    """
    from ..tensor import Tensor, hooks, inference_mode, no_grad

    guard = no_grad if hooks().trace is not None else inference_mode
    was_training = model.training
    model.eval()
    try:
        with guard():
            return model(Tensor(np.asarray(inputs, dtype=np.float64))).numpy()
    finally:
        model.train(was_training)


class Executor(abc.ABC):
    """Abstract execution backend over one model.

    Subclasses implement :meth:`_acquire` / :meth:`_release` for resource
    ownership, :meth:`train_step` and the scaled-space :meth:`_forward`;
    the base class owns the lifecycle state machine, the context-manager
    protocol and :meth:`predict`'s raw-units wrapper.

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

    #: lifecycle states
    _CREATED, _OPEN, _CLOSED = "created", "open", "closed"

    def __init__(self, model, *, scaler=None, history: Optional[int] = None):
        self.model = model
        self.scaler = scaler
        self.history = None if history is None else int(history)
        self._parameters = model.parameters()
        self._state = self._CREATED

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def is_open(self) -> bool:
        return self._state == self._OPEN

    def open(self) -> "Executor":
        """Acquire resources (worker processes, buffers); returns ``self``.

        Opening an already-open executor raises
        :class:`ExecutorStateError`; re-opening a closed one is allowed and
        acquires fresh resources.
        """
        if self._state == self._OPEN:
            raise ExecutorStateError(f"{type(self).__name__} is already open")
        self._acquire()
        self._state = self._OPEN
        return self

    def close(self) -> None:
        """Release resources; idempotent and safe to call in any state."""
        if self._state != self._OPEN:
            self._state = self._CLOSED
            return
        try:
            self._release()
        finally:
            self._state = self._CLOSED

    def _require_open(self, what: str) -> None:
        if self._state != self._OPEN:
            raise ExecutorStateError(
                f"{type(self).__name__}.{what} needs an open executor "
                f"(state is {self._state!r}; call open() first)"
            )

    def _load(self, weights: Weights) -> None:
        """Load a step's ``weights`` into the model (``None`` keeps its own)."""
        if weights is not None:
            self.model.load_state_dict(weights)

    def _acquire(self) -> None:  # pragma: no cover - trivial default
        """Subclass hook: acquire resources.  Default: nothing to acquire."""

    def _release(self) -> None:  # pragma: no cover - trivial default
        """Subclass hook: release resources.  Default: nothing to release."""

    def __enter__(self) -> "Executor":
        if self._state != self._OPEN:
            self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the step contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        """Forward + backward on ``batch``; gradients land on the model.

        ``weights`` of ``None`` uses the executor's current in-process
        weights; a state dict is loaded (and shipped to any workers) first.
        Raises ``FloatingPointError`` when the loss is non-finite so the
        resilience layer's rollback/retry machinery works identically
        against every implementation.
        """

    def predict(self, weights: Weights, inputs: np.ndarray) -> np.ndarray:
        """Forecast from a history window (single snapshot or batch).

        ``inputs`` is ``(N, H, F)`` for one network snapshot or
        ``(B, N, H, F)`` for a batch; the result keeps the input's rank.
        With a scaler configured: scaling in, the kind's gradient-free
        :meth:`_forward`, inverse scaling out — raw units end to end.
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
        forecast = self._forward(window)
        if self.scaler is not None:
            forecast = self.scaler.inverse_transform(forecast)
        return forecast[0] if squeeze else forecast

    @abc.abstractmethod
    def _forward(self, window: np.ndarray) -> np.ndarray:
        """Gradient-free forward pass on a scaled ``(B, N, H, F)`` window."""

    # ------------------------------------------------------------------ #
    # data plumbing
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
        """The training-batch source this executor prefers.

        The in-process :class:`repro.data.windows.BatchIterator` for every
        executor kind.  It draws the epoch order from the caller's ``rng``,
        so swapping executors never changes which samples land in which
        batch.
        """
        from ..data.windows import BatchIterator

        return BatchIterator(
            windows,
            batch_size=batch_size,
            shuffle=shuffle,
            rng=rng,
            max_batches=max_batches,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(model={type(self.model).__name__}, state={self._state!r})"
