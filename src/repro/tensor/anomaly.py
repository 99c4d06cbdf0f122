"""Numerical anomaly detection for the autodiff substrate.

Opt-in NaN/Inf screening of every traced op, modeled on
``torch.autograd.set_detect_anomaly``: inside a :func:`detect_anomaly`
context each primitive in :mod:`repro.tensor.ops` checks its forward output
and, on the backward pass, the upstream gradient entering its closure.  The
first non-finite value raises :class:`NumericalAnomalyError` carrying the op
name, the pass it surfaced in, and — for backward anomalies — the Python
stack captured when the offending op ran *forward* (its creation trace), so
a NaN discovered deep in backprop points at the forward line that built the
node.

The checks ride the single op dispatch point the :mod:`repro.obs` profiler
uses (``repro.tensor.ops._dispatch``, reading the ``anomaly`` interceptor of
:class:`repro.tensor.Hooks`); with no context active they cost nothing
beyond that one read per op call.  With a context active every op pays an
``np.isfinite().all()`` scan plus (by default) a stack capture, so this is
a debugging/fault-tolerance tool, not a production default — the
:class:`repro.training.Trainer` enables it via
``TrainerConfig.detect_anomaly`` and the recovery policy treats the raised
error as a divergence signal.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from .tensor import hooks, set_hooks


class NumericalAnomalyError(FloatingPointError):
    """A traced op produced or received non-finite values.

    Subclasses :class:`FloatingPointError` so existing divergence handling
    (the Trainer's NaN-loss guard, :class:`repro.resilience.RecoveryPolicy`)
    catches both through one ``except FloatingPointError``.
    """

    def __init__(
        self,
        op_name: str,
        phase: str,
        kind: str,
        creation_trace: Optional[str] = None,
    ):
        self.op_name = op_name
        self.phase = phase
        self.kind = kind
        self.creation_trace = creation_trace
        message = f"non-finite values ({kind}) in {phase} of op '{op_name}'"
        if creation_trace:
            message += f"\n--- forward creation trace of '{op_name}' ---\n{creation_trace}"
        super().__init__(message)


def _kind(data: np.ndarray) -> str:
    if np.isnan(data).any():
        return "nan"
    return "inf"


class AnomalyDetector:
    """The per-context state :func:`detect_anomaly` installs into the ops layer.

    ``record_traces`` controls whether a (costly) stack snapshot is taken at
    every forward op so backward anomalies can name their origin; turn it
    off to keep detection cheap when only the op name matters.
    """

    def __init__(
        self,
        check_forward: bool = True,
        check_backward: bool = True,
        record_traces: bool = True,
        stack_limit: int = 10,
    ):
        self.check_forward = check_forward
        self.check_backward = check_backward
        self.record_traces = record_traces
        self.stack_limit = stack_limit

    def _capture(self) -> str:
        # drop the innermost frames (this method, after_forward and the three
        # dispatch frames of repro.tensor.ops) so the trace ends at the caller
        frames = traceback.extract_stack(limit=self.stack_limit + 5)[:-5]
        return "".join(traceback.format_list(frames))

    def after_forward(self, name: str, data: np.ndarray) -> Optional[str]:
        """Check a forward output; returns the creation trace to attach."""
        if self.check_forward and not np.isfinite(data).all():
            trace = self._capture() if self.record_traces else None
            raise NumericalAnomalyError(name, "forward", _kind(data), trace)
        if self.check_backward and self.record_traces:
            return self._capture()
        return None

    def check_grad(self, name: str, grad: np.ndarray, creation_trace: Optional[str]) -> None:
        """Check the upstream gradient entering an op's backward closure."""
        if self.check_backward and not np.isfinite(grad).all():
            raise NumericalAnomalyError(name, "backward", _kind(grad), creation_trace)


def is_anomaly_detection_enabled() -> bool:
    """True while a :func:`detect_anomaly` context is active."""
    return hooks().anomaly is not None


@contextmanager
def detect_anomaly(
    check_forward: bool = True,
    check_backward: bool = True,
    record_traces: bool = True,
) -> Iterator[AnomalyDetector]:
    """Screen every traced op for NaN/Inf while the context is active.

    Nested contexts stack; the innermost detector wins while it is active
    (mirroring :func:`repro.obs.profile`).
    """
    detector = AnomalyDetector(
        check_forward=check_forward,
        check_backward=check_backward,
        record_traces=record_traces,
    )
    previous = set_hooks(anomaly=detector)
    try:
        yield detector
    finally:
        set_hooks(**previous)
