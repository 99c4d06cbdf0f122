"""Gradient-descent optimizers (Adam is what the paper trains with).

Every optimizer owns one contiguous float64 *arena*: the values of all its
parameters sit in one flat buffer, and each ``parameter.data`` is a
reshaped view of its segment.  The moment buffers and one flat gradient
buffer sit next to it, so a step is a few in-place ufunc passes over the
whole arena instead of a loop over parameters.  ``parameter.data`` is
therefore updated **in place**; hold a ``state_dict()`` copy, not the
array, when you need a snapshot.  Code that rebinds ``parameter.data``
(``Module.load_state_dict``, a rollback, a perturbation) is fine: the next
step copies the rebound value back into its segment and restores the view.

The gradient buffer is laid out the same way, and :func:`grad_segment`
hands a parameter's segment to whoever computes its gradient: a compiled
plan (:mod:`repro.compile`) writes gradients straight into it, and a step
then copies only the gradients that do not already live in their segment.
A step never writes into a parameter's gradient.

Both optimizers guard against non-finite gradients: a parameter whose
gradient contains NaN/Inf is skipped for that step (its value and moments
untouched), and the skip is counted in ``nonfinite_skips`` so the
resilience layer can surface it.  ``state_dict`` / ``load_state_dict``
expose the full internal state (moments, step counter, learning rate) for
checkpoint/resume, as per-parameter lists with ``None`` for slots that were
never updated.
"""

from __future__ import annotations

import math
import weakref
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..nn.module import Parameter

#: live optimizers by the id of their flat value buffer (the base of every
#: ``parameter.data`` they hold), for :func:`grad_segment`
_ARENAS: "weakref.WeakValueDictionary[int, Optimizer]" = weakref.WeakValueDictionary()


def grad_segment(parameter: Parameter) -> Optional[np.ndarray]:
    """The arena gradient segment of the optimizer holding ``parameter``.

    ``None`` when no live optimizer holds it (or ``parameter.data`` was
    rebound away from its segment).  A gradient computed into this array
    and left as ``parameter.grad`` is read by the next step without a copy.
    """
    owner = _ARENAS.get(id(parameter.data.base))
    if owner is None:
        return None
    index = owner._index.get(id(parameter))
    if index is None or owner._views[index] is not parameter.data:
        return None
    return owner._grad_views[index]


class Optimizer:
    """Base class: the parameter list, its flat arena and the step skeleton.

    A step gathers every gradient into the flat buffer (a gradient that is
    already its own segment stays put), checks finiteness once over it, runs the subclass's :meth:`_update` over the whole arena,
    and then restores the segments of skipped parameters (no gradient, or
    a non-finite one) from copies taken before the pass.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        seen: Dict[int, int] = {}
        for index, parameter in enumerate(self.parameters):
            first = seen.setdefault(id(parameter), index)
            if first != index:
                raise ValueError(
                    f"parameter {_label(parameter, index)} is listed twice (also at "
                    f"position {first}); pass each Parameter once"
                )
        self.lr = lr
        self.nonfinite_skips = 0  # parameter updates skipped on NaN/Inf grads
        bounds = [0, *accumulate(parameter.data.size for parameter in self.parameters)]
        self._segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._flat = np.empty(bounds[-1])
        self._grads = np.zeros(bounds[-1])
        self._scratch = np.empty(bounds[-1])
        self._index = {id(parameter): index for index, parameter in enumerate(self.parameters)}
        self._views: List[np.ndarray] = []
        self._grad_views: List[np.ndarray] = []
        for parameter, segment in zip(self.parameters, self._segments):
            view = self._flat[segment].reshape(parameter.data.shape)
            view[...] = parameter.data
            parameter.data = view
            self._views.append(view)
            self._grad_views.append(self._grads[segment].reshape(view.shape))
        # indices whose state slots were never updated (``None`` in state_dict)
        self._idle = set(range(len(self.parameters)))
        _ARENAS[id(self._flat)] = self

    def _state_buffers(self) -> Tuple[np.ndarray, ...]:
        """Flat per-element state a skipped parameter must keep (values first)."""
        return (self._flat,)

    def _update(self) -> None:
        """One update over the whole arena, reading (never writing) ``_grads``."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter with a finite gradient."""
        skipped = self._gather()
        buffers = self._state_buffers()
        saved = [
            (self._segments[index], [buffer[self._segments[index]].copy() for buffer in buffers])
            for index in skipped
        ]
        self._update()
        for segment, copies in saved:
            for buffer, copy in zip(buffers, copies):
                buffer[segment] = copy
        if self._idle:
            self._idle.intersection_update(skipped)

    def _gather(self) -> List[int]:
        """Copy gradients into the flat buffer; return the skipped indices.

        A gradient that already is its segment (see :func:`grad_segment`)
        is not copied.  Re-adopts any parameter whose ``.data`` was rebound
        since the last step.  Skipped segments of the gradient buffer are
        zeroed, so the flat pass stays finite and warning-free; a parameter
        whose non-finite gradient lived in its segment keeps a copy of it.
        """
        skipped = []
        for index, (parameter, view, grad_view) in enumerate(
            zip(self.parameters, self._views, self._grad_views)
        ):
            if parameter.data is not view:
                self._adopt(parameter, view, index)
            grad = parameter.grad
            if grad is None:
                grad_view.fill(0.0)
                skipped.append(index)
            elif grad is not grad_view:
                np.copyto(grad_view, grad)
        # one check over the whole buffer; find the culprits only on a hit
        if not np.isfinite(self._grads).all():
            for index, (parameter, grad_view) in enumerate(zip(self.parameters, self._grad_views)):
                if not np.isfinite(grad_view).all():
                    self.nonfinite_skips += 1
                    if parameter.grad is grad_view:
                        parameter.grad = grad_view.copy()
                    grad_view.fill(0.0)
                    skipped.append(index)
        return skipped

    @staticmethod
    def _adopt(parameter: Parameter, view: np.ndarray, index: int) -> None:
        """Copy a rebound ``parameter.data`` into its segment; restore the view."""
        if parameter.data.shape != view.shape:
            raise ValueError(
                f"parameter {_label(parameter, index)} was rebound to shape "
                f"{parameter.data.shape}; the optimizer holds shape {view.shape}"
            )
        np.copyto(view, parameter.data)
        parameter.data = view

    def _export(self, flat: np.ndarray) -> List[Optional[np.ndarray]]:
        """Per-parameter copies of ``flat``; ``None`` for never-updated slots."""
        return [
            None if index in self._idle else flat[segment].reshape(view.shape).copy()
            for index, (segment, view) in enumerate(zip(self._segments, self._views))
        ]

    def _import(self, flat: np.ndarray, slots: List[Optional[np.ndarray]], name: str) -> None:
        """Write per-parameter ``slots`` into ``flat`` (``None`` -> zeros)."""
        if len(slots) != len(self.parameters):
            raise ValueError(
                f"optimizer state mismatch: {len(slots)} {name} slots for "
                f"{len(self.parameters)} parameters"
            )
        for index, (segment, view, slot) in enumerate(zip(self._segments, self._views, slots)):
            if slot is None:
                flat[segment] = 0.0
                continue
            value = np.asarray(slot, dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(
                    f"optimizer state mismatch: {name} slot {index} has shape "
                    f"{value.shape}, parameter has {view.shape}"
                )
            flat[segment] = value.reshape(-1)

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the mutable optimizer state (for checkpointing)."""
        return {"lr": self.lr, "nonfinite_skips": self.nonfinite_skips}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.lr = float(state["lr"])
        self.nonfinite_skips = int(state.get("nonfinite_skips", 0))


def _label(parameter: Parameter, index: int) -> str:
    name = f"{parameter.name!r} " if parameter.name else ""
    return f"{name}#{index} (shape {parameter.data.shape})"


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._flat)

    def _state_buffers(self) -> Tuple[np.ndarray, ...]:
        return (self._flat, self._velocity)

    def _update(self) -> None:
        grad, tmp = self._grads, self._scratch
        if self.weight_decay:
            grad = np.add(grad, np.multiply(self._flat, self.weight_decay, out=tmp), out=tmp)
        if self.momentum:
            np.multiply(self._velocity, self.momentum, out=self._velocity)
            np.add(self._velocity, grad, out=self._velocity)
            grad = self._velocity
        np.subtract(self._flat, np.multiply(grad, self.lr, out=tmp), out=self._flat)

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        # without momentum the velocity is never used, so every slot is None
        state["velocity"] = (
            self._export(self._velocity) if self.momentum else [None] * len(self.parameters)
        )
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._import(self._velocity, state["velocity"], "velocity")
        self._idle = {i for i, slot in enumerate(state["velocity"]) if slot is None}


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) — the paper uses lr=1e-3."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._scratch2 = np.empty_like(self._flat)

    def _state_buffers(self) -> Tuple[np.ndarray, ...]:
        return (self._flat, self._m, self._v)

    def _update(self) -> None:
        # same per-element operation order as the textbook per-parameter
        # loop, so the arena pass is bit-identical to it
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad, tmp, tmp2, m, v = self._grads, self._scratch, self._scratch2, self._m, self._v
        if self.weight_decay:
            grad = np.add(grad, np.multiply(self._flat, self.weight_decay, out=tmp2), out=tmp2)
        np.add(np.multiply(m, self.beta1, out=m), np.multiply(grad, 1.0 - self.beta1, out=tmp), out=m)
        np.multiply(np.multiply(grad, 1.0 - self.beta2, out=tmp), grad, out=tmp)
        np.add(np.multiply(v, self.beta2, out=v), tmp, out=v)
        step = np.multiply(np.divide(m, bias1, out=tmp), self.lr, out=tmp)
        # the gradient is consumed; the second scratch holds sqrt(v_hat) + eps
        denom = np.add(np.sqrt(np.divide(v, bias2, out=tmp2), out=tmp2), self.eps, out=tmp2)
        np.subtract(self._flat, np.divide(step, denom, out=step), out=self._flat)

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["step_count"] = self._step_count
        state["m"] = self._export(self._m)
        state["v"] = self._export(self._v)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
        self._import(self._m, state["m"], "m")
        self._import(self._v, state["v"], "v")
        self._idle = {i for i, slot in enumerate(state["m"]) if slot is None}


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).  When the
    norm is non-finite (a NaN/Inf gradient somewhere), no scaling is applied
    — multiplying every gradient by ``max_norm / nan`` would poison all of
    them — and the raw non-finite norm is returned so callers can detect and
    handle the anomaly.  Allocation-free: one dot product per gradient and
    an in-place multiply when clipping.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    total = math.sqrt(sum(float(np.vdot(grad, grad)) for grad in grads))
    if not math.isfinite(total):
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            np.multiply(grad, scale, out=grad)
    return total
