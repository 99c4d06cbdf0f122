"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the computational substrate of the reproduction: the paper's
artifact is built on PyTorch, which is unavailable offline, so we implement
the subset of autograd needed to train every model in the paper from scratch.

The design mirrors the classic tape-based approach:

* A :class:`Tensor` wraps a ``numpy.ndarray`` plus an optional gradient.
* Every differentiable operation records its parents and a closure that
  propagates the incoming gradient to them.
* :meth:`Tensor.backward` topologically sorts the recorded graph and runs the
  closures in reverse order.

Only float64 is used.  Training at the scale of this reproduction is
CPU-bound either way, and float64 makes the numerical gradient checks in
:mod:`repro.tensor.gradcheck` precise enough to validate every op tightly.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


class _GradState(threading.local):
    """Per-thread autodiff mode flags (``__init__`` runs once per thread).

    Thread-local on purpose: the process serves and trains concurrently
    (a :class:`repro.serve.MicroBatcher` worker runs forwards under
    :class:`inference_mode` while :class:`repro.fleet.FleetManager`
    fine-tunes on another thread), and a shared flag with save/restore
    semantics is not reentrant across threads — interleaved exits can
    leave graph recording stuck off for everyone.
    """

    def __init__(self):
        self.grad_enabled = True
        self.inference_mode = False


_state = _GradState()


class no_grad:
    """Context manager that disables graph recording (like ``torch.no_grad``).

    Scoped to the entering thread, as in torch: other threads keep
    recording.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _state.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether this thread records operations on the autograd tape."""
    return _state.grad_enabled


class inference_mode(no_grad):
    """The serving fast path: ``no_grad`` plus zero per-op bookkeeping.

    Beyond disabling graph recording, ops executed inside this context skip
    every interceptor (:class:`Hooks`: profiler traces, :func:`detect_anomaly`
    screens and compile capture see nothing), so a forward pass
    costs exactly its NumPy arithmetic.  Online inference
    (:mod:`repro.serve`) runs every model forward under this context; its
    own request-level metrics replace op-level tracing there.  Like
    :class:`no_grad`, the mode is per-thread.
    """

    def __enter__(self) -> "inference_mode":
        super().__enter__()
        self._prev_inference = _state.inference_mode
        _state.inference_mode = True
        return self

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        _state.inference_mode = self._prev_inference


def is_inference_mode_enabled() -> bool:
    """Return whether the serving fast path is active on this thread."""
    return _state.inference_mode


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...], out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting replicates values along new or size-1 axes during the
    forward pass; the adjoint of replication is summation, so the backward
    pass must reduce the gradient back to the original operand shape.

    All broadcast axes (leading axes added by broadcasting plus interior
    size-1 axes) are reduced in a single ``np.add.reduce`` call; the final
    reshape restores the kept-as-1 dimensions.  When ``out`` is given (an
    array of exactly ``shape``) the reduced gradient is accumulated into it
    in place and ``out`` is returned.
    """
    if grad.shape == shape:
        if out is not None:
            out += grad
            return out
        return grad
    extra = grad.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, n in enumerate(shape) if n == 1 and grad.shape[i + extra] != 1
    )
    reduced = np.add.reduce(grad, axis=axes) if axes else grad
    if out is not None:
        out += reduced.reshape(shape)
        return out
    return np.ascontiguousarray(reduced).reshape(shape)


class Hooks:
    """The op interceptors of one context: one immutable snapshot per install.

    ``repro.tensor.ops._dispatch`` reads this state once per op call; with
    nothing installed that read is the whole cost of interception.  The
    state lives in a :class:`contextvars.ContextVar`, so it is scoped per
    thread (a new thread starts with nothing installed): a profiler or a
    compile capture in one thread neither sees another thread's ops nor
    changes how that thread executes.

    * ``trace(name, phase, seconds, flops, nbytes)`` times every forward and
      backward op (installed by ``repro.obs.profile``);
    * ``anomaly`` is a :class:`repro.tensor.anomaly.AnomalyDetector` that
      screens forward outputs and upstream gradients (``detect_anomaly``);
    * ``capture`` is a :class:`repro.compile.CaptureRecorder` recording the
      op stream of one step for compilation;
    * ``grad_alloc(nbytes)`` is called whenever the tape allocates a fresh
      gradient buffer (a defensive copy or a zero-fill) — the allocations
      in-place accumulation is meant to avoid.

    None of them sees ops run under :class:`inference_mode`.
    """

    __slots__ = ("trace", "anomaly", "capture", "grad_alloc", "per_op")

    def __init__(self, trace=None, anomaly=None, capture=None, grad_alloc=None):
        self.trace = trace
        self.anomaly = anomaly
        self.capture = capture
        self.grad_alloc = grad_alloc
        #: whether any per-op interceptor is installed (the dispatch test)
        self.per_op = trace is not None or anomaly is not None or capture is not None


_HOOK_NAMES = ("trace", "anomaly", "capture", "grad_alloc")
_hooks: ContextVar[Hooks] = ContextVar("repro_tensor_hooks", default=Hooks())


def hooks() -> Hooks:
    """The interceptors installed in the current context right now."""
    return _hooks.get()


def set_hooks(**changes) -> dict:
    """Install (or clear, with ``None``) interceptors by name, in this context.

    Returns the previous values of exactly the named interceptors, so
    ``set_hooks(**previous)`` restores them — the pattern every context
    manager (``repro.obs.profile``, ``detect_anomaly``, compile capture)
    uses to nest.
    """
    unknown = set(changes) - set(_HOOK_NAMES)
    if unknown:
        raise TypeError(f"unknown hooks {sorted(unknown)}; expected some of {_HOOK_NAMES}")
    current = _hooks.get()
    previous = {name: getattr(current, name) for name in changes}
    fields = {name: getattr(current, name) for name in _HOOK_NAMES}
    fields.update(changes)
    _hooks.set(Hooks(**fields))
    return previous


class Tensor:
    """A NumPy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Anything convertible to a float64 ``numpy.ndarray``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(_as_array(data), dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from . import ops

        return ops.transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({self.data!r}{grad_flag}{label})"

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction / backward
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Accumulate ``grad`` into :attr:`grad` in place.

        ``own=True`` asserts that ``grad`` is a freshly allocated, writable
        float64 array that the calling adjoint will never touch
        again (e.g. the result of ``grad * b.data``) — it is then adopted
        directly as the gradient buffer instead of being copied.  Arrays
        that alias anything persistent (the upstream gradient itself, views
        of it, ``np.broadcast_to`` results) must pass ``own=False``.
        """
        shape = self.data.shape
        if not isinstance(grad, np.ndarray) or grad.dtype != np.float64:
            grad = np.asarray(grad, dtype=np.float64)
            own = False
        buf = self.grad
        if buf is not None:
            unbroadcast(grad, shape, out=buf)
            return
        if grad.shape != shape:
            self.grad = unbroadcast(grad, shape)
            return
        if own:
            self.grad = grad
            return
        self.grad = grad.copy()
        grad_alloc = _hooks.get().grad_alloc
        if grad_alloc is not None:
            grad_alloc(self.grad.nbytes)

    def _grad_buffer(self) -> np.ndarray:
        """Return :attr:`grad`, zero-filling it first if unset.

        Scatter-style backward closures (``getitem``, ``gather``) write
        directly into this buffer with ``+=`` / ``np.add.at`` instead of
        materializing a full-size temporary per call.
        """
        buf = self.grad
        if buf is None:
            buf = self.grad = np.zeros(self.data.shape)
            grad_alloc = _hooks.get().grad_alloc
            if grad_alloc is not None:
                grad_alloc(buf.nbytes)
        return buf

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients are accumulated into :attr:`grad` of every tensor that
        requires grad.  Gradients of intermediate (non-leaf) nodes are freed
        as soon as they have been propagated, keeping peak memory low.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            1 for scalar tensors; required for non-scalars.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        order = self._topological_order()  # children-first, self at index 0
        self._accumulate(grad)
        # Children-first order guarantees every node's gradient is complete
        # (all children processed) before its own closure runs.
        for node in order:
            if node._backward_fn is None:
                continue
            if node.grad is None:
                continue
            node._backward_fn(node.grad)
            node.grad = None  # free intermediate gradient memory

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # operator overloads — implemented in repro.tensor.ops
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from . import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from . import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        from . import ops

        return ops.getitem(self, index)

    # convenience methods mirroring the functional API ------------------- #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        from . import ops

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes or None)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        from . import ops

        return ops.swapaxes(self, axis1, axis2)

    def exp(self) -> "Tensor":
        from . import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        from . import ops

        return ops.log(self)

    def tanh(self) -> "Tensor":
        from . import ops

        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        from . import ops

        return ops.sigmoid(self)

    def relu(self) -> "Tensor":
        from . import ops

        return ops.relu(self)

    def sqrt(self) -> "Tensor":
        from . import ops

        return ops.sqrt(self)

    def abs(self) -> "Tensor":
        from . import ops

        return ops.abs(self)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """Return a zero-filled tensor of ``shape``."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """Return a one-filled tensor of ``shape``."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)
