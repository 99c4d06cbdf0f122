"""Differentiable primitive operations for :class:`repro.tensor.Tensor`.

Every primitive is one :class:`Rule` in :data:`RULES`, and every formula is
written once, there:

* how a call binds its tensor operands and normalised static arguments
  (the body of the public function, which :func:`_op` turns into the op);
* ``forward``, writing into an optional ``out=`` buffer;
* one :class:`Adjoint` per operand, which computes its gradient
  contribution into a buffer the caller provides, returns a fresh array,
  returns a view of the upstream gradient, or scatters into the operand's
  gradient buffer;
* a FLOP estimate, fusability and view semantics.

Two interpreters consume the table.  The tape here runs a rule's forward in
:func:`_dispatch` and, on backward, loops over its adjoints into
``Tensor._accumulate``: computed contributions pass ``own=True`` (the
engine adopts the fresh array), views of the upstream gradient pass
``own=False`` (copied on first accumulation), scatters write straight into
``Tensor._grad_buffer``.  Plan lowering (:mod:`repro.compile.plan`) builds
replay instructions from the same forwards and adjoints, specialised once
at build time over preallocated buffers.  Adding an op is one record.

:func:`_dispatch` is also the single interception point.  It reads the
:class:`repro.tensor.tensor.Hooks` state once per op: the op-trace hook
(``repro.obs.profile``: per-op wall time, FLOPs and output bytes for
forward and backward), the anomaly screen (:func:`repro.tensor.detect_anomaly`)
and the compile capture (:mod:`repro.compile`).  With nothing installed
the cost is one attribute test, and under ``inference_mode`` an op is just
its forward.
"""

from __future__ import annotations

import builtins
import functools
import time as _time
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import tensor as tensor_module
from .tensor import ArrayLike, Tensor, as_tensor
from .tensor import hooks as current_hooks

Axis = Union[None, int, Tuple[int, ...]]

_F, _B = np.float64, np.bool_


# --------------------------------------------------------------------- #
# rule records
# --------------------------------------------------------------------- #
class Adjoint:
    """How one operand's gradient follows from the output gradient ``g``.

    ``view(g, st, i)`` turns ``g`` into a view (``g`` itself when None).
    It depends only on ``g``'s buffer and the static arguments, so a plan
    takes it once at build time over its fixed gradient buffer.

    ``fn(g, y, xs, st, out, tmp)`` computes the contribution from that
    view, the forward output ``y`` and the operand arrays ``xs``.  When
    ``fn`` is None the view itself is the contribution (view semantics:
    the tape accumulates it with ``own=False``).  With ``into`` set, ``fn``
    writes into ``out`` when one is given, so a plan computes straight into
    gradient buffers; otherwise it always returns a fresh array.

    ``accum(buf, g)`` folds the contribution into ``buf`` in one pass.
    ``scatter(buf, g, st)`` adds it into the operand's full-size gradient
    buffer in place (index-style ops); ``assign(buf, g, st)``, when set,
    writes the selected elements instead, which a plan uses when its
    scatters write every element of a gradient exactly once.  ``tmp``
    declares the scratch buffers ``fn`` takes (see :func:`scratch_shapes`).
    """

    __slots__ = ("fn", "into", "view", "accum", "scatter", "assign", "tmp", "blank")

    def __init__(
        self, fn=None, *, into=False, view=None, accum=None, scatter=None, assign=None, tmp=()
    ):
        self.fn = fn
        self.into = into
        self.view = view
        self.accum = accum
        self.scatter = scatter
        self.assign = assign
        self.tmp = tmp
        self.blank = (None,) * len(tmp)


class Rule:
    """One primitive: forward, adjoints and the facts both interpreters need.

    ``forward(xs, st, out, tmp)`` computes from the operand arrays ``xs``
    and static arguments ``st``, writing into ``out`` when given.
    ``rebinds`` marks forwards that return a view (or a new array) instead,
    which a plan rebinds every replay.  ``out_shape(st)``, when set, marks
    a forward that needs ``out`` provided, zero-filled (pad writes only its
    interior, broadcast_to copies into it); the tape then allocates it and
    a plan zero-fills its buffer once.  ``tmp`` declares the forward's scratch buffers (see
    :func:`scratch_shapes`).  ``pick(st, i)``, when set, chooses operand ``i``'s
    adjoint from the static arguments (and covers variadic operands);
    otherwise ``adjoints[i]`` applies.  ``flops`` is a per-output-
    element estimate or ``fn(xs, y)``.  ``fusable`` ops join single-
    consumer elementwise chains in plans; ``lowerable=False`` ops keep a
    trace on the interpreted path.
    """

    __slots__ = (
        "name", "forward", "adjoints", "pick", "flops", "fusable", "rebinds", "out_shape",
        "lowerable", "tmp", "blank",
    )

    def __init__(self, name, forward, adjoints, *, pick=None, flops=1.0, fusable=False,
                 rebinds=False, out_shape=None, lowerable=True, tmp=()):
        self.name = name
        self.forward = forward
        self.adjoints = adjoints
        self.pick = pick
        self.flops = flops
        self.fusable = fusable
        self.rebinds = rebinds
        self.out_shape = out_shape
        self.lowerable = lowerable
        self.tmp = tmp
        self.blank = (None,) * len(tmp)

    def adjoint(self, st, i: int) -> Adjoint:
        return self.adjoints[i] if self.pick is None else self.pick(st, i)

    def forward_flops(self, xs: tuple, y: np.ndarray) -> float:
        if callable(self.flops):
            return float(self.flops(xs, y))
        return float(y.size) * self.flops


#: every primitive by name, in definition order
RULES: Dict[str, Rule] = {}


def _op(forward, adjoints=(), **facts):
    """Register the decorated binder as a rule; return the public op.

    The binder has the op's public signature and docstring; its body only
    maps the call to ``(operand tensors, static arguments)``.
    """

    def register(bind):
        rule = Rule(bind.__name__, forward, adjoints, **facts)
        RULES[rule.name] = rule

        @functools.wraps(bind)
        def op(*args, **kwargs):
            operands, st = bind(*args, **kwargs)
            return _dispatch(rule, operands, st)

        op.rule = rule
        return op

    return register


def scratch_shapes(tmp: tuple, shape: Tuple[int, ...], st) -> list:
    """``(shape, dtype)`` of each scratch buffer a ``tmp`` declaration asks for.

    An entry is a dtype (a buffer shaped like the op's output ``shape``)
    or ``(shape_fn, dtype)`` with ``shape_fn(shape, st)``.  Formulas write
    scratch through ``out=`` and keep the result, so the tape passes
    ``None`` for every buffer (NumPy allocates) while a plan passes buffers
    it allocated once.
    """
    return [
        (entry[0](shape, st), entry[1]) if isinstance(entry, tuple) else (shape, entry)
        for entry in tmp
    ]


# --------------------------------------------------------------------- #
# the dispatch point: tape interpreter + interceptors
# --------------------------------------------------------------------- #
def _dispatch(rule: Rule, operands: tuple, st) -> Tensor:
    # the operand arrays; unrolled for the common arities (this is per op call)
    if len(operands) == 1:
        xs = (operands[0].data,)
    elif len(operands) == 2:
        xs = (operands[0].data, operands[1].data)
    else:
        xs = tuple([t.data for t in operands])
    out = None if rule.out_shape is None else np.zeros(rule.out_shape(st))
    if tensor_module._state.inference_mode:
        return Tensor(rule.forward(xs, st, out, rule.blank))
    hooks = current_hooks()
    if hooks.per_op:
        return _intercepted(rule, operands, st, xs, out, hooks)
    return _node(rule, operands, st, xs, rule.forward(xs, st, out, rule.blank))


def _node(rule: Rule, operands: tuple, st, xs: tuple, y) -> Tensor:
    """Wrap a forward result; record it on the tape when any operand needs grad."""
    out = Tensor(y)
    if not tensor_module._state.grad_enabled:
        return out
    parents = tuple([t for t in operands if t.requires_grad])
    if parents:
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = functools.partial(_backward, rule, operands, st, xs, out.data)
    return out


def _backward(rule: Rule, operands: tuple, st, xs: tuple, y: np.ndarray, g: np.ndarray) -> None:
    adjoints, pick = rule.adjoints, rule.pick
    for i, operand in enumerate(operands):
        if not operand.requires_grad:
            continue
        adj = adjoints[i] if pick is None else pick(st, i)
        gv = g if adj.view is None else adj.view(g, st, i)
        if adj.scatter is not None:
            buf = operand._grad_buffer()
            if gv.any():  # scattering zeros is a no-op (the buffer exists now)
                adj.scatter(buf, gv, st)
        elif adj.fn is None:
            operand._accumulate(gv)
        else:
            operand._accumulate(adj.fn(gv, y, xs, st, None, adj.blank), own=True)


def _intercepted(rule: Rule, operands: tuple, st, xs: tuple, out, hooks) -> Tensor:
    """The op path while a trace hook, anomaly screen or capture is installed."""
    trace, anomaly, capture = hooks.trace, hooks.anomaly, hooks.capture
    start = _time.perf_counter()
    out = _node(rule, operands, st, xs, rule.forward(xs, st, out, rule.blank))
    if trace is not None or anomaly is not None:
        name = rule.name
        flops, nbytes = 0.0, 0
        if trace is not None:
            elapsed = _time.perf_counter() - start
            nbytes = int(out.data.nbytes)
            flops = rule.forward_flops(xs, out.data)
            trace(name, "forward", elapsed, flops, nbytes)
        # may raise NumericalAnomalyError; returns the creation trace that a
        # later backward anomaly of this node will report
        creation = anomaly.after_forward(name, out.data) if anomaly is not None else None
        if out._backward_fn is not None:
            # backward FLOPs are charged at the conventional 2x forward; the
            # gradient has the output's shape, hence the same bytes
            out._backward_fn = _observed(name, out._backward_fn, 2.0 * flops, nbytes, creation)
    if capture is not None:
        capture.record_op(rule, operands, st, out)
    return out


def _observed(name: str, inner, flops: float, nbytes: int, creation: Optional[str]):
    def backward(grad: np.ndarray) -> None:
        hooks = current_hooks()
        if hooks.anomaly is not None:
            hooks.anomaly.check_grad(name, grad, creation)
        if hooks.trace is None:
            inner(grad)
            return
        start = _time.perf_counter()
        inner(grad)
        hooks.trace(name, "backward", _time.perf_counter() - start, flops, nbytes)

    return backward


def notify_host_input(value: np.ndarray, regen=None) -> np.ndarray:
    """Declare ``value`` a per-step host-generated input (RNG draw, mask).

    Modules that feed freshly generated NumPy arrays into traced ops each
    step (latent noise, dropout masks) call this right after drawing.  With
    no capture active it is a no-op returning ``value``.  Under capture the
    recorder registers the array so the plan treats it as a per-step input
    rather than a frozen constant; ``regen``, when given, is a closure that
    re-draws the value from the same generator so replay reproduces the
    serial RNG stream bit-exactly.
    """
    capture = current_hooks().capture
    if capture is not None:
        capture.record_host_input(value, regen)
    return value


def notify_compile_unsupported(reason: str) -> None:
    """Declare that the current step has Python-level state the compiler
    cannot replay (running-stat updates, data-dependent masks).

    No-op unless a capture is active; under capture the recorder marks the
    trace dead so the executor permanently falls back to the interpreted
    path for this signature.
    """
    capture = current_hooks().capture
    if capture is not None:
        capture.mark_unsupported(reason)


# --------------------------------------------------------------------- #
# shared forwards and adjoints
# --------------------------------------------------------------------- #
def _unary(ufunc):
    forward = lambda xs, st, out, tmp: ufunc(xs[0], out=out)  # noqa: E731
    forward.ufunc = ufunc  # lets a plan call the ufunc itself
    return forward


def _binary(ufunc):
    forward = lambda xs, st, out, tmp: ufunc(xs[0], xs[1], out=out)  # noqa: E731
    forward.ufunc = ufunc
    return forward


#: the upstream gradient itself (broadcast operands are reduced by the caller)
_GRAD = Adjoint()
_NEGATED = Adjoint(
    lambda g, y, xs, st, out, tmp: np.negative(g, out=out),
    into=True,
    accum=lambda buf, g: np.subtract(buf, g, out=buf),
)


def _times(j: int) -> Adjoint:
    """``g * xs[j]`` — the product rule's adjoint for the other factor."""
    return Adjoint(lambda g, y, xs, st, out, tmp: np.multiply(g, xs[j], out=out), into=True)


def _selected(compare) -> Tuple[Adjoint, Adjoint]:
    """Extremum adjoints: ties route the gradient to the first operand."""
    return (
        Adjoint(lambda g, y, xs, st, out, tmp: g * compare(xs[0], xs[1])),
        Adjoint(lambda g, y, xs, st, out, tmp: g * ~compare(xs[0], xs[1])),
    )


def _stable_sigmoid(xs, st, out, tmp):
    """``1 / (1 + exp(-x))`` without overflow: branch on the sign of ``x``."""
    x, (t1, t2, mb) = xs[0], tmp
    t1 = np.abs(x, out=t1)
    np.negative(t1, out=t1)
    np.exp(t1, out=t1)  # e = exp(-|x|)
    t2 = np.add(t1, 1.0, out=t2)  # 1 + e
    out = np.divide(t1, t2, out=out)  # e / (1 + e)   (x < 0 branch)
    np.divide(1.0, t2, out=t2)  # 1 / (1 + e)   (x >= 0 branch)
    mb = np.greater_equal(x, 0.0, out=mb)
    np.copyto(out, t2, where=mb)
    return out


def _expand_reduced(grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool) -> np.ndarray:
    """Broadcast view of a reduction's output gradient over its input shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


def _reduced_view(g, st, i):
    axis, keepdims, shape = st
    return _expand_reduced(g, shape, axis, keepdims)


def _flat(g, st, i):
    return g.reshape(-1, g.shape[-1])


#: ``g @ W^T`` — the input adjoint of a product with a matrix operand
_GEMM_A = Adjoint(
    lambda g, y, xs, st, out, tmp: np.matmul(g, xs[1].swapaxes(-1, -2), out=out), into=True
)
#: shared-weight adjoint: one ``(M, k)^T @ (M, m)`` GEMM over the collapsed
#: batch, never a batched product followed by a broadcast reduction
_FLAT_GEMM = Adjoint(
    lambda g, y, xs, st, out, tmp: np.matmul(xs[0].reshape(-1, xs[0].shape[-1]).T, g, out=out),
    into=True,
    view=_flat,
)


def _gemm_flops(xs, y):
    return 2.0 * float(y.size) * float(xs[0].shape[-1])


def _input_flops(xs, y):
    return float(xs[0].size)


# --------------------------------------------------------------------- #
# elementwise arithmetic
# --------------------------------------------------------------------- #
@_op(_binary(np.add), (_GRAD, _GRAD), fusable=True)
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    return (as_tensor(a), as_tensor(b)), None


@_op(_binary(np.subtract), (_GRAD, _NEGATED), fusable=True)
def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    return (as_tensor(a), as_tensor(b)), None


@_op(_binary(np.multiply), (_times(1), _times(0)), fusable=True)
def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    return (as_tensor(a), as_tensor(b)), None


@_op(
    _binary(np.divide),
    (
        Adjoint(lambda g, y, xs, st, out, tmp: np.divide(g, xs[1], out=out), into=True),
        Adjoint(lambda g, y, xs, st, out, tmp: -g * xs[0] / (xs[1] * xs[1])),
    ),
    fusable=True,
)
def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    return (as_tensor(a), as_tensor(b)), None


@_op(_unary(np.negative), (_NEGATED,), fusable=True)
def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    return (as_tensor(a),), None


@_op(
    lambda xs, e, out, tmp: np.power(xs[0], e, out=out),
    (Adjoint(lambda g, y, xs, e, out, tmp: g * e * xs[0] ** (e - 1.0)),),
    flops=2.0,
    fusable=True,
)
def power(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    return (as_tensor(a),), float(exponent)


@_op(
    _unary(np.exp),
    (Adjoint(lambda g, y, xs, st, out, tmp: np.multiply(g, y, out=out), into=True),),
    flops=4.0,
    fusable=True,
)
def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    return (as_tensor(a),), None


@_op(
    _unary(np.log),
    (Adjoint(lambda g, y, xs, st, out, tmp: np.divide(g, xs[0], out=out), into=True),),
    flops=4.0,
    fusable=True,
)
def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    return (as_tensor(a),), None


@_op(
    _unary(np.sqrt),
    (Adjoint(lambda g, y, xs, st, out, tmp: g * 0.5 / y),),
    flops=2.0,
    fusable=True,
)
def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root."""
    return (as_tensor(a),), None


@_op(_unary(np.abs), (Adjoint(lambda g, y, xs, st, out, tmp: g * np.sign(xs[0])),), fusable=True)
def abs(a: ArrayLike) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient 0 at 0)."""
    return (as_tensor(a),), None


@_op(_binary(np.maximum), _selected(np.greater_equal), fusable=True)
def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; ties route the gradient to the first operand."""
    return (as_tensor(a), as_tensor(b)), None


@_op(_binary(np.minimum), _selected(np.less_equal), fusable=True)
def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first operand."""
    return (as_tensor(a), as_tensor(b)), None


@_op(
    lambda xs, st, out, tmp: np.clip(xs[0], st[0], st[1], out=out),
    (Adjoint(lambda g, y, xs, st, out, tmp: g * ((xs[0] >= st[0]) & (xs[0] <= st[1]))),),
    flops=2.0,
    fusable=True,
)
def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is 1 inside, 0 outside."""
    return (as_tensor(a),), (float(low), float(high))


@_op(
    lambda xs, cond, out, tmp: np.where(cond, xs[0], xs[1]),
    (
        Adjoint(lambda g, y, xs, cond, out, tmp: g * cond),
        Adjoint(lambda g, y, xs, cond, out, tmp: g * ~cond),
    ),
    lowerable=False,
)
def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data).

    The condition is a Python-level array no plan can see through (it would
    freeze one batch's mask), so a trace containing ``where`` stays on the
    interpreted path.
    """
    return (as_tensor(a), as_tensor(b)), np.asarray(condition, dtype=bool)


def _huber_forward(xs, delta, out, tmp):
    x, (t1, t2, mb) = xs[0], tmp
    t1 = np.abs(x, out=t1)
    mb = np.less_equal(t1, delta, out=mb)
    # linear branch: delta * (|x| - 0.5 * delta)
    np.subtract(t1, 0.5 * delta, out=t1)
    out = np.multiply(t1, delta, out=out)
    # quadratic branch: (0.5 * x) * x
    t2 = np.multiply(x, 0.5, out=t2)
    np.multiply(t2, x, out=t2)
    np.copyto(out, t2, where=mb)
    return out


@_op(
    _huber_forward,
    (
        Adjoint(
            lambda g, y, xs, delta, out, tmp: np.where(
                np.abs(xs[0]) <= delta, g * xs[0], (g * delta) * np.sign(xs[0])
            )
        ),
    ),
    flops=4.0,
    fusable=True,
    tmp=(_F, _F, _B),
)
def huber(a: ArrayLike, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty of a residual: quadratic inside ``delta``.

    ``0.5 * a**2`` where ``|a| <= delta``, ``delta * (|a| - 0.5 * delta)``
    outside.  The region mask is internal to the op (recomputed from the
    input in backward), which keeps the loss a pure function of its tensor
    arguments — unlike a ``where(abs(a).data <= delta, ...)`` composite,
    whose Python-level condition array is opaque to both the trace hook and
    the compile capture.
    """
    return (as_tensor(a),), float(delta)


# --------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------- #
def _tanh_adjoint(g, y, xs, st, out, tmp):
    t = np.multiply(y, y, out=out)
    np.subtract(1.0, t, out=t)
    return np.multiply(g, t, out=t)


@_op(_unary(np.tanh), (Adjoint(_tanh_adjoint, into=True),), flops=6.0, fusable=True)
def tanh(a: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    return (as_tensor(a),), None


def _sigmoid_adjoint(g, y, xs, st, out, tmp):
    t = np.subtract(1.0, y, out=tmp[0])
    out = np.multiply(g, y, out=out)
    return np.multiply(out, t, out=out)


@_op(
    _stable_sigmoid,
    (Adjoint(_sigmoid_adjoint, into=True, tmp=(_F,)),),
    flops=6.0,
    fusable=True,
    tmp=(_F, _F, _B),
)
def sigmoid(a: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    return (as_tensor(a),), None


@_op(
    lambda xs, st, out, tmp: np.maximum(xs[0], 0.0, out=out),
    (
        Adjoint(
            lambda g, y, xs, st, out, tmp: np.multiply(g, np.greater(xs[0], 0, out=tmp[0]), out=out),
            into=True,
            tmp=(_B,),
        ),
    ),
    fusable=True,
)
def relu(a: ArrayLike) -> Tensor:
    """Rectified linear unit: ``max(x, 0)``, with NaN passed through."""
    return (as_tensor(a),), None


def _leaky_relu_forward(xs, slope, out, tmp):
    x = xs[0]
    out = np.multiply(x, slope, out=out)
    np.copyto(out, x, where=np.greater(x, 0, out=tmp[0]))
    return out


@_op(
    _leaky_relu_forward,
    (Adjoint(lambda g, y, xs, slope, out, tmp: g * np.where(xs[0] > 0, 1.0, slope)),),
    flops=2.0,
    fusable=True,
    tmp=(_B,),
)
def leaky_relu(a: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit."""
    return (as_tensor(a),), float(negative_slope)


def _softplus_forward(xs, st, out, tmp):
    x, (t1, t2) = xs[0], tmp
    t1 = np.abs(x, out=t1)
    np.negative(t1, out=t1)
    np.exp(t1, out=t1)
    np.log1p(t1, out=t1)
    t2 = np.maximum(x, 0.0, out=t2)
    return np.add(t2, t1, out=out)


@_op(
    _softplus_forward,
    # d softplus / dx = sigmoid(x)
    (Adjoint(lambda g, y, xs, st, out, tmp: g * _stable_sigmoid(xs, st, None, (None,) * 3)),),
    flops=8.0,
    fusable=True,
    tmp=(_F, _F),
)
def softplus(a: ArrayLike) -> Tensor:
    """Numerically stable ``log(1 + exp(a))``."""
    return (as_tensor(a),), None


# --------------------------------------------------------------------- #
# linear algebra
# --------------------------------------------------------------------- #
def _matmul_adjoint(ndims, i: int) -> Adjoint:
    a_ndim, b_ndim = ndims
    if i == 0:
        return _OUTER_A if b_ndim == 1 else _GEMM_A
    if a_ndim == 1:
        return _OUTER_B
    if b_ndim == 1:
        return _VECTOR_B
    return _FLAT_GEMM if b_ndim == 2 and a_ndim > 2 else _BATCHED_B


#: (..., n) @ (n,) -> (...,): d/da = grad ⊗ b
_OUTER_A = Adjoint(lambda g, y, xs, st, out, tmp: g[..., None] * xs[1])
#: (n,) @ (..., n, k) -> (..., k): d/db = a ⊗ grad
_OUTER_B = Adjoint(lambda g, y, xs, st, out, tmp: xs[0][:, None] * g[..., None, :])
#: (..., m, n) @ (n,) -> (..., m): d/db = aᵀ grad per batch element
_VECTOR_B = Adjoint(lambda g, y, xs, st, out, tmp: xs[0] * g[..., None])
_BATCHED_B = Adjoint(
    lambda g, y, xs, st, out, tmp: np.matmul(xs[0].swapaxes(-1, -2), g, out=out), into=True
)


@_op(_binary(np.matmul), pick=_matmul_adjoint, flops=_gemm_flops)
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product with NumPy batching semantics (``a @ b``).

    The backward pass multiplies against ``swapaxes`` *views* (never
    materialized transposes) and, for the ubiquitous ``(..., m, n) @ (n, k)``
    shared-weight case, collapses the batch into a single
    ``(M, n)^T @ (M, k)`` GEMM instead of a batched product followed by a
    broadcast reduction.
    """
    a, b = as_tensor(a), as_tensor(b)
    return (a, b), (a.data.ndim, b.data.ndim)


def _linear_forward(xs, st, out, tmp):
    out = np.matmul(xs[0], xs[1], out=out)
    for bias in xs[2:]:
        out += bias
    return out


_BIAS = Adjoint(
    lambda g, y, xs, st, out, tmp: np.add.reduce(g, axis=0, out=out), into=True, view=_flat
)


def _linear_adjoint(vector_bias: bool, i: int) -> Adjoint:
    if i == 2:
        # a 1-D bias reduces the flat gradient in one pass (a size-1 one is
        # then unbroadcast further); any other bias shape takes the generic
        # unbroadcast of the upstream gradient
        return _BIAS if vector_bias else _GRAD
    return (_GEMM_A, _FLAT_GEMM)[i]


@_op(_linear_forward, pick=_linear_adjoint, flops=_gemm_flops)
def linear(x: ArrayLike, weight: ArrayLike, bias: Optional[ArrayLike] = None) -> Tensor:
    """Fused affine map ``x @ W + b`` for a shared 2-D weight.

    One forward GEMM (the bias is added in place into the product buffer)
    and one backward pass producing all three gradients:

    * ``dx = grad @ W^T`` (``swapaxes`` view, no transpose copy),
    * ``dW = x_flat^T @ grad_flat`` — a single GEMM over the collapsed
      batch, never the batched outer-product + reduction ``matmul`` takes,
    * ``db = grad_flat.sum(axis=0)`` via one ``np.add.reduce``.

    Per-sample generated weights (``W.ndim != 2``) are not fused — use
    ``matmul``/``add`` (or :func:`repro.tensor.functional.linear`, which
    dispatches) for those.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.data.ndim != 2:
        raise ValueError(f"linear expects a 2-D weight, got shape {weight.data.shape}")
    if bias is None:
        return (x, weight), False
    bias = as_tensor(bias)
    return (x, weight, bias), bias.data.ndim == 1


# --------------------------------------------------------------------- #
# shape manipulation
# --------------------------------------------------------------------- #
def _untranspose(g, axes, i):
    # the inverse permutation (reversal, axes=None, is its own inverse);
    # argsort is right only because the binder normalised negative axes
    return g.transpose(None if axes is None else np.argsort(axes))


@_op(
    lambda xs, axes, out, tmp: xs[0].transpose(axes),
    (Adjoint(view=_untranspose),),
    flops=0.0,
    rebinds=True,
)
def transpose(a: ArrayLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    """Permute axes (reverse order when ``axes`` is None)."""
    a = as_tensor(a)
    if axes is not None:
        axes = tuple(int(ax) % a.data.ndim for ax in axes)
    return (a,), axes


@_op(
    lambda xs, st, out, tmp: xs[0].swapaxes(st[0], st[1]),
    (Adjoint(view=lambda g, st, i: g.swapaxes(st[0], st[1])),),
    flops=0.0,
    rebinds=True,
)
def swapaxes(a: ArrayLike, axis1: int, axis2: int) -> Tensor:
    """Interchange two axes."""
    return (as_tensor(a),), (int(axis1), int(axis2))


@_op(
    lambda xs, st, out, tmp: xs[0].reshape(st[0]),
    (Adjoint(view=lambda g, st, i: g.reshape(st[1])),),
    flops=0.0,
    rebinds=True,
)
def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Reshape without copying semantics (gradient reshapes back)."""
    a = as_tensor(a)
    return (a,), (shape, a.data.shape)


#: index components that keep NumPy in *basic* (view, duplicate-free) mode
_BASIC_INDEX_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic_index(index) -> bool:
    """True when ``index`` triggers basic (non-fancy) NumPy indexing.

    Basic indices select each source element at most once, so the gradient
    scatter can be a direct ``buffer[index] += grad`` instead of the much
    slower duplicate-safe ``np.add.at``.
    """
    if isinstance(index, tuple):
        return all(isinstance(part, _BASIC_INDEX_TYPES) for part in index)
    return isinstance(index, _BASIC_INDEX_TYPES)


def _is_identity_index(index) -> bool:
    """True when ``index`` selects the whole array unchanged (``x[:]``, ``x[...]``)."""
    full = slice(None)
    if index is Ellipsis or (isinstance(index, slice) and index == full):
        return True
    if isinstance(index, tuple):
        return all(part is Ellipsis or (isinstance(part, slice) and part == full) for part in index)
    return False


def _scatter_add(buf, g, index):
    buf[index] += g


def _scatter_set(buf, g, index):
    buf[index] = g


def _scatter_add_at(buf, g, index):
    np.add.at(buf, index, g)


#: duplicate-free index: adding into zeros is assigning
_SCATTER_ADD = Adjoint(scatter=_scatter_add, assign=_scatter_set)
_SCATTER_ADD_AT = Adjoint(scatter=_scatter_add_at)


def _getitem_adjoint(index, i) -> Adjoint:
    if _is_basic_index(index):
        return _GRAD if _is_identity_index(index) else _SCATTER_ADD
    # plain fancy ``+=`` is safe (and an order of magnitude faster than
    # np.add.at) when no source element is selected twice
    unique = (
        isinstance(index, np.ndarray)
        and index.dtype.kind in "iu"
        and np.unique(index).size == index.size
    )
    return _SCATTER_ADD if unique else _SCATTER_ADD_AT


@_op(lambda xs, index, out, tmp: xs[0][index], pick=_getitem_adjoint, flops=0.0, rebinds=True)
def getitem(a: ArrayLike, index) -> Tensor:
    """Index ``a``; the gradient scatters back into the parent's buffer.

    Basic indices (ints/slices/ellipsis — never duplicated) and fancy index
    arrays without repeats use direct ``+=`` into the preallocated gradient
    buffer; repeated index arrays fall back to ``np.add.at``.  Identity
    indices pass the gradient through, and an all-zero upstream gradient
    skips the scatter entirely.
    """
    return (as_tensor(a),), index


def _put_along(buf, g, st):
    axis, idx = st
    np.put_along_axis(buf, idx, np.take_along_axis(buf, idx, axis=axis) + g, axis=axis)


_PUT_ALONG = Adjoint(scatter=_put_along)


def _gather_adjoint(st, i) -> Adjoint:
    axis, idx = st
    # put_along_axis (read-add-write) is safe only when no lane of the
    # index repeats a source position
    if idx.shape[axis] <= 1:
        return _PUT_ALONG
    ordered = np.sort(idx, axis=axis)
    keep = [slice(None)] * idx.ndim
    drop = list(keep)
    keep[axis], drop[axis] = slice(1, None), slice(None, -1)
    if not (ordered[tuple(keep)] == ordered[tuple(drop)]).any():
        return _PUT_ALONG
    grids = list(np.ogrid[tuple(slice(n) for n in idx.shape)])
    grids[axis] = idx
    grids = tuple(grids)
    return Adjoint(scatter=lambda buf, g, st: np.add.at(buf, grids, g))


@_op(
    lambda xs, st, out, tmp: np.take_along_axis(xs[0], st[1], axis=st[0]),
    pick=_gather_adjoint,
    flops=0.0,
    rebinds=True,
)
def gather(a: ArrayLike, axis: int, index: np.ndarray) -> Tensor:
    """Select along ``axis`` with ``np.take_along_axis`` semantics.

    ``index`` must be an integer array with ``index.ndim == a.ndim`` (sizes
    match ``a`` except along ``axis``).  The backward scatter uses
    ``np.put_along_axis`` (read-add-write) whenever no lane of ``index``
    repeats a source position, and falls back to duplicate-safe
    ``np.add.at`` otherwise.  This is the op behind per-node parameter
    selection in the decoders.
    """
    a = as_tensor(a)
    idx = np.array(index)  # frozen: a plan replays this very index
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"gather index must be integer, got dtype {idx.dtype}")
    if idx.ndim != a.data.ndim:
        raise ValueError(f"gather index ndim {idx.ndim} != input ndim {a.data.ndim}")
    return (a,), (int(axis) % a.data.ndim if a.data.ndim else 0, idx)


def _piece(g, st, i):
    axis, offsets = st
    return g[(slice(None),) * axis + (slice(offsets[i], offsets[i + 1]),)]


_PIECE = Adjoint(view=_piece)


@_op(
    lambda xs, st, out, tmp: np.concatenate(xs, axis=st[0], out=out),
    pick=lambda st, i: _PIECE,
    flops=0.0,
)
def concat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = tuple(as_tensor(t) for t in tensors)
    axis = int(axis) % tensors[0].data.ndim
    offsets = [0]
    for t in tensors:
        offsets.append(offsets[-1] + t.data.shape[axis])
    return tensors, (axis, offsets)


_SLAB = Adjoint(view=lambda g, axis, i: np.moveaxis(g, axis, 0)[i])


@_op(
    lambda xs, axis, out, tmp: np.stack(xs, axis=axis),
    pick=lambda axis, i: _SLAB,
    flops=0.0,
    rebinds=True,
)
def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = tuple(as_tensor(t) for t in tensors)
    return tensors, int(axis) % (tensors[0].data.ndim + 1)


def _pad_forward(xs, st, out, tmp):
    out[st[0]] = xs[0]
    return out


@_op(
    _pad_forward,
    (Adjoint(view=lambda g, st, i: g[st[0]]),),
    flops=0.0,
    out_shape=lambda st: st[1],
)
def pad(a: ArrayLike, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    """Zero-pad; the gradient slices the padding away."""
    a = as_tensor(a)
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    shape = tuple(n + lo + hi for n, (lo, hi) in zip(a.data.shape, pad_width))
    interior = tuple(slice(lo, n - hi) for n, (lo, hi) in zip(shape, pad_width))
    return (a,), (interior, shape)


def _broadcast_forward(xs, shape, out, tmp):
    np.copyto(out, xs[0])
    return out


@_op(_broadcast_forward, (_GRAD,), flops=0.0, out_shape=lambda shape: shape)
def broadcast_to(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Broadcast to ``shape``; the gradient sums back (via unbroadcast)."""
    return (as_tensor(a),), tuple(shape)


# --------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------- #
def _reduction(a: ArrayLike, axis: Axis, keepdims: bool):
    a = as_tensor(a)
    return (a,), (axis, bool(keepdims), a.data.shape)


@_op(
    lambda xs, st, out, tmp: np.sum(xs[0], axis=st[0], keepdims=st[1], out=out),
    (Adjoint(view=_reduced_view),),
    flops=_input_flops,
)
def sum(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis``."""
    return _reduction(a, axis, keepdims)


@_op(
    lambda xs, st, out, tmp: np.mean(xs[0], axis=st[0], keepdims=st[1], out=out),
    (
        Adjoint(
            lambda g, y, xs, st, out, tmp: np.divide(
                g, xs[0].size / builtins.max(y.size, 1), out=out
            ),
            into=True,
            view=_reduced_view,
        ),
    ),
    flops=_input_flops,
)
def mean(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``."""
    return _reduction(a, axis, keepdims)


def var(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased variance over ``axis`` (composite, fully differentiable)."""
    a = as_tensor(a)
    centered = sub(a, mean(a, axis=axis, keepdims=True))
    return mean(mul(centered, centered), axis=axis, keepdims=keepdims)


def _max_adjoint(g, y, xs, st, out, tmp):
    x, axis = xs[0], st[0]
    mask = (x == x.max(axis=axis, keepdims=True)).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    return g * mask


@_op(
    lambda xs, st, out, tmp: np.max(xs[0], axis=st[0], keepdims=st[1], out=out),
    (Adjoint(_max_adjoint, view=_reduced_view),),
    flops=_input_flops,
)
def max(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; gradient splits evenly across ties."""
    return _reduction(a, axis, keepdims)


def min(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Minimum over ``axis``; gradient splits evenly across ties."""
    return neg(max(neg(a), axis=axis, keepdims=keepdims))


# --------------------------------------------------------------------- #
# softmax / normalization primitives
# --------------------------------------------------------------------- #
def _softmax_forward(xs, axis, out, tmp):
    x = xs[0]
    t = np.subtract(x, x.max(axis=axis, keepdims=True), out=tmp[0])
    np.exp(t, out=t)
    return np.divide(t, t.sum(axis=axis, keepdims=True), out=out)


def _softmax_adjoint(g, y, xs, axis, out, tmp):
    # dL/dx = s * (g - sum(g * s))
    out = np.multiply(g, y, out=out)
    inner = np.sum(out, axis=axis, keepdims=True, out=tmp[0])
    np.subtract(g, inner, out=out)
    return np.multiply(out, y, out=out)


def _kept(shape, axis):
    return tuple(1 if d == axis else n for d, n in enumerate(shape))


@_op(
    _softmax_forward,
    (Adjoint(_softmax_adjoint, into=True, tmp=((_kept, _F),)),),
    flops=8.0,
    tmp=(_F,),
)
def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward."""
    a = as_tensor(a)
    return (a,), int(axis) % builtins.max(a.data.ndim, 1)


def _log_softmax_forward(xs, axis, out, tmp):
    x, (t1, t2) = xs[0], tmp
    t1 = np.subtract(x, x.max(axis=axis, keepdims=True), out=t1)
    t2 = np.exp(t1, out=t2)
    return np.subtract(t1, np.log(t2.sum(axis=axis, keepdims=True)), out=out)


@_op(
    _log_softmax_forward,
    (Adjoint(lambda g, y, xs, axis, out, tmp: g - np.exp(y) * g.sum(axis=axis, keepdims=True)),),
    flops=8.0,
    tmp=(_F, _F),
)
def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = as_tensor(a)
    return (a,), int(axis) % builtins.max(a.data.ndim, 1)


@_op(_binary(np.multiply), (_times(1), _times(0)), fusable=True)
def dropout_mask(a: ArrayLike, mask: np.ndarray) -> Tensor:
    """Apply a fixed (already scaled) dropout mask; gradient uses same mask."""
    return (as_tensor(a), as_tensor(mask)), None
