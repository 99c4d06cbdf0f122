"""Lowering: turn a captured op stream into a replayable linear program.

``lower_training_plan`` / ``lower_predict_plan`` walk a
:class:`repro.compile.capture.CaptureRecorder` exactly once and emit a
:class:`CompiledPlan`:

* a **node table** classifying every array in the trace as per-step input
  (``x``/``y``, copied by name into a fixed buffer each replay), parameter
  (bound to ``parameter.data`` and bound again only when an identity check
  finds it rebound, e.g. by ``load_state_dict``), host input (per-step RNG
  draw, regenerated each replay to keep the serial RNG stream), or frozen
  constant (everything else — precomputed supports, scalars);
* a **forward program** of build-time-specialized closures writing into
  preallocated buffers (consecutive single-consumer elementwise ops are
  fused into one chain instruction).  A view-returning op (transpose,
  reshape, basic indexing) whose operand sits at a fixed address is taken
  once at build time and costs nothing per replay;
* an **adjoint program** emitted by walking the recorded graph once in
  reverse — assign-vs-accumulate is decided per gradient buffer at build
  time, so replay does no tape, no graph, and no autograd bookkeeping.  A
  gradient whose only contribution is a view of an upstream gradient *is*
  that view (no copy), a gradient made of index scatters that write each
  element exactly once is written, not zero-filled and accumulated, and a
  parameter held by an optimizer takes its gradient straight into the
  optimizer's arena segment (:func:`repro.optim.grad_segment`).

Both programs interpret the rule table of :mod:`repro.tensor.ops` — the
same forwards and adjoints the tape runs.  Everything the tape decides per
call is decided here once per instruction: operand arity, scratch and
output buffers, the fixed views of gradient buffers, whether a computed
contribution can be written straight into its gradient buffer (its
natural shape matches), and whether it is the first contribution
(assign) or a later one (accumulate, through one shared staging buffer
per shape when the adjoint has no single-pass form).

``plan.stats["numpy_calls"]`` counts the NumPy calls one replay makes: one
per rule-formula call (forward, adjoint, fold or scatter, however many
NumPy calls the formula makes inside), per NumPy function or array method
an instruction calls itself, per input copy and per host-input draw.

Anything the op stream cannot faithfully replay raises
:class:`LoweringError` — ``where`` (its condition is Python-level data
that would freeze one batch's mask into the plan), host inputs without a
regeneration closure, or a training trace that never touches a parameter.
The executor treats a :class:`LoweringError` as "this signature is
interpreted-only" and falls back.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, is_not, itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..optim import grad_segment
from ..tensor.ops import scratch_shapes
from ..tensor.tensor import Tensor, unbroadcast
from .capture import CaptureRecorder

__all__ = ["CompiledPlan", "LoweringError", "lower_predict_plan", "lower_training_plan"]


class LoweringError(RuntimeError):
    """The captured step cannot be lowered to a replayable plan."""


class _LoweredOp:
    """One primitive: its rule, node-id operands and static arguments."""

    __slots__ = ("rule", "ins", "out", "st")

    def __init__(self, rule, ins: Tuple[int, ...], out: int, st) -> None:
        self.rule = rule
        self.ins = ins
        self.out = out
        self.st = st


class _Node:
    __slots__ = ("kind", "shape", "dtype", "requires")

    def __init__(self, kind: str, shape: Tuple[int, ...], dtype, requires: bool) -> None:
        self.kind = kind
        self.shape = shape
        self.dtype = dtype
        self.requires = requires


_DATA = attrgetter("data")


class CompiledPlan:
    """A trace-once/replay-many program for one fixed-shape step."""

    def __init__(
        self,
        slots: list,
        input_binds: List[Tuple[np.ndarray, str]],
        param_binds: List[Tuple[int, object]],
        views: List[Callable[[], bool]],
        host_binds: List[Tuple[Callable[[], np.ndarray], Optional[int]]],
        forward: List[Callable[[], None]],
        adjoint: List[Callable[[], None]],
        output: int,
        param_grads: List[Tuple[object, np.ndarray]],
        stats: dict,
    ) -> None:
        self._slots = slots
        self._input_binds = input_binds
        self._param_nids = [nid for nid, _ in param_binds]
        self._params = [param for _, param in param_binds]
        self._bound = [slots[nid] for nid in self._param_nids]
        self._views = views
        self._host_binds = host_binds
        self._forward = forward
        self._adjoint = adjoint
        self._output = output
        self._param_grads = param_grads
        self.stats = stats

    def run_forward(self, bindings: Dict[str, np.ndarray]) -> np.ndarray:
        """Replay the forward program against fresh per-step ``bindings``."""
        for buf, name in self._input_binds:
            np.copyto(buf, bindings[name])
        if any(map(is_not, map(_DATA, self._params), self._bound)):
            self._bind_params()
        slots = self._slots
        for regen, nid in self._host_binds:
            # every regen runs, even for draws whose ops were pruned, so the
            # module generators stay in lockstep with the serial trajectory
            value = regen()
            if nid is not None:
                slots[nid] = value
        for instruction in self._forward:
            instruction()
        return slots[self._output]

    def _bind_params(self) -> None:
        """Bind rebound ``parameter.data`` arrays and take the fixed views again.

        A view of a parameter comes back a copy when the new array has other
        strides (e.g. Fortran order); replay would then read a snapshot, so
        that raises until a C-contiguous array is bound.
        """
        slots = self._slots
        bound = [param.data for param in self._params]
        for nid, data in zip(self._param_nids, bound):
            slots[nid] = data
        if not all([retake() for retake in self._views]):
            raise ValueError(
                "a parameter was rebound to an array the plan cannot view "
                "(bind C-contiguous arrays to parameter.data)"
            )
        self._bound = bound

    def run_adjoint(self) -> None:
        """Replay the precomputed adjoint program (no tape, no graph)."""
        for instruction in self._adjoint:
            instruction()

    def export_grads(self) -> None:
        """Hand the plan's gradient buffers (arena segments where given) to their parameters."""
        for param, buf in self._param_grads:
            param.grad = buf


def _owner(array) -> object:
    """The object owning ``array``'s memory (NumPy collapses view chains)."""
    return array if array.base is None else array.base


def _is_view(value, operands) -> bool:
    """Whether ``value`` is an array viewing one of the ``operands``' memory."""
    if not isinstance(value, np.ndarray):
        return False  # a NumPy scalar from full integer indexing is a copy
    owner = _owner(value)
    return value.base is not None and any(owner is _owner(x) for x in operands)


def _counted(fn: Callable[[], None], calls: int) -> Callable[[], None]:
    """Tag an instruction with the NumPy calls one run of it makes."""
    fn.numpy_calls = calls
    return fn


class _PlanBuilder:
    """Node table + buffer arena + assign/accumulate bookkeeping."""

    def __init__(self, recorder: CaptureRecorder, need_grads: bool) -> None:
        self._recorder = recorder
        self._need_grads = need_grads
        self.nodes: List[_Node] = []
        self.slots: list = []
        self.grads: list = []
        self._by_tensor: Dict[int, int] = {}
        self._by_const: Dict[int, int] = {}
        self._const_keep: list = []  # pin key arrays so ids are never recycled
        self._by_host: Dict[int, int] = {}
        self._params: Dict[int, object] = {}
        self._grad_seen: set = set()
        self._accum_scratch: Dict[Tuple[int, ...], np.ndarray] = {}
        #: nodes whose slot array keeps its address across replays
        self.fixed: set = set()
        #: gradient contributions each node will receive, the kept op
        #: producing each node, and the nodes whose every contribution is
        #: an index assignment (all set by ``plan_contributions``)
        self.contributions: Counter = Counter()
        self.producers: Dict[int, _LoweredOp] = {}
        self.assigned: set = set()
        self.views: List[Callable[[], bool]] = []
        self.aliased = 0
        self.buffer_bytes = 0
        self.input_binds: List[Tuple[np.ndarray, str]] = []
        self.param_binds: List[Tuple[int, object]] = []

    # ------------------------------------------------------------------ #
    # node construction
    # ------------------------------------------------------------------ #
    def _new_node(self, kind: str, shape, dtype, requires: bool) -> int:
        nid = len(self.nodes)
        self.nodes.append(_Node(kind, tuple(shape), dtype, requires))
        self.slots.append(None)
        self.grads.append(None)
        return nid

    def add_param(self, param) -> int:
        nid = self._new_node(
            "param", param.data.shape, param.data.dtype,
            self._need_grads and bool(param.requires_grad),
        )
        self._by_tensor[id(param)] = nid
        self._params[nid] = param
        self.slots[nid] = param.data
        self.fixed.add(nid)
        self.param_binds.append((nid, param))
        return nid

    def add_input(self, name: str, tensor) -> int:
        nid = self._new_node("input", tensor.data.shape, tensor.data.dtype, False)
        self._by_tensor[id(tensor)] = nid
        self.input_binds.append((self.out_buffer(nid), name))
        return nid

    def _host_node(self, host_index: int, array: np.ndarray) -> int:
        nid = self._by_host.get(host_index)
        if nid is None:
            nid = self._new_node("host", array.shape, array.dtype, False)
            self._by_host[host_index] = nid
        return nid

    def _const_node(self, array: np.ndarray) -> int:
        key = id(array)
        nid = self._by_const.get(key)
        if nid is None:
            nid = self._new_node("const", array.shape, array.dtype, False)
            # frozen copy: the host may reuse or mutate the original buffer
            # (np.array, not ascontiguousarray — the latter promotes 0-d to 1-d)
            self.slots[nid] = np.array(array)
            self.fixed.add(nid)
            self.buffer_bytes += self.slots[nid].nbytes
            self._by_const[key] = nid
            self._const_keep.append(array)
        return nid

    def tid(self, tensor: Tensor) -> int:
        """Node id for one operand tensor."""
        nid = self._by_tensor.get(id(tensor))
        if nid is None:
            host = self._recorder.host_index(tensor.data)
            if host is not None:
                nid = self._host_node(host, tensor.data)
            else:
                nid = self._const_node(tensor.data)
            self._by_tensor[id(tensor)] = nid
        return nid

    def add_op_out(self, out_tensor, ins: Tuple[int, ...]) -> int:
        requires = self._need_grads and any(self.nodes[i].requires for i in ins)
        nid = self._new_node("op", out_tensor.data.shape, out_tensor.data.dtype, requires)
        self._by_tensor[id(out_tensor)] = nid
        return nid

    # ------------------------------------------------------------------ #
    # instruction-builder (ctx) API
    # ------------------------------------------------------------------ #
    def shape(self, nid: int) -> Tuple[int, ...]:
        return self.nodes[nid].shape

    def requires(self, nid: int) -> bool:
        return self.nodes[nid].requires

    def out_buffer(self, nid: int) -> np.ndarray:
        node = self.nodes[nid]
        buf = np.empty(node.shape, dtype=node.dtype)
        self.slots[nid] = buf
        self.fixed.add(nid)
        self.buffer_bytes += buf.nbytes
        return buf

    def scratches(self, tmp: tuple, shape, st) -> tuple:
        """The scratch buffers a rule's ``tmp`` declaration asks for."""
        bufs = tuple(np.empty(s, dtype=d) for s, d in scratch_shapes(tmp, shape, st))
        self.buffer_bytes += sum(buf.nbytes for buf in bufs)
        return bufs

    def accum_scratch(self, shape) -> np.ndarray:
        """Shared staging buffer for accumulate-mode contributions.

        Adjoint instructions run strictly sequentially and each one consumes
        its staging buffer before the next starts, so one scratch per shape
        serves every accumulate site of that shape.
        """
        buf = self._accum_scratch.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._accum_scratch[shape] = buf
            self.buffer_bytes += buf.nbytes
        return buf

    def grad_buffer(self, nid: int) -> np.ndarray:
        """The gradient buffer of ``nid`` (a parameter's arena segment if it has one)."""
        buf = self.grads[nid]
        if buf is None:
            shape = self.nodes[nid].shape
            param = self._params.get(nid)
            if param is not None:
                buf = grad_segment(param)
            if buf is None:
                buf = np.empty(shape, dtype=np.float64)
                self.buffer_bytes += buf.nbytes
            self.grads[nid] = buf
        return buf

    def plan_contributions(self, kept: List[_LoweredOp]) -> None:
        """Count every node's gradient contributions before the adjoint walk.

        A node whose contributions are all index scatters with an
        ``assign`` form, between them hitting every element exactly once,
        is *assigned*: each scatter writes its elements, with no zero-fill.
        """
        hits: Dict[int, np.ndarray] = {}
        for op in kept:
            self.producers[op.out] = op
            if not self.requires(op.out):
                continue
            for i, nid in enumerate(op.ins):
                if not self.requires(nid):
                    continue
                first = nid not in self.contributions
                self.contributions[nid] += 1
                if op.rule.adjoint(op.st, i).assign is None:
                    hits.pop(nid, None)
                elif first:
                    hits[nid] = np.zeros(self.nodes[nid].shape, dtype=np.int64)
                if nid in hits:
                    hits[nid][op.st] += 1
        self.assigned = {nid for nid, count in hits.items() if (count == 1).all()}

    def mark_contribution(self, nid: int) -> bool:
        """True for the first gradient contribution to ``nid`` (assign mode)."""
        first = nid not in self._grad_seen
        self._grad_seen.add(nid)
        return first

    def alias_grad(self, nid: int, view: np.ndarray) -> bool:
        """Make ``view`` the gradient of ``nid`` when it is the only contribution.

        Only op outputs qualify (a parameter's gradient is its own buffer),
        and only when every adjoint view ``nid``'s producer will take of
        it is still a view (a reshape of a strided view may copy).
        """
        if (
            self.nodes[nid].kind != "op"
            or self.contributions[nid] != 1
            or self.grads[nid] is not None
            or view.shape != self.nodes[nid].shape
        ):
            return False
        producer = self.producers[nid]
        for i, operand in enumerate(producer.ins):
            adj = producer.rule.adjoint(producer.st, i)
            if self.requires(operand) and adj.view is not None:
                if not _is_view(adj.view(view, producer.st, i), (view,)):
                    return False
        self.mark_contribution(nid)
        self.grads[nid] = view
        self.aliased += 1
        return True

    def make_sink(self, nid: int, first: bool) -> Callable[[np.ndarray], None]:
        buf = self.grad_buffer(nid)
        shape = self.nodes[nid].shape

        if first:
            def sink(value: np.ndarray) -> None:
                np.copyto(buf, unbroadcast(value, shape))
        else:
            def sink(value: np.ndarray) -> None:
                unbroadcast(value, shape, out=buf)

        return sink


# --------------------------------------------------------------------- #
# instruction builders: the plan-side interpreter of repro.tensor.ops.RULES
# --------------------------------------------------------------------- #
def _operands(ins: Tuple[int, ...]) -> Callable[[list], object]:
    """``get(slots)`` -> an instruction's operand arrays, as one C-level call.

    A single operand comes back as a one-element list slice; rule formulas
    only index it, so that serves as well as a tuple.
    """
    if len(ins) == 1:
        return itemgetter(slice(ins[0], ins[0] + 1))
    return itemgetter(*ins)


def _forward_instruction(ctx: "_PlanBuilder", op: _LoweredOp) -> Optional[Callable[[], None]]:
    """The op's per-replay instruction; None when it is bound once at build time."""
    rule, st, s, o = op.rule, op.st, ctx.slots, op.out
    forward, get = rule.forward, _operands(op.ins)
    if rule.rebinds:

        def rebind() -> None:
            s[o] = forward(get(s), st, None, ())

        def retake() -> bool:
            rebind()
            return _is_view(s[o], [s[i] for i in op.ins])

        if all(i in ctx.fixed for i in op.ins) and retake():
            ctx.fixed.add(o)
            ctx.views.append(retake)
            return None
        return _counted(rebind, 1)
    buf = ctx.out_buffer(o)
    if rule.out_shape is not None:
        buf.fill(0.0)  # pad rewrites only its interior; the border stays zero
    ufunc = getattr(forward, "ufunc", None)
    if ufunc is not None:  # the forward is one ufunc call: replay calls it directly
        if len(op.ins) == 1:
            (a,) = op.ins
            return _counted(lambda: ufunc(s[a], out=buf), 1)
        a, b = op.ins
        return _counted(lambda: ufunc(s[a], s[b], out=buf), 1)
    tmp = ctx.scratches(rule.tmp, ctx.shape(o), st)
    return _counted(lambda: forward(get(s), st, buf, tmp), 1)


def _emit(ctx, nid, natural_shape, direct, generic, accum=None, generic_calls=1):
    """One contribution to ``grads[nid]``.

    ``direct(buf)`` returns an instruction computing the contribution
    straight into ``buf``: the gradient buffer on the first contribution, a
    shared staging scratch on later ones (followed by one ``add`` into the
    gradient).  ``accum(buf)`` returns one folding it into ``buf`` in a
    single pass.  ``generic()`` returns the raw contribution for the sink
    path (copy or accumulate, reducing broadcast axes with
    ``unbroadcast``) — the only path allowed when the contribution's
    natural shape differs from the target's; it makes ``generic_calls``
    NumPy calls.
    """
    first = ctx.mark_contribution(nid)
    if natural_shape == ctx.shape(nid):
        if first and direct is not None:
            return direct(ctx.grad_buffer(nid))
        if not first and accum is not None:
            return accum(ctx.grad_buffer(nid))
        if not first and direct is not None:
            buf = ctx.grad_buffer(nid)
            staging = ctx.accum_scratch(natural_shape)
            write = direct(staging)

            def run():
                write()
                np.add(buf, staging, out=buf)

            return _counted(run, write.numpy_calls + 1)
    sink = ctx.make_sink(nid, first)
    return _counted(lambda: sink(generic()), generic_calls + 1)


def _view_emit(ctx, nid, view):
    """Contribution that is a fixed view of the output gradient buffer.

    The gradient buffer is allocated once at build time, so the view is
    taken once and replayed forever.  As the only contribution it becomes
    the gradient itself (no instruction); otherwise it is copied or
    accumulated in a single pass with no per-step allocation.
    """
    if ctx.alias_grad(nid, view):
        return None
    return _emit(
        ctx, nid, view.shape,
        lambda buf: _counted(lambda: np.copyto(buf, view), 1),
        lambda: view,
        accum=lambda buf: _counted(lambda: np.add(buf, view, out=buf), 1),
        generic_calls=0,
    )


def _scatter_emit(ctx, nid, adj, g, st):
    """Index-style contribution added into the operand's whole gradient.

    Into an *assigned* gradient (see ``plan_contributions``) it is a plain
    write of its elements.
    """
    scatter, assign = adj.scatter, adj.assign
    first = ctx.mark_contribution(nid)
    buf = ctx.grad_buffer(nid)
    if nid in ctx.assigned:
        return _counted(lambda: assign(buf, g, st), 1)
    if not first:
        return _counted(lambda: scatter(buf, g, st), 1)

    def run():
        buf.fill(0.0)
        scatter(buf, g, st)

    return _counted(run, 2)


def _computed_emit(ctx, op, nid, adj, g, get):
    """Contribution computed by ``adj.fn`` from the (viewed) gradient ``g``."""
    fn, st, s, o = adj.fn, op.st, ctx.slots, op.out
    tmp = ctx.scratches(adj.tmp, ctx.shape(o), st)
    natural = direct = accum = None
    if adj.into:
        natural = _natural_shape(ctx, op, adj, g, tmp)

        def direct(buf):
            return _counted(lambda: fn(g, s[o], get(s), st, buf, tmp), 1)

    if adj.accum is not None:
        fold = adj.accum

        def accum(buf):
            return _counted(lambda: fold(buf, g), 1)

    return _emit(ctx, nid, natural, direct, lambda: fn(g, s[o], get(s), st, None, tmp), accum)


def _natural_shape(ctx, op, adj, g, tmp) -> Tuple[int, ...]:
    """Shape of a computed contribution, found once by running it on ones."""
    with np.errstate(all="ignore"):
        probe = adj.fn(
            np.ones(g.shape),
            np.ones(ctx.shape(op.out)),
            tuple(np.ones(ctx.shape(nid)) for nid in op.ins),
            op.st,
            None,
            tmp,
        )
    return np.shape(probe)


def _adjoint_instructions(ctx: "_PlanBuilder", op: _LoweredOp) -> List[Callable[[], None]]:
    rule, st = op.rule, op.st
    go = ctx.grad_buffer(op.out)
    get = _operands(op.ins)
    fns = []
    for i, nid in enumerate(op.ins):
        if not ctx.requires(nid):
            continue
        adj = rule.adjoint(st, i)
        g = go if adj.view is None else adj.view(go, st, i)
        if g is not go and not _is_view(g, (go,)):
            # replay would read a copy frozen at build time
            raise LoweringError(f"adjoint view of {rule.name!r} copied its gradient buffer")
        if adj.scatter is not None:
            fns.append(_scatter_emit(ctx, nid, adj, g, st))
        elif adj.fn is None:
            fns.append(_view_emit(ctx, nid, g))
        else:
            fns.append(_computed_emit(ctx, op, nid, adj, g, get))
    return [fn for fn in fns if fn is not None]


def _group(fns: List[Callable[[], None]]) -> Callable[[], None]:
    if len(fns) == 1:
        return fns[0]
    chain = tuple(fns)

    def fused() -> None:
        for fn in chain:
            fn()

    return _counted(fused, sum(fn.numpy_calls for fn in chain))


def _assign_chains(kept: List[_LoweredOp], consumers: Dict[int, int]) -> List[Optional[int]]:
    """Chain id per op: maximal runs of single-consumer fusable elementwise ops."""
    chain_id: List[Optional[int]] = [None] * len(kept)
    next_id = 0
    i = 0
    while i < len(kept):
        if kept[i].rule.fusable:
            j = i
            while (
                j + 1 < len(kept)
                and kept[j + 1].rule.fusable
                and consumers.get(kept[j].out, 0) == 1
                and kept[j].out in kept[j + 1].ins
            ):
                j += 1
            if j > i:
                for k in range(i, j + 1):
                    chain_id[k] = next_id
                next_id += 1
            i = j + 1
        else:
            i += 1
    return chain_id


def _lower(recorder: CaptureRecorder, output_tensor, need_grads: bool) -> CompiledPlan:
    builder = _PlanBuilder(recorder, need_grads)
    for param in recorder.params:
        builder.add_param(param)
    for input_name, tensor in recorder.inputs.items():
        builder.add_input(input_name, tensor)
    if need_grads and not any(builder.nodes[nid].requires for nid, _ in builder.param_binds):
        raise LoweringError("training trace has no parameter requiring grad")

    ops = []
    for rec in recorder.records:
        if not rec.rule.lowerable:
            raise LoweringError(
                f"op {rec.rule.name!r} has a Python-level condition the plan cannot replay"
            )
        ins = tuple(builder.tid(t) for t in rec.ins)
        ops.append(_LoweredOp(rec.rule, ins, builder.add_op_out(rec.out, ins), rec.static))
    output = builder._by_tensor.get(id(output_tensor))
    if output is None:
        raise LoweringError("step output was not produced by a traced op")

    # prune to the ancestors of the output (capture order is a topo order)
    needed = {output}
    keep = [False] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        if ops[i].out in needed:
            keep[i] = True
            needed.update(ops[i].ins)
    kept = [op for op, keeping in zip(ops, keep) if keeping]

    consumers: Dict[int, int] = {}
    for op in kept:
        for nid in op.ins:
            consumers[nid] = consumers.get(nid, 0) + 1
    consumers[output] = consumers.get(output, 0) + 1
    chain_id = _assign_chains(kept, consumers)

    # forward program: build every instruction, then group fused chains
    forward: List[Callable[[], None]] = []
    pending: List[Callable[[], None]] = []
    pending_chain: Optional[int] = None
    for op, cid in zip(kept, chain_id):
        fn = _forward_instruction(builder, op)
        if fn is None:  # a view taken once at build time
            continue
        if cid is not None and cid == pending_chain:
            pending.append(fn)
            continue
        if pending:
            forward.append(_group(pending))
        pending, pending_chain = [fn], cid
    if pending:
        forward.append(_group(pending))

    # adjoint program: reverse walk, grouped by the same chains
    adjoint: List[Callable[[], None]] = []
    param_grads: List[Tuple[object, np.ndarray]] = []
    if need_grads:
        builder.plan_contributions(kept)
        seed = builder.grad_buffer(output)
        seed.fill(1.0)
        builder.mark_contribution(output)
        pending, pending_chain = [], None
        for op, cid in zip(reversed(kept), reversed(chain_id)):
            if not builder.requires(op.out):
                continue
            fns = _adjoint_instructions(builder, op)
            if not fns:
                continue
            if cid is not None and cid == pending_chain:
                pending.extend(fns)
                continue
            if pending:
                adjoint.append(_group(pending))
            pending, pending_chain = list(fns), cid
        if pending:
            adjoint.append(_group(pending))
        for nid, param in builder.param_binds:
            if builder.nodes[nid].requires and builder.grads[nid] is not None:
                param_grads.append((param, builder.grads[nid]))

    host_binds: List[Tuple[Callable[[], np.ndarray], Optional[int]]] = []
    for host_index, (_, regen) in enumerate(recorder.host_inputs):
        if regen is None:
            raise LoweringError("host input registered without a regeneration closure")
        host_binds.append((regen, builder._by_host.get(host_index)))

    fused_chains = len({cid for cid in chain_id if cid is not None})
    fused_ops = sum(1 for cid in chain_id if cid is not None)
    longest = max(Counter(cid for cid in chain_id if cid is not None).values()) if fused_chains else 0
    stats = {
        "ops_captured": len(recorder.records),
        "ops_kept": len(kept),
        "forward_instructions": len(forward),
        "adjoint_instructions": len(adjoint),
        "fused_chains": fused_chains,
        "fused_ops": fused_ops,
        "longest_chain": longest,
        "fixed_views": len(builder.views),
        "aliased_grads": builder.aliased,
        "numpy_calls": len(builder.input_binds) + len(host_binds)
        + sum(fn.numpy_calls for fn in forward + adjoint),
        "inputs": len(builder.input_binds),
        "params": len(builder.param_binds),
        "consts": len(builder._by_const),
        "host_inputs": len(host_binds),
        "buffer_bytes": builder.buffer_bytes,
    }
    return CompiledPlan(
        builder.slots,
        builder.input_binds,
        builder.param_binds,
        builder.views,
        host_binds,
        forward,
        adjoint,
        output,
        param_grads,
        stats,
    )


def lower_training_plan(recorder: CaptureRecorder, loss_tensor) -> CompiledPlan:
    """Lower one captured train step (forward + loss) to a plan with adjoints.

    A parameter held by a live optimizer gets its gradient written into
    that optimizer's arena segment; any other gets a plan-owned buffer.
    """
    if recorder.dead:
        raise LoweringError(recorder.dead_reason or "capture marked unsupported")
    return _lower(recorder, loss_tensor, need_grads=True)


def lower_predict_plan(recorder: CaptureRecorder, output_tensor) -> CompiledPlan:
    """Lower one captured forward pass to a replay-only plan (no adjoints)."""
    if recorder.dead:
        raise LoweringError(recorder.dead_reason or "capture marked unsupported")
    return _lower(recorder, output_tensor, need_grads=False)
