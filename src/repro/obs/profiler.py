"""Op-level profiler for the autodiff substrate.

Usage::

    from repro import obs

    with obs.profile(model=model) as prof:
        loss = model(x).sum()
        loss.backward()
    print(prof.to_table(top_k=10))
    prof.summary()  # JSON-ready dict

While the context is active every primitive in :mod:`repro.tensor.ops`
reports, for forward *and* backward separately: call count, wall seconds,
an analytic FLOP estimate, and output-array bytes.  When a model is passed,
forward hooks attribute wall time to named submodules as *spans* (e.g.
``st_wa.window_attention.0``) — see :mod:`repro.obs.spans`.

When no profiler is active the instrumentation cost is a single global
``None`` check per op call; nothing is recorded and no closure is wrapped.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class OpStat:
    """Aggregate statistics for one (op, phase) pair."""

    name: str
    phase: str  # "forward" | "backward"
    calls: int = 0
    seconds: float = 0.0
    flops: float = 0.0
    bytes: int = 0  # cumulative output-array bytes
    peak_bytes: int = 0  # largest single output array

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.phase)


@dataclass
class SpanStat:
    """Aggregate wall time attributed to one named module."""

    name: str
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Profiler:
    """Mutable container the trace hooks record into.

    Not thread-safe; one profiler is active at a time (nested
    :func:`profile` contexts each record into their own profiler, the
    innermost one winning while it is active).
    """

    ops: Dict[Tuple[str, str], OpStat] = field(default_factory=dict)
    spans: Dict[str, SpanStat] = field(default_factory=dict)
    parallel: Dict[str, SpanStat] = field(default_factory=dict)  # per-worker timing
    started_at: float = field(default_factory=time.perf_counter)
    wall_seconds: float = 0.0
    grad_allocs: int = 0  # gradient buffers the engine allocated (copy/zero-fill)
    grad_alloc_bytes: int = 0

    # ------------------------------------------------------------------ #
    # recording (hot path — called once per traced op)
    # ------------------------------------------------------------------ #
    def record_grad_alloc(self, nbytes: int) -> None:
        """Count one engine-side gradient-buffer allocation.

        Installed as the ``grad_alloc`` interceptor (:func:`repro.tensor.set_hooks`)
        while the profiler is active; in-place accumulation exists precisely to keep
        this number low, so the bench harness tracks it per run.
        """
        self.grad_allocs += 1
        self.grad_alloc_bytes += nbytes

    def record_op(self, name: str, phase: str, seconds: float, flops: float, nbytes: int) -> None:
        stat = self.ops.get((name, phase))
        if stat is None:
            stat = self.ops[(name, phase)] = OpStat(name, phase)
        stat.calls += 1
        stat.seconds += seconds
        stat.flops += flops
        stat.bytes += nbytes
        if nbytes > stat.peak_bytes:
            stat.peak_bytes = nbytes

    def record_span(self, name: str, seconds: float) -> None:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = SpanStat(name)
        span.calls += 1
        span.seconds += seconds

    def record_parallel(self, name: str, seconds: float) -> None:
        """Attribute wall time to one actor of a sensor-sharded step.

        ``name`` is a stable actor label (``worker0`` … ``worker{K-1}`` per
        shard, ``worker0`` being the caller's own shard, plus ``serialize``,
        ``augment`` and ``reduce`` — see
        :meth:`repro.exec.ShardedExecutor.train_step`).  Worker seconds are
        measured where each shard runs, so they sum to more than the
        caller's wall time whenever the pool actually overlaps — that
        surplus is the parallelism.
        """
        span = self.parallel.get(name)
        if span is None:
            span = self.parallel[name] = SpanStat(name)
        span.calls += 1
        span.seconds += seconds

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    @property
    def total_op_seconds(self) -> float:
        """Seconds spent inside traced ops (forward + backward)."""
        return sum(stat.seconds for stat in self.ops.values())

    @property
    def total_flops(self) -> float:
        return sum(stat.flops for stat in self.ops.values())

    @property
    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.ops.values())

    @property
    def peak_bytes(self) -> int:
        """Largest single array any traced op produced."""
        return max((stat.peak_bytes for stat in self.ops.values()), default=0)

    def top_ops(self, k: int = 10) -> List[OpStat]:
        """The ``k`` most expensive (op, phase) rows by wall seconds."""
        return sorted(self.ops.values(), key=lambda s: s.seconds, reverse=True)[:k]

    def top_spans(self, k: int = 10) -> List[SpanStat]:
        """The ``k`` most expensive module spans by wall seconds."""
        return sorted(self.spans.values(), key=lambda s: s.seconds, reverse=True)[:k]

    def summary(self) -> Dict[str, object]:
        """JSON-serializable snapshot of everything recorded."""
        return {
            "wall_seconds": self.wall_seconds,
            "total_op_seconds": self.total_op_seconds,
            "total_flops": self.total_flops,
            "total_op_calls": self.total_calls,
            "peak_bytes": self.peak_bytes,
            "grad_allocs": self.grad_allocs,
            "grad_alloc_bytes": self.grad_alloc_bytes,
            "ops": [asdict(stat) for stat in sorted(self.ops.values(), key=lambda s: s.seconds, reverse=True)],
            "spans": [asdict(span) for span in sorted(self.spans.values(), key=lambda s: s.seconds, reverse=True)],
            "parallel": [
                asdict(span) for span in sorted(self.parallel.values(), key=lambda s: s.name)
            ],
        }

    def to_table(self, top_k: int = 10) -> str:
        """Render the top-K ops and spans as an aligned monospace table."""
        lines = [
            f"profiled {self.total_calls} op calls, "
            f"{self.total_op_seconds:.4f}s in ops, "
            f"{self.total_flops / 1e6:.1f} MFLOP est., "
            f"peak array {self.peak_bytes / 1e6:.2f} MB, "
            f"{self.grad_allocs} grad allocs ({self.grad_alloc_bytes / 1e6:.2f} MB)"
        ]
        header = f"{'op':<24}{'phase':<10}{'calls':>8}{'seconds':>10}{'MFLOP':>10}{'MB out':>10}"
        lines += [header, "-" * len(header)]
        for stat in self.top_ops(top_k):
            lines.append(
                f"{stat.name:<24}{stat.phase:<10}{stat.calls:>8}"
                f"{stat.seconds:>10.4f}{stat.flops / 1e6:>10.1f}{stat.bytes / 1e6:>10.2f}"
            )
        if self.spans:
            lines.append("")
            span_header = f"{'module':<44}{'calls':>8}{'seconds':>10}"
            lines += [span_header, "-" * len(span_header)]
            for span in self.top_spans(top_k):
                lines.append(f"{span.name:<44}{span.calls:>8}{span.seconds:>10.4f}")
        if self.parallel:
            lines.append("")
            parallel_header = f"{'parallel':<44}{'calls':>8}{'seconds':>10}"
            lines += [parallel_header, "-" * len(parallel_header)]
            for span in sorted(self.parallel.values(), key=lambda s: s.name):
                lines.append(f"{span.name:<44}{span.calls:>8}{span.seconds:>10.4f}")
        return "\n".join(lines)


_active: Optional[Profiler] = None


def current_profiler() -> Optional[Profiler]:
    """The profiler of the innermost active :func:`profile` context, if any."""
    return _active


def is_profiling() -> bool:
    """True while a :func:`profile` context is active."""
    return _active is not None


@contextmanager
def profile(model=None) -> Iterator[Profiler]:
    """Record op stats (and module spans when ``model`` is given).

    Parameters
    ----------
    model:
        Optional :class:`repro.nn.Module`; when given, forward hooks are
        attached to every submodule for the duration of the context so wall
        time is attributable to qualified module names.
    """
    from ..tensor import set_hooks
    from .spans import module_spans

    global _active
    prof = Profiler()
    previous = _active
    _active = prof
    restore = set_hooks(trace=prof.record_op, grad_alloc=prof.record_grad_alloc)
    start = time.perf_counter()
    try:
        if model is not None:
            with module_spans(model, prof):
                yield prof
        else:
            yield prof
    finally:
        prof.wall_seconds = time.perf_counter() - start
        set_hooks(**restore)
        _active = previous
