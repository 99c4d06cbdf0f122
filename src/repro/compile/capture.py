"""Capture: record one interpreted step's op stream for compilation.

A :class:`CaptureRecorder` is installed as the ``capture`` interceptor
(``repro.tensor.set_hooks(capture=...)``) around exactly one forward(+loss)
pass.  Every primitive reports ``(rule, operands, static, out)`` in
execution order; the recorder keeps *strong references* to every operand
and output tensor so Python never recycles an ``id()`` mid-capture — identity is how
the lowering pass (:mod:`repro.compile.plan`) later tells parameters,
step inputs, per-step host arrays, and frozen constants apart.

Three registration channels feed the recorder:

* ``register_input(name, tensor)`` — the executor declares the step's
  ``x``/``y`` tensors so replay can rebind fresh batches by name;
* ``register_params(parameters)`` — model parameters are re-read through
  ``parameter.data`` on every replay (``load_state_dict`` rebinds ``.data``);
* ``record_host_input(value, regen)`` — called by
  :func:`repro.tensor.ops.notify_host_input` at every per-step RNG draw
  site (latent noise, dropout masks).  ``regen`` re-draws from the same
  generator, which is what keeps a compiled run bit-identical to the
  serial RNG stream.

``mark_unsupported(reason)`` (via
:func:`repro.tensor.ops.notify_compile_unsupported`) declares the step
unreplayable — Python-level state the op stream cannot see, such as
BatchNorm's running-statistics update or a per-batch NaN mask.  The
executor then pins the signature to the interpreted path permanently.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CaptureRecorder", "TraceRecord"]


class TraceRecord:
    """One primitive-op call: its rule, operand tensors, static arguments
    (already normalised by the rule's binder) and the output tensor."""

    __slots__ = ("rule", "ins", "static", "out")

    def __init__(self, rule, ins: tuple, static, out) -> None:
        self.rule = rule
        self.ins = ins
        self.static = static
        self.out = out

    @property
    def name(self) -> str:
        return self.rule.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecord({self.name}, out_shape={self.out.data.shape})"


class CaptureRecorder:
    """Accumulates the op stream of one step plus its input/param identity."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        #: (array, regen) in draw order — replay must consume regens in this
        #: exact order to keep every module generator in lockstep with the
        #: serial trajectory, even for draws whose ops get pruned
        self.host_inputs: List[Tuple[np.ndarray, Optional[Callable[[], np.ndarray]]]] = []
        self._host_ids: Dict[int, int] = {}
        self.inputs: Dict[str, object] = {}
        self.params: List[object] = []
        self.dead_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # executor-facing registration
    # ------------------------------------------------------------------ #
    def register_input(self, name: str, tensor) -> None:
        """Declare ``tensor`` as the per-step input bound to ``name``."""
        self.inputs[name] = tensor

    def register_params(self, parameters) -> None:
        """Declare the model parameters (replay re-reads ``.data`` each step)."""
        self.params = list(parameters)

    # ------------------------------------------------------------------ #
    # hook API (called from repro.tensor.ops)
    # ------------------------------------------------------------------ #
    def record_op(self, rule, ins: tuple, static, out) -> None:
        self.records.append(TraceRecord(rule, ins, static, out))

    def record_host_input(self, value: np.ndarray, regen) -> None:
        key = id(value)
        if key not in self._host_ids:
            self._host_ids[key] = len(self.host_inputs)
            self.host_inputs.append((value, regen))

    def mark_unsupported(self, reason: str) -> None:
        if self.dead_reason is None:
            self.dead_reason = reason

    # ------------------------------------------------------------------ #
    @property
    def dead(self) -> bool:
        return self.dead_reason is not None

    def host_index(self, array: np.ndarray) -> Optional[int]:
        """Index of ``array`` among the registered host inputs (by identity)."""
        return self._host_ids.get(id(array))

    def __len__(self) -> int:
        return len(self.records)
