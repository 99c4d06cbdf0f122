"""repro.compile — trace-once/replay-many compiled execution backend.

The interpreted autodiff in :mod:`repro.tensor` spends most of an ST-WA
step dispatching thousands of tiny Python ops and building a fresh graph
every batch.  This package removes that overhead for fixed-shape steps:

* :class:`CaptureRecorder` is the ``capture`` interceptor of the op
  dispatch point in :mod:`repro.tensor.ops`; it records one interpreted
  step's op stream (rule, operands, static arguments, output);
* :func:`lower_training_plan` / :func:`lower_predict_plan` lower the
  stream to a :class:`CompiledPlan` — a linear instruction program over
  preallocated buffers with fused elementwise chains and a precomputed
  tape-free adjoint program (no graph, no tape, no per-step allocation),
  built from the same op rules the tape interprets;
* :class:`PlanCache` keys plans by shape/dtype signature (LRU-bounded,
  dead signatures cached too);
* :class:`CompiledExecutor` packages it behind the
  :class:`repro.exec.Executor` contract — select it with
  ``ExecutorSpec(kind="compiled")`` in Trainer or ServingEngine.  Every
  plan is validated against the interpreted step it was traced from
  (loss, gradients, RNG lockstep) before it is ever replayed on new data,
  and unsupported or mismatching steps fall back to the interpreted
  executors transparently.
"""

from .capture import CaptureRecorder, TraceRecord
from .cache import PlanCache
from .executor import CompiledExecutor
from .plan import CompiledPlan, LoweringError, lower_predict_plan, lower_training_plan

__all__ = [
    "CaptureRecorder",
    "CompiledExecutor",
    "CompiledPlan",
    "LoweringError",
    "PlanCache",
    "TraceRecord",
    "lower_predict_plan",
    "lower_training_plan",
]
