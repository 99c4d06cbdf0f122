"""CompiledExecutor: trace one interpreted step, replay it from a plan.

The first time a ``(kind, mode, shapes, dtypes)`` signature is seen, the
executor runs the ordinary interpreted step with a
:class:`repro.compile.capture.CaptureRecorder` installed, lowers the
recorded op stream to a :class:`repro.compile.plan.CompiledPlan`, then
**validates** the plan in place: module RNG generators are rewound and the
plan replayed against the very same batch, and the plan is accepted only
if it reproduces the interpreted loss and every parameter gradient to
``validate_rtol`` *and* leaves every generator in the exact state the
interpreted step did.  A plan that fails validation — or a trace that hits
``where``/BatchNorm-style unsupported state — pins the signature dead and
the executor transparently serves it through the interpreted
:class:`repro.exec.SerialExecutor` step or the eval-mode forward
(:func:`repro.exec.eval_forward`) forever.  Either way the caller sees the
ordinary Executor contract.

The interpreted path is also forced (per call, without touching the plan
cache) whenever observation machinery is active — ``detect_anomaly``, an
installed op-trace profiler hook, an enclosing anomaly context — because a
replayed plan executes no traced ops and would blind those tools, and
while any forward or pre-hook is registered on the model (reason
``module_hooks``), because a replayed plan calls no module and would skip
them.  Removing the hooks resumes replay.

A training plan writes each parameter's gradient straight into the arena
segment of the optimizer holding it (:func:`repro.optim.grad_segment`), so
the optimizer step reads it without a copy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.loss import STWALoss
from ..exec.base import Batch, Executor, StepResult, Weights, eval_forward
from ..exec.serial import SerialExecutor
from ..nn.module import hook_generation
from ..tensor import Tensor, hooks, no_grad, set_hooks
from .capture import CaptureRecorder
from .cache import PlanCache
from .plan import CompiledPlan, LoweringError, lower_predict_plan, lower_training_plan

__all__ = ["CompiledExecutor"]

#: (generator, bit_generator_state) snapshots for every module-held RNG
_RngStates = List[Tuple[np.random.Generator, dict]]


class CompiledExecutor(Executor):
    """Trace-once/replay-many execution with guarded interpreted fallback.

    Parameters mirror :class:`repro.exec.SerialExecutor`, serving knobs
    (``scaler`` / ``history``) included, so one compiled executor can stand
    in for it under training and serving.
    """

    def __init__(
        self,
        model,
        *,
        huber_delta: float = 1.0,
        kl_weight: float = 0.0,
        detect_anomaly: bool = False,
        scaler=None,
        history: Optional[int] = None,
        plan_capacity: int = 8,
        validate_rtol: float = 1e-9,
        loss_fn: Optional[STWALoss] = None,
    ):
        super().__init__(model, scaler=scaler, history=history)
        self.detect_anomaly = detect_anomaly
        self.loss_fn = loss_fn or STWALoss(delta=huber_delta, kl_weight=kl_weight)
        self.validate_rtol = float(validate_rtol)
        self._kl_model = model if hasattr(model, "kl_divergence") else None
        self._serial = SerialExecutor(model, detect_anomaly=detect_anomaly, loss_fn=self.loss_fn)
        self.train_plans = PlanCache(plan_capacity)
        self.predict_plans = PlanCache(plan_capacity)
        self._hook_generation = -1  # forces the first hook scan
        self._hooked = False
        self.stats: Dict[str, object] = {
            "traces": 0,
            "replays": 0,
            "fallback_steps": 0,
            "validation_failures": 0,
            "fallback_reasons": {},
        }

    # ------------------------------------------------------------------ #
    # lifecycle: the inner interpreted executor shares our lifecycle
    # ------------------------------------------------------------------ #
    def _acquire(self) -> None:
        self._serial.open()

    def _release(self) -> None:
        self._serial.close()

    # ------------------------------------------------------------------ #
    # fallback bookkeeping
    # ------------------------------------------------------------------ #
    def _forced_interpreted(self) -> Optional[str]:
        """Reason observability machinery or module hooks force the interpreted path."""
        if self.detect_anomaly:
            return "detect_anomaly"
        current = hooks()
        if current.trace is not None:
            return "op_trace_hook"
        if current.anomaly is not None:
            return "anomaly_context"
        if current.capture is not None:
            return "nested_capture"
        generation = hook_generation()
        if generation != self._hook_generation:
            self._hook_generation = generation
            self._hooked = self.model.has_forward_hooks()
        if self._hooked:
            return "module_hooks"
        return None

    def _count_fallback(self, reason: str) -> None:
        self.stats["fallback_steps"] += 1
        reasons: Dict[str, int] = self.stats["fallback_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1

    # ------------------------------------------------------------------ #
    # module RNG snapshots: replay must keep generators in lockstep
    # ------------------------------------------------------------------ #
    def _rng_states(self) -> _RngStates:
        states: _RngStates = []
        for _, module in self.model.named_modules():
            for value in vars(module).values():
                if isinstance(value, np.random.Generator):
                    states.append((value, value.bit_generator.state))
        return states

    @staticmethod
    def _restore_rng(states: _RngStates) -> None:
        for generator, state in states:
            generator.bit_generator.state = state

    @staticmethod
    def _rng_matches(states: _RngStates, expected: _RngStates) -> bool:
        return all(s == e for (_, s), (_, e) in zip(states, expected))

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def train_step(self, weights: Weights, batch: Batch) -> StepResult:
        self._require_open("train_step")
        x, y = batch
        self._load(weights)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        forced = self._forced_interpreted()
        if forced is not None:
            self._count_fallback(forced)
            return self._serial.train_step(None, (x, y))
        if not np.isfinite(y).all():
            # STWALoss would take the masked (data-dependent) branch
            self._count_fallback("nonfinite_target")
            return self._serial.train_step(None, (x, y))
        signature = (
            "train", bool(self.model.training),
            x.shape, str(x.dtype), y.shape, str(y.dtype),
        )
        entry = self.train_plans.get(signature)
        if entry is not None:
            status, payload = entry
            if status == PlanCache.LIVE:
                return self._replay_train(payload, x, y)
            self._count_fallback(f"dead_plan: {payload}")
            return self._serial.train_step(None, (x, y))
        return self._trace_train(signature, x, y)

    def _replay_train(self, plan: CompiledPlan, x: np.ndarray, y: np.ndarray) -> StepResult:
        start = time.perf_counter()
        value = float(plan.run_forward({"x": x, "y": y}))
        if not np.isfinite(value):
            raise FloatingPointError(
                f"training diverged: loss became {value}; lower the learning "
                "rate or tighten grad_clip"
            )
        plan.run_adjoint()
        for parameter in self._parameters:
            parameter.grad = None
        plan.export_grads()
        self.stats["replays"] += 1
        return StepResult(
            loss=value,
            grads=[parameter.grad for parameter in self._parameters],
            stats={"seconds": time.perf_counter() - start, "executor": "compiled"},
        )

    def _trace_train(self, signature, x: np.ndarray, y: np.ndarray) -> StepResult:
        """Run one interpreted step under capture, lower, validate in place."""
        start = time.perf_counter()
        self.stats["traces"] += 1
        recorder = CaptureRecorder()
        recorder.register_params(self._parameters)
        rng_before = self._rng_states()
        previous = set_hooks(capture=recorder)
        try:
            x_t, y_t = Tensor(x), Tensor(y)
            recorder.register_input("x", x_t)
            recorder.register_input("y", y_t)
            for parameter in self._parameters:
                parameter.zero_grad()
            prediction = self.model(x_t)
            loss = self.loss_fn(prediction, y_t, model=self._kl_model)
            value = float(loss.item())
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"training diverged: loss became {value}; lower the learning "
                    "rate or tighten grad_clip"
                )
            loss.backward()
        finally:
            # a raising trace (divergence, injected faults) must not poison
            # the signature: uninstall and let the error propagate untraced
            set_hooks(**previous)

        def interpreted() -> StepResult:
            return StepResult(
                loss=value,
                grads=[parameter.grad for parameter in self._parameters],
                stats={"seconds": time.perf_counter() - start, "executor": "compiled-trace"},
            )

        if recorder.dead:
            self.train_plans.put_dead(signature, recorder.dead_reason)
            self._count_fallback(f"unsupported: {recorder.dead_reason}")
            return interpreted()
        rng_after = self._rng_states()
        saved_grads = [parameter.grad for parameter in self._parameters]
        try:
            plan = lower_training_plan(recorder, loss)
        except LoweringError as err:
            self.train_plans.put_dead(signature, str(err))
            self._count_fallback(f"lowering: {err}")
            return interpreted()

        # validation replay: rewind the RNGs, replay the same batch, accept
        # only on loss/grad agreement and exact generator lockstep
        self._restore_rng(rng_before)
        replay_value = float(plan.run_forward({"x": x, "y": y}))
        plan.run_adjoint()
        for parameter in self._parameters:
            parameter.grad = None
        plan.export_grads()
        ok = self._rng_matches(self._rng_states(), rng_after) and np.isclose(
            replay_value, value, rtol=self.validate_rtol, atol=1e-12
        )
        if ok:
            for parameter, saved in zip(self._parameters, saved_grads):
                replayed = parameter.grad
                if (replayed is None) != (saved is None):
                    ok = False
                    break
                if saved is not None and not np.allclose(
                    replayed, saved, rtol=self.validate_rtol, atol=1e-12
                ):
                    ok = False
                    break
        if not ok:
            self.stats["validation_failures"] += 1
            self.train_plans.put_dead(signature, "validation_mismatch")
            self._count_fallback("validation_mismatch")
            self._restore_rng(rng_after)
            for parameter, saved in zip(self._parameters, saved_grads):
                parameter.grad = saved
            return interpreted()
        self.train_plans.put_live(signature, plan)
        self.stats["replays"] += 1
        return StepResult(
            loss=replay_value,
            grads=[parameter.grad for parameter in self._parameters],
            stats={
                "seconds": time.perf_counter() - start,
                "executor": "compiled-trace",
                "trace": True,
            },
        )

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def _forward(self, window: np.ndarray) -> np.ndarray:
        forced = self._forced_interpreted()
        if forced is not None:
            self._count_fallback(forced)
            return eval_forward(self.model, window)
        signature = ("predict", window.shape, str(window.dtype))
        entry = self.predict_plans.get(signature)
        if entry is not None:
            status, payload = entry
            if status != PlanCache.LIVE:
                self._count_fallback(f"dead_plan: {payload}")
                return eval_forward(self.model, window)
            self.stats["replays"] += 1
            forecast = payload.run_forward({"x": window})
        else:
            forecast = self._trace_predict(signature, window)
        if self.scaler is not None:
            return forecast  # inverse_transform returns a fresh array
        return np.array(forecast)  # detach from the plan's reused buffer

    def _trace_predict(self, signature, window: np.ndarray) -> np.ndarray:
        """Capture one eval-mode forward under ``no_grad``, lower, validate."""
        self.stats["traces"] += 1
        recorder = CaptureRecorder()
        recorder.register_params(self._parameters)
        rng_before = self._rng_states()
        was_training = self.model.training
        self.model.eval()
        previous = set_hooks(capture=recorder)
        try:
            with no_grad():
                x_t = Tensor(window)
                recorder.register_input("x", x_t)
                out_t = self.model(x_t)
        finally:
            set_hooks(**previous)
            self.model.train(was_training)
        captured = out_t.numpy()
        if recorder.dead:
            self.predict_plans.put_dead(signature, recorder.dead_reason)
            self._count_fallback(f"unsupported: {recorder.dead_reason}")
            return captured
        rng_after = self._rng_states()
        try:
            plan = lower_predict_plan(recorder, out_t)
        except LoweringError as err:
            self.predict_plans.put_dead(signature, str(err))
            self._count_fallback(f"lowering: {err}")
            return captured
        self._restore_rng(rng_before)
        replayed = plan.run_forward({"x": window})
        ok = self._rng_matches(self._rng_states(), rng_after) and np.allclose(
            replayed, captured, rtol=self.validate_rtol, atol=1e-12
        )
        if not ok:
            self.stats["validation_failures"] += 1
            self.predict_plans.put_dead(signature, "validation_mismatch")
            self._count_fallback("validation_mismatch")
            self._restore_rng(rng_after)
            return captured
        self.predict_plans.put_live(signature, plan)
        return replayed
