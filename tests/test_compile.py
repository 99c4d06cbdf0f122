"""Compiled execution backend (repro.compile): trace once, replay many.

Four invariants, mirroring DESIGN.md "Compiled execution":

* **Equivalence** — a compiled trajectory (losses, gradients, predictions)
  matches the interpreted :class:`repro.exec.SerialExecutor` to 1e-9
  relative tolerance over multiple optimizer steps, for deterministic and
  stochastic (latent-sampling) ST-WA variants alike.
* **Plan cache** — one trace per (shape, dtype, mode) signature; repeats
  replay, new shapes re-trace, the LRU bound evicts, and signatures that
  cannot compile are pinned dead so they never pay capture twice.
* **Guarded fallback** — unsupported ops, non-finite targets,
  ``detect_anomaly``, and an installed op-trace hook all serve through the
  interpreted path while keeping the ordinary Executor contract.
* **Adjoint correctness** — the precomputed tape-free adjoint program is
  gradient-checked against central finite differences per fused-chain
  pattern (elementwise, linear, softmax, reductions, views, fancy
  indexing, matmul).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.registry import BuildSpec, build_from_spec
from repro.compile import CompiledExecutor, PlanCache
from repro.compile.capture import CaptureRecorder
from repro.compile.plan import lower_training_plan
from repro.core import make_deterministic_st_wa, make_st_wa
from repro.data import WindowSpec, load_dataset
from repro.data.scalers import StandardScaler
from repro.data.windows import BatchIterator, SlidingWindowDataset
from repro.exec import ExecutorSpec, SerialExecutor
from repro.nn import Module, Parameter
from repro.obs import ListSink
from repro.optim import SGD, Adam, clip_grad_norm, grad_segment
from repro.serve import ForecasterArtifact, ServeConfig, ServingEngine
from repro.tensor import Tensor, hooks, ops, set_hooks
from repro.tensor.gradcheck import numerical_gradient
from repro.training import Trainer, TrainerConfig

SPEC = WindowSpec(12, 12)
RTOL = 1e-9
ATOL = 1e-12


def small_model(num_sensors: int, seed: int = 0, *, stochastic: bool = False):
    factory = make_st_wa if stochastic else make_deterministic_st_wa
    return factory(num_sensors, model_dim=8, skip_dim=8, predictor_hidden=16, seed=seed)


def seeded_batches(dataset, count: int, batch_size: int = 8):
    windows = SlidingWindowDataset(dataset.train, SPEC, raw=dataset.train_raw)
    iterator = iter(BatchIterator(windows, batch_size=batch_size, shuffle=False))
    out = []
    for _ in range(count):
        x, y_raw = next(iterator)
        out.append((x, dataset.scaler.transform(y_raw)))
    return out


def assert_step_matches(serial_result, compiled_result):
    np.testing.assert_allclose(compiled_result.loss, serial_result.loss, rtol=RTOL, atol=ATOL)
    assert len(compiled_result.grads) == len(serial_result.grads)
    for left, right in zip(serial_result.grads, compiled_result.grads):
        assert (left is None) == (right is None)
        if left is not None:
            np.testing.assert_allclose(right, left, rtol=RTOL, atol=ATOL)


# --------------------------------------------------------------------- #
# equivalence vs the interpreted executor
# --------------------------------------------------------------------- #
class TestEquivalence:
    @pytest.mark.parametrize("stochastic", [False, True], ids=["deterministic", "stochastic"])
    def test_multi_step_trajectory_matches_serial(self, tiny_dataset, stochastic):
        """Five full optimizer steps: losses and gradients stay in lockstep.

        The stochastic variant exercises the host-input regeneration path:
        replay must draw the latent noise from the module RNGs exactly as
        the interpreted step would, or the trajectories diverge by step 2.
        """
        serial_model = small_model(tiny_dataset.num_sensors, seed=1, stochastic=stochastic)
        compiled_model = small_model(tiny_dataset.num_sensors, seed=1, stochastic=stochastic)
        serial = SerialExecutor(serial_model, kl_weight=0.1).open()
        compiled = CompiledExecutor(compiled_model, kl_weight=0.1).open()
        serial_opt = Adam(serial_model.parameters(), lr=1e-3)
        compiled_opt = Adam(compiled_model.parameters(), lr=1e-3)
        try:
            for x, y in seeded_batches(tiny_dataset, 5):
                assert_step_matches(
                    serial.train_step(None, (x, y)), compiled.train_step(None, (x, y))
                )
                for model, opt in ((serial_model, serial_opt), (compiled_model, compiled_opt)):
                    clip_grad_norm(model.parameters(), 5.0)
                    opt.step()
        finally:
            serial.close()
            compiled.close()
        assert compiled.stats["traces"] == 1
        assert compiled.stats["replays"] >= 5  # validation replay + 4 steady-state
        assert compiled.stats["fallback_steps"] == 0

    def test_predictions_match_interpreted(self, tiny_dataset):
        x, _ = seeded_batches(tiny_dataset, 1)[0]
        serial_model = small_model(tiny_dataset.num_sensors)
        compiled_model = small_model(tiny_dataset.num_sensors)
        with SerialExecutor(serial_model) as serial, CompiledExecutor(compiled_model) as compiled:
            expected = serial.predict(None, x)
            np.testing.assert_allclose(compiled.predict(None, x), expected, rtol=RTOL, atol=ATOL)
            # second call replays the cached predict plan, same result
            np.testing.assert_allclose(compiled.predict(None, x), expected, rtol=RTOL, atol=ATOL)
        assert compiled.predict_plans.stats["hits"] == 1

    def test_trainer_fit_compiled_matches_serial(self, tiny_dataset):
        histories = {}
        for kind in ("serial", "compiled"):
            config = TrainerConfig(
                lr=1e-3,
                epochs=2,
                batch_size=8,
                patience=100,
                max_batches_per_epoch=3,
                eval_batches=2,
                seed=5,
                executor=ExecutorSpec(kind=kind),
            )
            model = small_model(tiny_dataset.num_sensors, seed=3)
            histories[kind] = Trainer(model, tiny_dataset, SPEC, config).fit()
        np.testing.assert_allclose(
            histories["compiled"].train_loss, histories["serial"].train_loss, rtol=RTOL
        )
        np.testing.assert_allclose(
            histories["compiled"].val_mae, histories["serial"].val_mae, rtol=RTOL
        )


# --------------------------------------------------------------------- #
# the plan cache: hit, miss, re-trace, eviction, dead pinning
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_same_signature_replays_new_signature_retraces(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        with CompiledExecutor(model) as executor:
            executor.train_step(None, (x, y))
            assert executor.stats["traces"] == 1
            executor.train_step(None, (x, y))
            assert executor.stats["traces"] == 1  # cache hit: replay, no capture
            executor.train_step(None, (x[:4], y[:4]))  # new batch shape
            assert executor.stats["traces"] == 2
            stats = executor.train_plans.stats
            assert stats["size"] == 2 and stats["hits"] == 1 and stats["misses"] == 2

    def test_capacity_bound_evicts_and_forces_retrace(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        with CompiledExecutor(model, plan_capacity=1) as executor:
            executor.train_step(None, (x, y))
            executor.train_step(None, (x[:4], y[:4]))  # evicts the bs=8 plan
            executor.train_step(None, (x, y))  # must re-trace
        assert executor.stats["traces"] == 3
        assert executor.train_plans.stats["evictions"] == 2

    def test_cache_unit_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put_live("a", object())
        cache.put_live("b", object())
        assert cache.get("a") is not None  # refresh: "b" becomes the LRU victim
        cache.put_live("c", object())
        assert "b" not in cache and "a" in cache and "c" in cache
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get("b") is None and cache.stats["misses"] == 1

    def test_cache_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


# --------------------------------------------------------------------- #
# guarded fallback: the interpreted path stays reachable
# --------------------------------------------------------------------- #
class _UnsupportedBlock(Module):
    """A layer that declares itself untraceable, like BatchNorm's running
    statistics update or DCRNN's teacher-forcing coin flip."""

    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.linspace(0.5, 1.5, 4))

    def forward(self, x):
        ops.notify_compile_unsupported("test: data-dependent branch")
        return (x * self.weight).tanh()


class TestFallback:
    def _batch(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        return x, np.zeros((6, 4))

    def test_unsupported_op_pins_signature_dead(self):
        x, y = self._batch()
        with CompiledExecutor(_UnsupportedBlock()) as executor:
            first = executor.train_step(None, (x, y))
            second = executor.train_step(None, (x, y))
        assert np.isfinite(first.loss) and first.grads[0] is not None
        assert_step_matches(first, second)
        # one capture attempt, then the dead entry short-circuits to serial
        assert executor.stats["traces"] == 1 and executor.stats["replays"] == 0
        assert executor.stats["fallback_steps"] == 2
        reasons = executor.stats["fallback_reasons"]
        assert any(key.startswith("unsupported:") for key in reasons)
        assert any(key.startswith("dead_plan:") for key in reasons)

    def test_nonfinite_target_uses_interpreted_masked_loss(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        y = y.copy()
        y[0, 0, 0, 0] = np.nan
        with CompiledExecutor(model) as executor:
            result = executor.train_step(None, (x, y))
        assert np.isfinite(result.loss)
        assert executor.stats["traces"] == 0
        assert executor.stats["fallback_reasons"] == {"nonfinite_target": 1}

    def test_detect_anomaly_forces_interpreted(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        with CompiledExecutor(model, detect_anomaly=True) as executor:
            result = executor.train_step(None, (x, y))
        assert np.isfinite(result.loss)
        assert executor.stats["traces"] == 0
        assert executor.stats["fallback_reasons"] == {"detect_anomaly": 1}

    def test_op_trace_hook_forces_interpreted_then_replay_resumes(self, tiny_dataset):
        """Profiling still sees real ops: a hooked step detours to serial."""
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        traced_ops = []
        with CompiledExecutor(model) as executor:
            executor.train_step(None, (x, y))  # trace + validate
            replays = executor.stats["replays"]
            restore = set_hooks(trace=lambda name, *rest: traced_ops.append(name))
            try:
                hooked = executor.train_step(None, (x, y))
            finally:
                set_hooks(**restore)
            assert np.isfinite(hooked.loss)
            assert traced_ops  # the interpreted step fed the profiler hook
            assert executor.stats["replays"] == replays  # plan was bypassed
            assert executor.stats["fallback_reasons"]["op_trace_hook"] == 1
            executor.train_step(None, (x, y))  # hook gone: replay resumes
            assert executor.stats["replays"] == replays + 1

    def test_module_hook_forces_interpreted_then_replay_resumes(self, tiny_dataset):
        """A replayed plan calls no module, so hooks would silently be skipped."""
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        calls = []
        with CompiledExecutor(model, history=12) as executor:
            executor.train_step(None, (x, y))
            executor.predict(None, x)
            replays = executor.stats["replays"]
            handle = model.register_forward_hook(lambda module, args, out: calls.append(1))
            try:
                executor.train_step(None, (x, y))
                executor.predict(None, x)
            finally:
                handle.remove()
            assert calls == [1, 1]  # the hook ran on both interpreted calls
            assert executor.stats["fallback_reasons"]["module_hooks"] == 2
            assert executor.stats["replays"] == replays
            executor.train_step(None, (x, y))
            executor.predict(None, x)
            assert executor.stats["replays"] == replays + 2

    def test_interceptors_in_another_thread_stay_there(self, tiny_dataset):
        """A capture and a trace hook held by one thread are invisible to another."""
        model = small_model(tiny_dataset.num_sensors)
        (x, y), = seeded_batches(tiny_dataset, 1)
        recorder, traced = CaptureRecorder(), []
        installed, release = threading.Event(), threading.Event()

        def hold_interceptors():
            restore = set_hooks(capture=recorder, trace=lambda name, *rest: traced.append(name))
            try:
                installed.set()
                release.wait(timeout=10.0)
                ops.tanh(Tensor(np.ones(3)))  # this thread's own op
            finally:
                set_hooks(**restore)

        with CompiledExecutor(model) as executor:
            executor.train_step(None, (x, y))
            worker = threading.Thread(target=hold_interceptors, daemon=True)
            worker.start()
            try:
                assert installed.wait(timeout=10.0)
                assert hooks().capture is None and hooks().trace is None
                result = executor.train_step(None, (x, y))
                serial = SerialExecutor(model).open().train_step(None, (x, y))
            finally:
                release.set()
                worker.join(timeout=10.0)
            assert result.stats["executor"] == "compiled"
            assert executor.stats["fallback_steps"] == 0
        assert np.isfinite(serial.loss)
        assert [record.name for record in recorder.records] == ["tanh"]
        assert traced == ["tanh"]


# --------------------------------------------------------------------- #
# gradients written into the optimizer arena; views taken at build time
# --------------------------------------------------------------------- #
class TestArenaGradients:
    def test_replayed_gradients_are_the_arena_segments(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors)
        optimizer = Adam(model.parameters(), lr=1e-3)
        (x, y), = seeded_batches(tiny_dataset, 1)
        with CompiledExecutor(model) as executor:
            executor.train_step(None, (x, y))
            result = executor.train_step(None, (x, y))
        trained = [p for p, grad in zip(model.parameters(), result.grads) if grad is not None]
        assert trained
        assert all(p.grad is grad_segment(p) for p in trained)
        assert all(p.grad.base is optimizer._grads for p in trained)

    @pytest.mark.parametrize(
        "make_optimizer",
        [
            lambda params: Adam(params, lr=1e-3, weight_decay=1e-2),
            lambda params: SGD(params, lr=1e-2, momentum=0.9, weight_decay=1e-2),
        ],
        ids=["adam", "sgd"],
    )
    def test_optimizer_step_leaves_parameter_grads_unchanged(self, tiny_dataset, make_optimizer):
        model = small_model(tiny_dataset.num_sensors)
        optimizer = make_optimizer(model.parameters())
        with CompiledExecutor(model) as executor:
            for batch in seeded_batches(tiny_dataset, 3):
                executor.train_step(None, batch)
                params = [p for p in model.parameters() if p.grad is not None]
                before = [p.grad.copy() for p in params]
                optimizer.step()
                for p, expected in zip(params, before):
                    assert p.grad is grad_segment(p)
                    assert (p.grad == expected).all()

    def test_replay_after_load_state_dict_matches_interpreted(self, tiny_dataset):
        model = small_model(tiny_dataset.num_sensors, seed=0)
        other = small_model(tiny_dataset.num_sensors, seed=1)
        optimizer = Adam(model.parameters(), lr=1e-3)
        (x, y), = seeded_batches(tiny_dataset, 1)
        with CompiledExecutor(model) as executor:
            executor.train_step(None, (x, y))
            replays = executor.stats["replays"]
            model.load_state_dict(other.state_dict())
            compiled = executor.train_step(None, (x, y))
            assert executor.stats["replays"] == replays + 1
        with SerialExecutor(other) as serial:
            assert_step_matches(serial.train_step(None, (x, y)), compiled)
        optimizer.step()  # re-adopts the rebound values into the arena
        for p, q in zip(model.parameters(), other.parameters()):
            assert p.data is not q.data and np.isfinite(p.data).all()

    def test_optimizer_built_after_the_plan_steps_correctly(self, tiny_dataset):
        """Resume order: the plan exists before the optimizer that steps it."""
        batches = seeded_batches(tiny_dataset, 4)
        compiled_model = small_model(tiny_dataset.num_sensors)
        serial_model = small_model(tiny_dataset.num_sensors)
        with CompiledExecutor(compiled_model) as compiled_exec, SerialExecutor(
            serial_model
        ) as serial_exec:
            compiled_exec.train_step(None, batches[0])
            serial_exec.train_step(None, batches[0])
            compiled_opt = Adam(compiled_model.parameters(), lr=1e-2)
            serial_opt = Adam(serial_model.parameters(), lr=1e-2)
            compiled_opt.step()
            serial_opt.step()
            for batch in batches[1:]:
                compiled = compiled_exec.train_step(None, batch)
                assert compiled.stats["executor"] == "compiled"
                assert_step_matches(serial_exec.train_step(None, batch), compiled)
                compiled_opt.step()
                serial_opt.step()
        for left, right in zip(serial_model.parameters(), compiled_model.parameters()):
            np.testing.assert_allclose(right.data, left.data, rtol=RTOL, atol=ATOL)

    def test_rebound_parameter_views_are_retaken_or_refused(self):
        weight = Parameter(np.arange(12.0).reshape(3, 4))
        scale = np.linspace(0.5, 1.5, 12)
        recorder = CaptureRecorder()
        recorder.register_params([weight])
        restore = set_hooks(capture=recorder)
        try:
            loss = ops.sum(ops.mul(ops.reshape(weight, (12,)), scale))
            loss.backward()
        finally:
            set_hooks(**restore)
        plan = lower_training_plan(recorder, loss)
        assert plan.stats["fixed_views"] == 1
        weight.data = 2.0 * weight.data  # rebound: the view is taken again
        for factor in (1.0, 3.0):
            weight.data *= factor  # in place: the view sees it
            expected = float((weight.data.reshape(12) * scale).sum())
            assert float(plan.run_forward({})) == pytest.approx(expected, rel=1e-12)
        # a Fortran-ordered value makes the reshape a copy the plan would
        # replay stale, so every replay refuses until a C-order array is bound
        weight.data = np.asfortranarray(weight.data)
        for _ in range(2):
            with pytest.raises(ValueError, match="C-contiguous"):
                plan.run_forward({})
        weight.data = np.ascontiguousarray(weight.data)
        assert float(plan.run_forward({})) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "pieces",
        [
            [(slice(None), slice(0, 3)), (slice(None), slice(3, 5))],  # cover: assigned
            [(0,), (1,), (2,)],  # cover by integer rows: assigned
            [(slice(None), slice(0, 3)), (slice(None), slice(2, 5))],  # overlap: accumulated
            [(slice(None), slice(1, 3))],  # partial: accumulated into zeros
        ],
        ids=["columns", "rows", "overlap", "partial"],
    )
    def test_index_scatter_gradients_survive_a_poisoned_buffer(self, pieces):
        """Each replay must rewrite every gradient element it owns."""
        rng = np.random.default_rng(4)
        weight = Parameter(rng.standard_normal((3, 5)))  # reached only by indexing
        other = Parameter(rng.standard_normal((3, 5)))
        params = [weight, other]
        recorder = CaptureRecorder()
        recorder.register_params(params)
        restore = set_hooks(capture=recorder)
        try:
            hidden = ops.tanh(ops.mul(other, 1.5))  # an op output reached only by indexing
            terms = [
                ops.sum(ops.mul(ops.getitem(source, piece), rng.uniform(0.5, 1.5)))
                for piece in pieces
                for source in (weight, hidden)
            ]
            loss = terms[0]
            for term in terms[1:]:
                loss = ops.add(loss, term)
            loss.backward()
        finally:
            set_hooks(**restore)
        expected = [p.grad.copy() for p in params]
        plan = lower_training_plan(recorder, loss)
        for _ in range(2):
            plan.run_forward({})
            plan.run_adjoint()
            plan.export_grads()
            for p, grad in zip(params, expected):
                np.testing.assert_allclose(p.grad, grad, rtol=RTOL, atol=ATOL)
                p.grad.fill(np.nan)  # what an interpreted fallback's copy could leave

    def test_st_wa_batch1_training_plan_numpy_calls(self):
        """Pins the replayed program's size (740 NumPy calls when every view
        was taken again per replay and every gradient view copied)."""
        dataset = load_dataset("PEMS08", "fast")
        model = build_from_spec(
            "st-wa", BuildSpec(dataset=dataset, history=12, horizon=12, seed=7)
        )
        (x, y), = seeded_batches(dataset, 1, batch_size=1)
        with CompiledExecutor(model, kl_weight=0.02) as executor:
            executor.train_step(None, (x, y))
            (plan,) = executor.train_plans.live_plans()
        assert plan.stats["numpy_calls"] == 604
        assert plan.stats["fixed_views"] == 57
        assert plan.stats["aliased_grads"] == 72


# --------------------------------------------------------------------- #
# adjoint correctness: compiled gradients vs finite differences
# --------------------------------------------------------------------- #
def _elementwise_chain():
    rng = np.random.default_rng(1)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((3, 4)) * 0.5)

        def forward(self, x):
            return ((x * self.w).tanh() + self.w.sigmoid()) * 0.5 + (x * 0.1).exp() * 0.2

    return M(), rng.standard_normal((3, 4))


def _linear_chain():
    rng = np.random.default_rng(2)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((4, 5)) * 0.5)
            self.b = Parameter(rng.standard_normal(5) * 0.1)

        def forward(self, x):
            return ops.linear(x, self.w, self.b).tanh()

    return M(), rng.standard_normal((2, 3, 4))


def _softmax_chain():
    rng = np.random.default_rng(3)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((3, 4)) * 0.5)

        def forward(self, x):
            return ops.softmax(x * self.w, axis=-1) + ops.log_softmax(x + self.w, axis=0) * 0.1

    return M(), rng.standard_normal((3, 4))


def _reduction_chain():
    rng = np.random.default_rng(4)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((3, 4)) * 0.5)

        def forward(self, x):
            scaled = x * self.w
            return scaled.sum(axis=0) + scaled.mean(axis=0) + scaled.sum() * 0.01

    return M(), rng.standard_normal((3, 4))


def _view_chain():
    rng = np.random.default_rng(5)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((3, 4)) * 0.5)

        def forward(self, x):
            swapped = (x * self.w).swapaxes(0, 1)  # (4, 3)
            stacked = ops.stack([swapped, swapped * 2.0], axis=0)  # (2, 4, 3)
            flat = stacked.reshape(8, 3)
            return ops.concat([flat, flat * 0.5], axis=0)  # (16, 3)

    return M(), rng.standard_normal((3, 4))


def _fancy_index_chain():
    rng = np.random.default_rng(6)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((3, 4)) * 0.5)

        def forward(self, x):
            unique = ops.getitem(x * self.w, np.array([2, 0, 1]))  # unique-lane scatter
            dupes = ops.getitem(x * self.w, np.array([1, 1, 2]))  # np.add.at path
            return unique + dupes * 0.5

    return M(), rng.standard_normal((3, 4))


def _matmul_chain():
    rng = np.random.default_rng(7)

    class M(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(rng.standard_normal((4, 5)) * 0.5)

        def forward(self, x):
            projected = x @ self.w  # batched-a, 2D-b adjoint
            return projected @ projected.swapaxes(-1, -2) * 0.1  # batched-b adjoint

    return M(), rng.standard_normal((2, 3, 4))


FUSED_CHAIN_PATTERNS = [
    _elementwise_chain,
    _linear_chain,
    _softmax_chain,
    _reduction_chain,
    _view_chain,
    _fancy_index_chain,
    _matmul_chain,
]


class TestCompiledGradcheck:
    @pytest.mark.parametrize(
        "pattern", FUSED_CHAIN_PATTERNS, ids=lambda p: p.__name__.strip("_")
    )
    def test_replayed_adjoints_match_finite_differences(self, pattern):
        """The tape-free adjoint program is checked against central FD.

        The target offsets the initial prediction by 0.3 so every Huber
        residual sits in the smooth quadratic region, well away from both
        the |r| = delta kink and zero.
        """
        model, x = pattern()
        y = model(Tensor(x)).numpy() - 0.3
        with CompiledExecutor(model, kl_weight=0.0) as executor:
            executor.train_step(None, (x, y))
            replayed = executor.train_step(None, (x, y))  # steady-state replay
        assert executor.stats["traces"] == 1 and executor.stats["fallback_steps"] == 0
        assert executor.stats["replays"] >= 2
        params = list(model.parameters())
        loss_fn = executor.loss_fn
        target = Tensor(y)

        def func(*_):
            return loss_fn(model(Tensor(x)), target)

        for i, (parameter, grad) in enumerate(zip(params, replayed.grads)):
            numeric = numerical_gradient(func, params, i)
            np.testing.assert_allclose(
                grad,
                numeric,
                rtol=1e-4,
                atol=1e-6,
                err_msg=f"compiled adjoint mismatch for parameter {i} ({parameter.name})",
            )


# --------------------------------------------------------------------- #
# serving integration
# --------------------------------------------------------------------- #
def _gru_artifact():
    from repro.baselines import GRUForecaster

    rng = np.random.default_rng(11)
    raw = 100.0 + 20.0 * rng.standard_normal((4, 200, 1))
    scaler = StandardScaler().fit(raw)
    model = GRUForecaster(12, 12, hidden_size=4, predictor_hidden=8, seed=0)
    artifact = ForecasterArtifact(
        model, scaler=scaler, model_name="gru", history=12, horizon=12
    )
    window = 100.0 + 20.0 * rng.standard_normal((4, 12, 1))
    return artifact, window


class TestServing:
    def test_compiled_engine_matches_inference_and_stamps_kind(self):
        artifact, window = _gru_artifact()
        sink = ListSink()
        interpreted = ServeConfig(executor=ExecutorSpec.serial())
        with ServingEngine(artifact, num_sensors=4, config=interpreted) as engine:
            expected = engine.forecast(window)
        config = ServeConfig(executor=ExecutorSpec.compiled(), sink=sink)
        with ServingEngine(artifact, num_sensors=4, config=config) as engine:
            result = engine.forecast(window)
            snapshot = engine.snapshot()
            slo = engine.slo_report(p95_ms=10_000.0)
        assert result.source == "model"
        np.testing.assert_allclose(result.forecast, expected.forecast, rtol=RTOL, atol=1e-9)
        assert snapshot["executor_kind"] == "compiled"
        assert slo["executor_kind"] == "compiled"
        request_events = [e for e in sink.events if e.get("event") == "request"]
        assert request_events and all(
            e["executor_kind"] == "compiled" for e in request_events
        )
        slo_events = [e for e in sink.events if e.get("event") == "slo_report"]
        assert slo_events and slo_events[0]["executor_kind"] == "compiled"

    def test_serial_spec_serves_through_the_artifact_executor(self):
        artifact, window = _gru_artifact()
        config = ServeConfig(executor=ExecutorSpec.serial())
        with ServingEngine(artifact, num_sensors=4, config=config) as engine:
            assert engine._model_executor is artifact.executor
            assert engine.executor_kind == "serial"
            result = engine.forecast(window)
            snapshot = engine.snapshot()
        assert result.source == "model"
        assert np.array_equal(result.forecast, artifact.predict(window))
        assert snapshot["executor_kind"] == "serial"
