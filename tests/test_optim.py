"""Optimizers, gradient clipping, schedulers, early stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines import BuildSpec, build_from_spec
from repro.optim import (
    SGD,
    Adam,
    ConstantLR,
    CosineAnnealingLR,
    EarlyStopping,
    StepLR,
    clip_grad_norm,
    grad_segment,
)
from repro.tensor import Tensor, functional as F


def quadratic_problem(seed=0):
    """A convex problem: minimize ||w - target||^2."""
    rng = np.random.default_rng(seed)
    w = nn.Parameter(rng.standard_normal(10))
    target = rng.standard_normal(10)
    return w, target


def loss_of(w, target):
    diff = w - Tensor(target)
    return (diff * diff).sum()


class TestSGD:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        w, _ = quadratic_problem()
        with pytest.raises(ValueError):
            SGD([w], lr=0.0)

    def test_converges_on_quadratic(self):
        w, target = quadratic_problem()
        opt = SGD([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss_of(w, target).backward()
            opt.step()
        np.testing.assert_allclose(w.numpy(), target, atol=1e-6)

    def test_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            w, target = quadratic_problem()
            opt = SGD([w], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                loss = loss_of(w, target)
                loss.backward()
                opt.step()
            losses[momentum] = loss.item()
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks_solution(self):
        w, target = quadratic_problem()
        opt = SGD([w], lr=0.1, weight_decay=1.0)
        for _ in range(300):
            opt.zero_grad()
            loss_of(w, target).backward()
            opt.step()
        assert np.linalg.norm(w.numpy()) < np.linalg.norm(target)

    def test_skips_parameters_without_grad(self):
        w, target = quadratic_problem()
        other = nn.Parameter(np.ones(3))
        opt = SGD([w, other], lr=0.1)
        opt.zero_grad()
        loss_of(w, target).backward()
        opt.step()
        np.testing.assert_array_equal(other.numpy(), np.ones(3))


class TestAdam:
    def test_invalid_betas(self):
        w, _ = quadratic_problem()
        with pytest.raises(ValueError):
            Adam([w], betas=(1.0, 0.9))

    def test_converges_on_quadratic(self):
        w, target = quadratic_problem()
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss_of(w, target).backward()
            opt.step()
        np.testing.assert_allclose(w.numpy(), target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        """Adam's bias correction makes the first step ~lr in each coordinate."""
        w = nn.Parameter(np.array([10.0]))
        opt = Adam([w], lr=0.1)
        (w * 1.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(w.numpy(), [10.0 - 0.1], atol=1e-6)

    def test_trains_mlp_regression(self, rng):
        model = nn.MLP([2, 16, 1], rng=rng)
        opt = Adam(model.parameters(), lr=0.02)
        x = Tensor(rng.standard_normal((100, 2)))
        y = Tensor((x.numpy() ** 2).sum(axis=1, keepdims=True))
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = F.mse_loss(model(x), y)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.1 * first


class TestClipGradNorm:
    def test_clips_large_gradient(self):
        w = nn.Parameter(np.zeros(4))
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(norm, 20.0)
        np.testing.assert_allclose(np.linalg.norm(w.grad), 1.0)

    def test_leaves_small_gradient(self):
        w = nn.Parameter(np.zeros(4))
        w.grad = np.full(4, 0.01)
        clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(w.grad, 0.01)

    def test_ignores_missing_gradients(self):
        w = nn.Parameter(np.zeros(4))
        assert clip_grad_norm([w], max_norm=1.0) == 0.0


class ReferenceSGD:
    """The per-parameter SGD loop the flat arena replaced (the oracle)."""

    def __init__(self, values, lr, momentum=0.0, weight_decay=0.0):
        self.values = [value.copy() for value in values]
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self.velocity = [None] * len(values)
        self.nonfinite_skips = 0

    def step(self, grads):
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            if not np.isfinite(grad).all():
                self.nonfinite_skips += 1
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * self.values[i]
            if self.momentum:
                if self.velocity[i] is None:
                    self.velocity[i] = np.zeros_like(self.values[i])
                self.velocity[i] = self.momentum * self.velocity[i] + grad
                grad = self.velocity[i]
            self.values[i] = self.values[i] - self.lr * grad

    def slots(self):
        return {"velocity": self.velocity}


class ReferenceAdam:
    """The per-parameter Adam loop the flat arena replaced (the oracle)."""

    def __init__(self, values, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.values = [value.copy() for value in values]
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.m = [None] * len(values)
        self.v = [None] * len(values)
        self.step_count = 0
        self.nonfinite_skips = 0

    def step(self, grads):
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            if not np.isfinite(grad).all():
                self.nonfinite_skips += 1
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * self.values[i]
            if self.m[i] is None:
                self.m[i] = np.zeros_like(self.values[i])
                self.v[i] = np.zeros_like(self.values[i])
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            self.values[i] = self.values[i] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def slots(self):
        return {"m": self.m, "v": self.v}


@pytest.fixture(scope="module")
def st_wa_values():
    """ST-WA's parameter values: the realistic set of shapes an arena holds."""
    from repro.data import load_dataset

    dataset = load_dataset("PEMS08", "fast")
    model = build_from_spec("st-wa", BuildSpec(dataset=dataset, history=12, horizon=12, seed=7))
    return [parameter.data.copy() for parameter in model.parameters()]


ORACLE_CASES = {
    "adam": (Adam, ReferenceAdam, dict(lr=1e-3)),
    "adam-weight-decay": (Adam, ReferenceAdam, dict(lr=1e-3, weight_decay=1e-2)),
    "sgd": (SGD, ReferenceSGD, dict(lr=1e-2)),
    "sgd-momentum-weight-decay": (SGD, ReferenceSGD, dict(lr=1e-2, momentum=0.9, weight_decay=1e-2)),
}


def _oracle_grads(rng, values, step):
    """Per-step gradients with the rare cases on fixed parameters/steps.

    Parameter 0 has no gradient in the first half (its slots stay ``None``
    across the mid-run state round trip), parameter 1 has none on every
    third step, and parameter 2 gets one NaN element on step 7.
    """
    grads = [rng.standard_normal(value.shape) * 0.1 for value in values]
    if step < 10:
        grads[0] = None
    if step % 3 == 0:
        grads[1] = None
    if step == 7:
        grads[2].flat[0] = np.nan
    return grads


class TestArenaOracle:
    """Arena optimizers against the per-parameter loops, bit for bit."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_parameter_loop(self, st_wa_values, case):
        arena_cls, reference_cls, kwargs = ORACLE_CASES[case]
        assert len(st_wa_values) == 63
        params = [nn.Parameter(value.copy()) for value in st_wa_values]
        opt = arena_cls(params, **kwargs)
        reference = reference_cls(st_wa_values, **kwargs)
        rng = np.random.default_rng(3)
        for step in range(24):
            grads = _oracle_grads(rng, st_wa_values, step)
            for parameter, grad in zip(params, grads):
                parameter.grad = None if grad is None else grad.copy()
            opt.step()
            reference.step(grads)
            if step == 11:
                # mid-run round trip into a fresh optimizer over the same
                # parameters: None slots survive, the moments carry over
                state = opt.state_dict()
                for name, slots in reference.slots().items():
                    assert [slot is None for slot in state[name]] == [
                        slot is None for slot in slots
                    ]
                opt = arena_cls(params, **kwargs)
                opt.load_state_dict(state)
                for name in reference.slots():
                    assert [s is None for s in opt.state_dict()[name]] == [
                        s is None for s in state[name]
                    ]
            for parameter, expected in zip(params, reference.values):
                assert (parameter.data == expected).all()
            state = opt.state_dict()
            for name, slots in reference.slots().items():
                for got, expected in zip(state[name], slots):
                    assert (got is None) == (expected is None)
                    if expected is not None:
                        assert (got == expected).all()
        assert opt.nonfinite_skips == reference.nonfinite_skips == 1

    def test_nan_gradient_leaves_value_and_moments(self, st_wa_values):
        params = [nn.Parameter(value.copy()) for value in st_wa_values[:4]]
        opt = Adam(params, lr=1e-3)
        for parameter in params:
            parameter.grad = np.ones(parameter.shape)
        opt.step()
        before = opt.state_dict()
        values = [parameter.data.copy() for parameter in params]
        params[2].grad = np.full(params[2].shape, np.inf)
        opt.step()
        after = opt.state_dict()
        assert opt.nonfinite_skips == 1
        assert (params[2].data == values[2]).all()
        assert (after["m"][2] == before["m"][2]).all()
        assert (after["v"][2] == before["v"][2]).all()
        assert not (params[0].data == values[0]).all()

    def test_step_updates_data_in_place(self):
        w = nn.Parameter(np.zeros(3))
        opt = SGD([w], lr=0.5)
        held = w.data
        w.grad = np.ones(3)
        opt.step()
        assert w.data is held
        np.testing.assert_array_equal(held, [-0.5, -0.5, -0.5])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("in_segment", [False, True], ids=["own-array", "arena-segment"])
    def test_step_never_writes_parameter_grads(self, st_wa_values, case, in_segment):
        arena_cls, reference_cls, kwargs = ORACLE_CASES[case]
        params = [nn.Parameter(value.copy()) for value in st_wa_values[:6]]
        opt = arena_cls(params, **kwargs)
        reference = reference_cls(st_wa_values[:6], **kwargs)
        rng = np.random.default_rng(5)
        for _ in range(3):
            grads = [rng.standard_normal(p.shape) for p in params]
            for parameter, grad in zip(params, grads):
                if in_segment:  # where a compiled plan writes it
                    parameter.grad = grad_segment(parameter)
                    parameter.grad[...] = grad
                else:
                    parameter.grad = grad.copy()
            opt.step()
            reference.step(grads)
            for parameter, grad, expected in zip(params, grads, reference.values):
                assert (parameter.grad == grad).all()
                assert (parameter.grad is grad_segment(parameter)) == in_segment
                assert (parameter.data == expected).all()

    def test_nonfinite_segment_gradient_is_kept_by_the_parameter(self):
        w = nn.Parameter(np.zeros(3))
        opt = Adam([w])
        w.grad = grad_segment(w)
        w.grad[...] = [1.0, np.nan, 2.0]
        opt.step()
        assert opt.nonfinite_skips == 1
        assert (w.data == 0.0).all()
        np.testing.assert_array_equal(w.grad, [1.0, np.nan, 2.0])
        assert w.grad is not grad_segment(w)

    def test_grad_segment_needs_a_live_optimizer(self):
        w = nn.Parameter(np.zeros(3))
        assert grad_segment(w) is None
        opt = SGD([w], lr=0.1)
        assert grad_segment(w).shape == (3,)
        w.data = np.ones(3)  # rebound away from the arena until the next step
        assert grad_segment(w) is None
        opt.step()
        assert grad_segment(w) is not None
        del opt
        assert grad_segment(w) is None

    def test_load_state_dict_validates_slots(self):
        w = nn.Parameter(np.zeros(3))
        opt = Adam([w])
        state = opt.state_dict()
        state["m"] = [np.zeros(4)]
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict(state)
        state["m"] = []
        with pytest.raises(ValueError, match="slots"):
            opt.load_state_dict(state)


class TestReadoption:
    def test_rebound_data_is_adopted_on_next_step(self, rng):
        model = nn.MLP([3, 8, 2], rng=rng)
        params = model.parameters()
        opt = Adam(params, lr=1e-2)
        reference = ReferenceAdam([p.data for p in params], lr=1e-2)
        x = Tensor(rng.standard_normal((16, 3)))
        y = Tensor(rng.standard_normal((16, 2)))

        def train_step():
            opt.zero_grad()
            F.mse_loss(model(x), y).backward()
            reference.step([p.grad.copy() for p in params])
            opt.step()

        for _ in range(3):
            train_step()
        views = [p.data for p in params]
        loaded = {name: value + 0.5 for name, value in model.state_dict().items()}
        model.load_state_dict(loaded)  # rebinds every parameter.data
        assert all(p.data is not view for p, view in zip(params, views))
        reference.values = [p.data.copy() for p in params]
        train_step()
        for parameter, view, expected in zip(params, views, reference.values):
            assert parameter.data is view  # back in the arena
            assert (parameter.data == expected).all()

    def test_shape_change_is_rejected(self):
        w = nn.Parameter(np.zeros(3))
        opt = SGD([w], lr=0.1)
        w.data = np.zeros(4)
        w.grad = np.zeros(4)
        with pytest.raises(ValueError, match="rebound"):
            opt.step()


class TestSharedParameters:
    """A module registered in several places is one parameter, stepped once."""

    @pytest.fixture
    def gwn(self):
        from repro.data import load_dataset

        dataset = load_dataset("PEMS08", "fast")
        return build_from_spec("gwn", BuildSpec(dataset=dataset, history=12, horizon=12, seed=0))

    def test_parameters_are_unique(self, gwn):
        named = [p for _, p in gwn.named_parameters()]
        unique = gwn.parameters()
        assert len({id(p) for p in unique}) == len(unique)
        assert len(unique) < len(named)
        assert {id(p) for p in unique} == {id(p) for p in named}
        assert set(gwn.state_dict()) == {name for name, _ in gwn.named_parameters()}

    def test_adam_steps_shared_adjacency_once(self, gwn):
        shared = gwn.adaptive.source
        before = shared.data.copy()
        opt = Adam(gwn.parameters(), lr=1e-3)
        for parameter in gwn.parameters():
            parameter.grad = np.ones(parameter.shape)
        opt.step()
        np.testing.assert_allclose(before - shared.data, 1e-3, rtol=1e-6)

    def test_clip_counts_shared_adjacency_once(self, gwn):
        params = gwn.parameters()
        rng = np.random.default_rng(0)
        for parameter in params:
            parameter.grad = rng.standard_normal(parameter.shape)
        expected = np.sqrt(sum((p.grad**2).sum() for p in params))
        shared_grad = gwn.adaptive.source.grad.copy()
        norm = clip_grad_norm(params, max_norm=1.0)
        np.testing.assert_allclose(norm, expected, rtol=1e-12)
        np.testing.assert_allclose(gwn.adaptive.source.grad, shared_grad / expected, rtol=1e-12)

    def test_optimizer_rejects_duplicate_parameter(self):
        w = nn.Parameter(np.zeros(2), name="w")
        with pytest.raises(ValueError, match="'w'.*twice"):
            Adam([w, nn.Parameter(np.zeros(1)), w])


class TestSchedulers:
    def _opt(self):
        return SGD([nn.Parameter(np.zeros(1))], lr=1.0)

    def test_constant(self):
        sched = ConstantLR(self._opt())
        assert sched.step() == 1.0

    def test_step_lr(self):
        opt = self._opt()
        sched = StepLR(opt, step_size=2, gamma=0.5)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.5, 0.5, 0.25])

    def test_step_lr_validation(self):
        with pytest.raises(ValueError):
            StepLR(self._opt(), step_size=0)

    def test_cosine_endpoints(self):
        opt = self._opt()
        sched = CosineAnnealingLR(opt, total_epochs=10, min_lr=0.1)
        for _ in range(10):
            last = sched.step()
        np.testing.assert_allclose(last, 0.1, atol=1e-9)

    def test_cosine_monotone_decreasing(self):
        sched = CosineAnnealingLR(self._opt(), total_epochs=20)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestEarlyStopping:
    def test_patience_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=3)
        assert not stopper.update(1.0, 0)
        assert not stopper.update(1.1, 1)
        assert not stopper.update(1.2, 2)
        assert stopper.update(1.3, 3)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, 0)
        stopper.update(1.1, 1)
        stopper.update(0.5, 2)  # improvement
        assert stopper.best == 0.5 and stopper.best_epoch == 2
        assert not stopper.update(0.6, 3)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.update(1.0, 0)
        assert stopper.update(0.95, 1)  # improvement below min_delta ignored

    def test_improved_flag(self):
        stopper = EarlyStopping(patience=5)
        stopper.update(1.0, 0)
        assert stopper.improved_last_update
        stopper.update(2.0, 1)
        assert not stopper.improved_last_update
