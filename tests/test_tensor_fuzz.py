"""Property-based autodiff fuzzer: random op programs vs numerical gradients.

Each case composes 5-8 randomly drawn ops from the rule table
(:data:`repro.tensor.ops.RULES`) into a small program over 2-D/3-D
tensors, then asserts the analytic gradients of every leaf input against
central finite differences (:func:`repro.tensor.check_gradients`).

The compiled leg runs the same programs through compile capture and
:func:`repro.compile.lower_training_plan` (every leaf registered as a
parameter, every intermediate weighted into the loss), replays the plan's
forward and adjoint programs, and asserts loss and leaf gradients match
the interpreted tape to 1e-9.  Tape and plan interpret one rule table, so
this guards the two interpreters, not two copies of each formula.

The generator is fully deterministic (seeded per case) and *smoothness
aware*: ops with gradient kinks (``relu``, ``abs``, ``max`` ties, ``clip``
edges, ...) are only emitted when every element sits a safe margin away
from the kink, so a failure always means a broken backward rule, never
finite-difference noise.  A replayed program is a pure function of its
leaves, which is exactly what gradcheck's repeated perturbed evaluation
requires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import CaptureRecorder, LoweringError, lower_training_plan
from repro.tensor import Tensor, ops, set_hooks
from repro.tensor.gradcheck import check_gradients

CASES = 200
MIN_OPS, MAX_OPS = 5, 8
MARGIN = 1e-3  # distance every element must keep from a gradient kink
MAX_MAGNITUDE = 15.0  # squash with tanh beyond this to keep exp/power sane


# --------------------------------------------------------------------- #
# program interpreter: each step is (op_name, spec) where spec carries the
# frozen parameters (constants, masks, leaf indices) drawn at generation
# --------------------------------------------------------------------- #
def _apply(step, value: Tensor, leaves) -> Tensor:
    name, spec = step
    if name in ("add", "sub", "mul", "div", "maximum", "minimum", "matmul"):
        other = leaves[spec["leaf"]] if "leaf" in spec else spec["const"]
        operands = (other, value) if spec.get("flip") else (value, other)
        return getattr(ops, name)(*operands)
    if name == "linear":
        return ops.linear(value, leaves[spec["weight"]], leaves[spec["bias"]])
    if name == "where":
        return ops.where(spec["condition"], value, leaves[spec["leaf"]])
    if name == "dropout_mask":
        return ops.dropout_mask(value, spec["mask"])
    if name == "power":
        return ops.power(value, spec["exponent"])
    if name == "leaky_relu":
        return ops.leaky_relu(value, spec["slope"])
    if name == "clip":
        return ops.clip(value, spec["low"], spec["high"])
    if name in ("concat", "stack"):
        return getattr(ops, name)([value, leaves[spec["leaf"]]], axis=spec["axis"])
    if name == "gather":
        return ops.gather(value, spec["axis"], spec["index"])
    if name == "getitem":
        return ops.getitem(value, spec["index"])
    if name == "reshape":
        return ops.reshape(value, spec["shape"])
    if name == "swapaxes":
        return ops.swapaxes(value, spec["axis1"], spec["axis2"])
    if name == "transpose":
        return ops.transpose(value, spec["axes"])
    if name == "pad":
        return ops.pad(value, spec["pad_width"])
    if name in ("sum", "mean", "max"):
        return getattr(ops, name)(value, axis=spec["axis"], keepdims=True)
    if name in ("softmax", "log_softmax"):
        return getattr(ops, name)(value, axis=spec["axis"])
    # pure unary: neg, exp, log, sqrt, abs, tanh, sigmoid, relu, softplus
    return getattr(ops, name)(value)


def _replay(steps, leaf_tensors) -> Tensor:
    value = leaf_tensors[0]
    for step in steps:
        value = _apply(step, value, leaf_tensors)
    return value


def _value_of(steps, leaves) -> np.ndarray:
    tensors = [Tensor(leaf, requires_grad=False) for leaf in leaves]
    return _replay(steps, tensors).data


# --------------------------------------------------------------------- #
# generation: draw the next step given the current value
# --------------------------------------------------------------------- #
def _kink_margin_ok(value: np.ndarray, at: float = 0.0) -> bool:
    return bool(np.all(np.abs(value - at) > MARGIN))


def _reduce_margin_ok(value: np.ndarray, axis: int) -> bool:
    """True when arg-extrema are unique by MARGIN along ``axis`` (no ties)."""
    if value.shape[axis] < 2:
        return False
    ordered = np.sort(value, axis=axis)
    top_gap = np.take(ordered, -1, axis=axis) - np.take(ordered, -2, axis=axis)
    return bool(np.all(top_gap > MARGIN))


def _next_step(rng: np.random.Generator, value: np.ndarray, leaves):
    """Draw one applicable step; may append fresh leaves. None = resample."""
    shape = value.shape

    def fresh(leaf_shape, low=-1.0, high=1.0) -> int:
        leaves.append(rng.uniform(low, high, size=leaf_shape))
        return len(leaves) - 1

    if np.max(np.abs(value)) > MAX_MAGNITUDE:
        return ("tanh", {})

    name = rng.choice(
        [
            "add", "sub", "mul", "div", "neg", "power", "exp", "log", "sqrt",
            "abs", "maximum", "minimum", "clip", "where", "tanh", "sigmoid",
            "relu", "leaky_relu", "softplus", "matmul", "linear", "transpose",
            "swapaxes", "reshape", "getitem", "gather", "concat", "stack",
            "pad", "sum", "mean", "max", "softmax", "log_softmax",
            "dropout_mask",
        ]
    )

    if name in ("add", "sub", "mul"):
        # broadcast half the time: exercise gradient reduction over axes
        leaf_shape = shape
        if len(shape) >= 2 and rng.random() < 0.5:
            axis = int(rng.integers(len(shape)))
            leaf_shape = tuple(1 if d == axis else s for d, s in enumerate(shape))
        return (name, {"leaf": fresh(leaf_shape), "flip": bool(rng.random() < 0.5)})
    if name == "div":
        # denominator bounded away from 0 so central differences stay clean
        if rng.random() < 0.5:
            return (name, {"leaf": fresh(shape, 0.7, 1.5)})
        return (name, {"leaf": fresh(shape, -1.5, -0.7)})
    if name in ("maximum", "minimum"):
        const = np.float64(rng.uniform(-1.0, 1.0))
        if not _kink_margin_ok(value, float(const)):
            return None
        return (name, {"const": const, "flip": bool(rng.random() < 0.5)})
    if name == "neg":
        return (name, {})
    if name == "power":
        return (name, {"exponent": int(rng.choice([2, 3]))})
    if name == "exp":
        return (name, {}) if np.max(value) < 2.5 else None
    if name in ("log", "sqrt"):
        return (name, {}) if np.min(value) > 0.1 else None
    if name in ("abs", "relu", "leaky_relu"):
        if not _kink_margin_ok(value):
            return None
        return (name, {"slope": float(rng.uniform(0.01, 0.3))} if name == "leaky_relu" else {})
    if name == "clip":
        low, high = np.quantile(value, [0.25, 0.75])
        if not (_kink_margin_ok(value, float(low)) and _kink_margin_ok(value, float(high))):
            return None
        return (name, {"low": float(low), "high": float(high)})
    if name == "where":
        return (
            name,
            {"condition": rng.random(size=shape) < 0.5, "leaf": fresh(shape)},
        )
    if name in ("tanh", "sigmoid", "softplus"):
        return (name, {})
    if name == "matmul":
        if len(shape) != 2:
            return None
        k = int(rng.integers(2, 4))
        return (name, {"leaf": fresh((shape[1], k))})
    if name == "linear":
        if len(shape) != 2:
            return None
        k = int(rng.integers(2, 4))
        return (name, {"weight": fresh((shape[1], k)), "bias": fresh((k,))})
    if name == "transpose":
        # a random permutation, each axis negative half the time
        ndim = len(shape)
        axes = tuple(int(ax) - ndim * int(rng.random() < 0.5) for ax in rng.permutation(ndim))
        return (name, {"axes": axes})
    if name == "swapaxes":
        if len(shape) < 2:
            return None
        axes = rng.choice(len(shape), size=2, replace=False)
        return (name, {"axis1": int(axes[0]), "axis2": int(axes[1])})
    if name == "reshape":
        return (name, {"shape": (int(np.prod(shape)),)}) if len(shape) > 1 else None
    if name == "getitem":
        if shape[0] < 2:
            return None
        return (name, {"index": slice(0, int(rng.integers(1, shape[0])))})
    if name == "gather":
        # take_along_axis semantics: full-rank index, repeats allowed (they
        # exercise the duplicate-safe scatter path in backward)
        axis = int(rng.integers(len(shape)))
        index_shape = tuple(
            shape[axis] + 1 if d == axis else s for d, s in enumerate(shape)
        )
        index = rng.integers(0, shape[axis], size=index_shape)
        return (name, {"axis": axis, "index": index})
    if name in ("concat", "stack"):
        if len(shape) != 2:
            return None
        axis = int(rng.integers(2)) if name == "concat" else 0
        return (name, {"leaf": fresh(shape), "axis": axis})
    if name == "pad":
        width = [(int(rng.integers(2)), int(rng.integers(2))) for _ in shape]
        return (name, {"pad_width": width})
    if name in ("sum", "mean", "softmax", "log_softmax"):
        return (name, {"axis": int(rng.integers(len(shape)))})
    if name == "max":
        axis = int(rng.integers(len(shape)))
        return (name, {"axis": axis}) if _reduce_margin_ok(value, axis) else None
    if name == "dropout_mask":
        keep = 0.8
        mask = (rng.random(size=shape) < keep) / keep
        return (name, {"mask": mask})
    return None


def generate_program(seed: int):
    """A deterministic (steps, leaves) pair for one fuzz case."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    leaves = [rng.uniform(-1.0, 1.0, size=shape)]
    steps = []
    n_ops = int(rng.integers(MIN_OPS, MAX_OPS + 1))
    attempts = 0
    while len(steps) < n_ops and attempts < 200:
        attempts += 1
        value = _value_of(steps, leaves)
        before = len(leaves)
        step = _next_step(rng, value, leaves)
        if step is None:
            del leaves[before:]  # drop leaves a rejected candidate added
            continue
        steps.append(step)
    while len(steps) < MIN_OPS:  # tanh is always applicable
        steps.append(("tanh", {}))
    return steps, leaves


# --------------------------------------------------------------------- #
# the fuzz run
# --------------------------------------------------------------------- #
class TestAutodiffFuzz:
    @pytest.mark.parametrize("seed", range(CASES))
    def test_program_gradients_match_numerical(self, seed):
        steps, leaves = generate_program(seed)
        assert MIN_OPS <= len(steps) <= MAX_OPS
        tensors = [Tensor(leaf, requires_grad=True) for leaf in leaves]
        check_gradients(lambda *args: _replay(steps, args), tensors)

    def test_op_coverage_spans_registry(self):
        used = set()
        for seed in range(CASES):
            steps, _ = generate_program(seed)
            used.update(name for name, _ in steps)
        unknown = used - set(ops.RULES)
        assert not unknown, f"fuzzer emitted unregistered ops: {sorted(unknown)}"
        assert len(used) >= 20, (
            f"fuzzer only exercised {len(used)} distinct ops: {sorted(used)}"
        )

    @pytest.mark.parametrize("seed", range(CASES))
    def test_compiled_plan_matches_tape(self, seed):
        steps, leaves = generate_program(seed)
        tensors = [Tensor(leaf, requires_grad=True) for leaf in leaves]
        recorder = CaptureRecorder()
        recorder.register_params(tensors)
        restore = set_hooks(capture=recorder)
        try:
            # every intermediate feeds the loss too, so each node takes a
            # second gradient contribution (the plan's accumulate paths);
            # non-uniform weights keep permuted gradients visible
            weights = np.random.default_rng(seed)
            value, loss = tensors[0], None
            for step in steps:
                value = _apply(step, value, tensors)
                term = ops.sum(ops.mul(value, weights.uniform(0.5, 1.5, size=value.shape)))
                loss = term if loss is None else ops.add(loss, term)
            loss.backward()
        finally:
            set_hooks(**restore)
        if any(name == "where" for name, _ in steps):
            with pytest.raises(LoweringError, match="where"):
                lower_training_plan(recorder, loss)
            return
        tape_grads = [t.grad for t in tensors]
        plan = lower_training_plan(recorder, loss)
        value = plan.run_forward({})
        plan.run_adjoint()
        for t in tensors:
            t.grad = None
        plan.export_grads()
        np.testing.assert_allclose(value, loss.data, rtol=1e-9, atol=1e-12)
        for i, (t, expected) in enumerate(zip(tensors, tape_grads)):
            assert (t.grad is None) == (expected is None), f"leaf {i}"
            if expected is not None:
                np.testing.assert_allclose(
                    t.grad, expected, rtol=1e-9, atol=1e-12, err_msg=f"leaf {i}"
                )

    def test_generation_is_deterministic(self):
        a_steps, a_leaves = generate_program(42)
        b_steps, b_leaves = generate_program(42)
        assert repr(a_steps) == repr(b_steps)
        for left, right in zip(a_leaves, b_leaves):
            np.testing.assert_array_equal(left, right)
