"""``python -m repro.harness bench`` — the perf trajectory harness.

Runs a fixed suite — autodiff op microbenchmarks, one instrumented ST-WA
smoke epoch, the interpreted-vs-compiled executor comparison
(:mod:`repro.compile`), and the optimizer layer (``Adam.step`` and
``clip_grad_norm`` over ST-WA's parameters) — and writes
``BENCH_<date>.json`` with wall times, engine-side gradient-allocation
counts (the ``grad_alloc`` interceptor of
:func:`repro.tensor.set_hooks`), and per-benchmark / per-op deltas
against the most recent previous ``BENCH_*.json`` in the output directory.
The same payload is mirrored to a root-level ``BENCH_latest.json`` — a
moving pointer to the newest snapshot that tooling can read without
globbing for dates (never used as a diff baseline).
Committing the JSON gives every future PR a perf baseline to diff against;
``--check`` turns a >``--max-regression`` slowdown of the ST-WA smoke epoch
— or a failed compiled-backend gate (equivalence within 1e-9 rtol over the
optimizer-step trajectory, >=2x online-step speedup) — into a nonzero exit
for CI.  The compiled plan/fusion/fallback breakdown additionally lands in
``<out>/compile_profile.json`` for CI artifact upload.

The suite gradient-checks every optimized fast path
(:func:`repro.tensor.gradcheck.check_fastpath_suite`) before timing
anything, so a bench run is also a cheap correctness gate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops, set_hooks
from ..tensor.gradcheck import check_fastpath_suite
from .reporting import PathLike, TableResult, fmt
from .runner import RunSettings

#: repeats per microbenchmark, keyed by scope
_REPEATS = {"smoke": 5, "quick": 15, "standard": 40}

#: root-level pointer to the newest snapshot, refreshed by every bench run
LATEST_NAME = "BENCH_latest.json"


def _microbenchmarks(rng: np.random.Generator) -> List[Tuple[str, Callable[[], Tensor]]]:
    """The fixed op suite: each entry builds a fresh graph and returns the loss.

    Shapes mirror the reproduction's hot paths: ``(batch, sensors, time/
    features)`` batches against shared 2-D weights, window slicing, per-node
    gathers, and gate concatenation.
    """
    x_data = rng.standard_normal((32, 18, 12, 24))
    w_data = rng.standard_normal((24, 24))
    b_data = rng.standard_normal(24)
    gen_w_data = rng.standard_normal((18, 24, 24))
    gather_idx = rng.integers(0, 12, size=(32, 18, 4, 24))
    fancy_idx = rng.integers(0, 32, size=64)

    def tensors():
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        return x, w, b

    def matmul_shared():
        x, w, _ = tensors()
        return ops.matmul(x, w).sum()

    def linear_fused():
        x, w, b = tensors()
        return ops.linear(x, w, b).sum()

    def matmul_generated():
        x, _, _ = tensors()
        w = Tensor(gen_w_data, requires_grad=True)
        return ops.matmul(x, w).sum()

    def getitem_window_slices():
        x, _, _ = tensors()
        total = None
        for start in range(0, 12, 3):
            piece = x[:, :, start : start + 3, :].sum()
            total = piece if total is None else total + piece
        return total

    def getitem_advanced():
        x, _, _ = tensors()
        return x[np.asarray(fancy_idx)].sum()

    def gather_per_node():
        x, _, _ = tensors()
        return ops.gather(x, 2, gather_idx).sum()

    def concat_gates():
        x, w, b = tensors()
        left = ops.linear(x, w, b)
        right = ops.tanh(x)
        return ops.concat([left, right], axis=-1).sum()

    def elementwise_chain():
        x, _, _ = tensors()
        return ops.tanh(ops.sigmoid(x * 2.0) + x * x).sum()

    return [
        ("matmul_shared_weight", matmul_shared),
        ("linear_fused", linear_fused),
        ("matmul_generated_weight", matmul_generated),
        ("getitem_window_slices", getitem_window_slices),
        ("getitem_advanced_index", getitem_advanced),
        ("gather_per_node", gather_per_node),
        ("concat_gates", concat_gates),
        ("elementwise_chain", elementwise_chain),
    ]


def _time_case(build: Callable[[], Tensor], repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` forward+backward wall time plus grad-alloc counts."""
    build().backward()  # warm caches outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        build().backward()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    allocs = {"count": 0, "bytes": 0}

    def count(nbytes: int) -> None:
        allocs["count"] += 1
        allocs["bytes"] += nbytes

    restore = set_hooks(grad_alloc=count)
    try:
        build().backward()
    finally:
        set_hooks(**restore)
    return {
        "seconds": best,
        "repeats": repeats,
        "grad_allocs": allocs["count"],
        "grad_alloc_bytes": allocs["bytes"],
    }


def _st_wa_smoke(settings: RunSettings) -> Dict[str, object]:
    """One instrumented ST-WA smoke training pass (same shape as ``profile``)."""
    from . import profile as profile_mod

    result = profile_mod.run(model_name="st-wa", settings=settings, out_dir=None)
    summary = result.extras["summary"]
    return {
        "wall_seconds": summary["wall_seconds"],
        "total_op_seconds": summary["total_op_seconds"],
        "total_op_calls": summary["total_op_calls"],
        "peak_bytes": summary["peak_bytes"],
        "grad_allocs": summary["grad_allocs"],
        "grad_alloc_bytes": summary["grad_alloc_bytes"],
        "ops": {
            f"{stat['name']}.{stat['phase']}": stat["seconds"] for stat in summary["ops"]
        },
    }


def _optim_bench(settings: RunSettings, repeats: int) -> Dict[str, object]:
    """Best-of-``repeats`` ``Adam.step`` and ``clip_grad_norm`` over ST-WA's parameters.

    Gradients are seeded once (norm ~340); each clip call starts from the
    same gradients (restored outside the timed region), so every timed
    call rescales to the max norm of 1.
    """
    from ..baselines import BuildSpec, build_from_spec
    from ..optim import Adam, clip_grad_norm
    from .runner import get_dataset

    dataset = get_dataset("PEMS08", settings.profile)
    model = build_from_spec(
        "st-wa", BuildSpec(dataset=dataset, history=12, horizon=12, seed=settings.seed)
    )
    parameters = model.parameters()
    rng = np.random.default_rng(settings.seed)
    grads = [rng.standard_normal(parameter.shape) for parameter in parameters]
    for parameter, grad in zip(parameters, grads):
        parameter.grad = grad.copy()
    optimizer = Adam(parameters, lr=settings.lr)
    optimizer.step()  # warm the arena outside the timed region
    step_best = clip_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        optimizer.step()
        step_best = min(step_best, time.perf_counter() - start)
        start = time.perf_counter()
        clip_grad_norm(parameters, 1.0)
        clip_best = min(clip_best, time.perf_counter() - start)
        for parameter, grad in zip(parameters, grads):
            np.copyto(parameter.grad, grad)
    return {
        "model": "st-wa",
        "parameters": len(parameters),
        "elements": int(sum(parameter.size for parameter in parameters)),
        "repeats": repeats,
        "seconds": {"adam_step": step_best, "clip_grad_norm": clip_best},
    }


def _compiled_bench(
    settings: RunSettings,
    equivalence_steps: int = 6,
    rtol: float = 1e-9,
    speedup_target: float = 2.0,
) -> Dict[str, object]:
    """Interpreted-vs-compiled comparison on the ST-WA smoke configuration.

    Two phases, both on the uninstrumented interpreted path (no op-trace
    hook — the honest baseline, not the profiled one):

    * **equivalence** — two identically seeded models take
      ``equivalence_steps`` optimizer steps (Adam + grad clipping, the
      trainer's loop shape), one through :class:`repro.exec.SerialExecutor`
      and one through :class:`repro.compile.CompiledExecutor`; per-step loss
      and per-parameter gradients must agree within ``rtol``.
    * **per-step wall** — alternating best-of-N timings at the online
      shape (one window per step, the trace-replay target that serving
      hits) and at the full training batch.  The ``speedup_target`` gate is
      enforced on the online step; the training-batch delta is reported
      alongside because at large batches the step is BLAS-bound and the
      dispatch win shrinks — see DESIGN.md "Compiled execution".
    """
    from ..baselines import BuildSpec, build_from_spec
    from ..compile import CompiledExecutor
    from ..data import WindowSpec
    from ..data.windows import BatchIterator, SlidingWindowDataset
    from ..exec import ExecutorSpec, make_executor
    from ..optim import Adam, clip_grad_norm
    from .runner import get_dataset

    dataset = get_dataset("PEMS08", settings.profile)
    windows = SlidingWindowDataset(
        dataset.train, WindowSpec(12, 12), raw=dataset.train_raw
    )

    def build_model():
        return build_from_spec(
            "st-wa", BuildSpec(dataset=dataset, history=12, horizon=12, seed=settings.seed)
        )

    def batches(batch_size: int, count: int):
        iterator = BatchIterator(
            windows,
            batch_size=batch_size,
            shuffle=False,
            rng=np.random.default_rng(settings.seed),
            max_batches=count,
        )
        return [(x, dataset.scaler.transform(y)) for x, y in iterator]

    # --- phase 1: trajectory equivalence under the trainer's loop shape --- #
    serial_model, compiled_model = build_model(), build_model()
    serial_exec = make_executor(
        serial_model, ExecutorSpec.serial(), huber_delta=1.0, kl_weight=0.02
    ).open()
    compiled_exec = CompiledExecutor(
        compiled_model, huber_delta=1.0, kl_weight=0.02
    ).open()
    serial_opt = Adam(serial_model.parameters(), lr=settings.lr)
    compiled_opt = Adam(compiled_model.parameters(), lr=settings.lr)
    worst_loss_rel = worst_grad_rel = 0.0
    equivalence_ok = True
    try:
        for x, y in batches(settings.batch_size, equivalence_steps):
            serial_result = serial_exec.train_step(None, (x, y))
            compiled_result = compiled_exec.train_step(None, (x, y))
            denom = max(abs(serial_result.loss), 1e-30)
            worst_loss_rel = max(
                worst_loss_rel, abs(serial_result.loss - compiled_result.loss) / denom
            )
            equivalence_ok &= bool(
                np.isclose(serial_result.loss, compiled_result.loss, rtol=rtol, atol=1e-12)
            )
            for p_serial, p_compiled in zip(
                serial_model.parameters(), compiled_model.parameters()
            ):
                # gate with rtol + a tiny atol floor (pure relative error is
                # ill-conditioned on near-zero gradient elements); the worst
                # observed relative error stays in the report as a diagnostic
                equivalence_ok &= bool(
                    np.allclose(p_serial.grad, p_compiled.grad, rtol=rtol, atol=1e-12)
                )
                scale = np.maximum(np.abs(p_serial.grad), 1e-30)
                worst_grad_rel = max(
                    worst_grad_rel,
                    float(np.max(np.abs(p_serial.grad - p_compiled.grad) / scale)),
                )
            clip_grad_norm(serial_model.parameters(), 5.0)
            clip_grad_norm(compiled_model.parameters(), 5.0)
            serial_opt.step()
            compiled_opt.step()

        # --- phase 2: per-step wall, interpreted vs compiled replay ------- #
        timing_repeats = {"smoke": 25, "quick": 40, "standard": 60}.get(settings.scope, 25)
        steps: Dict[str, Dict[str, float]] = {}
        for label, batch_size, repeats in (
            ("online", 1, timing_repeats),
            ("train", settings.batch_size, max(timing_repeats // 3, 5)),
        ):
            (x, y), = batches(batch_size, 1)
            compiled_exec.train_step(None, (x, y))  # trace outside the timed region
            serial_best = compiled_best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                serial_exec.train_step(None, (x, y))
                serial_best = min(serial_best, time.perf_counter() - start)
                start = time.perf_counter()
                compiled_exec.train_step(None, (x, y))
                compiled_best = min(compiled_best, time.perf_counter() - start)
            steps[label] = {
                "batch_size": batch_size,
                "serial_step_seconds": serial_best,
                "compiled_step_seconds": compiled_best,
                "speedup": serial_best / compiled_best,
            }
        stats = dict(compiled_exec.stats)
        stats["train_plan_cache"] = compiled_exec.train_plans.stats
        plans = [plan.stats for plan in compiled_exec.train_plans.live_plans()]
    finally:
        serial_exec.close()
        compiled_exec.close()

    speedup = steps["online"]["speedup"]
    return {
        "dataset": "PEMS08",
        "model": "st-wa",
        "equivalence": {
            "steps": equivalence_steps,
            "rtol": rtol,
            "worst_loss_rel": worst_loss_rel,
            "worst_grad_rel": worst_grad_rel,
            "ok": equivalence_ok,
        },
        "steps": steps,
        "speedup": speedup,
        "speedup_target": speedup_target,
        "speedup_ok": speedup >= speedup_target,
        "ok": equivalence_ok and speedup >= speedup_target,
        "executor_stats": stats,
        "plans": plans,
    }


def _find_previous(out_dir: Path, current_name: str) -> Optional[Path]:
    """Most recent dated ``BENCH_*.json`` in ``out_dir`` other than ``current_name``.

    ``BENCH_latest.json`` is excluded: it is a moving pointer to the newest
    snapshot, not a baseline (and sorts after every date), so diffing
    against it would compare a run with itself.
    """
    candidates = sorted(
        p
        for p in out_dir.glob("BENCH_*.json")
        if p.name != current_name and p.name != LATEST_NAME
    )
    return candidates[-1] if candidates else None


def _relative_deltas(new: Dict[str, float], old: Dict[str, float]) -> Dict[str, float]:
    """``(new - old) / old`` for every key present in both (old > 0)."""
    deltas = {}
    for key, new_value in new.items():
        old_value = old.get(key)
        if isinstance(old_value, (int, float)) and old_value > 0 and isinstance(new_value, (int, float)):
            deltas[key] = (new_value - old_value) / old_value
    return deltas


def run(
    settings: Optional[RunSettings] = None,
    out_dir: Optional[PathLike] = "results",
    date: Optional[str] = None,
    check: bool = False,
    max_regression: float = 0.25,
) -> TableResult:
    """Run the bench suite; write ``BENCH_<date>.json``; diff vs the previous.

    With ``check=True`` the result's ``extras["regressed"]`` flags an ST-WA
    smoke epoch more than ``max_regression`` slower than the previous BENCH
    file (the CLI turns that flag into a nonzero exit code).
    """
    settings = settings or RunSettings.from_scope("smoke")
    date = date or time.strftime("%Y-%m-%d")
    gradcheck_cases = check_fastpath_suite()

    rng = np.random.default_rng(0)
    repeats = _REPEATS.get(settings.scope, 5)
    micro: Dict[str, Dict[str, float]] = {}
    for name, build in _microbenchmarks(rng):
        micro[name] = _time_case(build, repeats)

    st_wa = _st_wa_smoke(settings)
    compiled = _compiled_bench(settings)
    optim = _optim_bench(settings, repeats=max(repeats, 20))

    payload: Dict[str, object] = {
        "schema": 2,
        "date": date,
        "scope": settings.scope,
        "gradcheck_cases": gradcheck_cases,
        "micro": micro,
        "st_wa_smoke": st_wa,
        "compiled": compiled,
        "optim": optim,
    }

    previous_name = None
    deltas: Dict[str, object] = {}
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        bench_name = f"BENCH_{date}.json"
        previous = _find_previous(out_path, bench_name)
        if previous is not None:
            previous_name = previous.name
            old = json.loads(previous.read_text())
            deltas = {
                "micro_seconds": _relative_deltas(
                    {k: v["seconds"] for k, v in micro.items()},
                    {k: v.get("seconds") for k, v in old.get("micro", {}).items()},
                ),
                "st_wa_wall_seconds": _relative_deltas(
                    {"wall": st_wa["wall_seconds"]},
                    {"wall": old.get("st_wa_smoke", {}).get("wall_seconds")},
                ).get("wall"),
                "st_wa_ops": _relative_deltas(
                    st_wa["ops"], old.get("st_wa_smoke", {}).get("ops", {})
                ),
                "compiled_step_seconds": _relative_deltas(
                    {
                        label: stats["compiled_step_seconds"]
                        for label, stats in compiled["steps"].items()
                    },
                    {
                        label: stats.get("compiled_step_seconds")
                        for label, stats in old.get("compiled", {}).get("steps", {}).items()
                    },
                ),
                "optim_seconds": _relative_deltas(
                    optim["seconds"], old.get("optim", {}).get("seconds", {})
                ),
            }
        payload["previous"] = previous_name
        payload["deltas_vs_previous"] = deltas or None
        serialized = json.dumps(payload, indent=2) + "\n"
        (out_path / bench_name).write_text(serialized)
        # root-level moving pointer so tooling can read "the current perf
        # snapshot" without globbing for the newest date
        (out_path.parent / LATEST_NAME).write_text(serialized)
        # the compiled-backend profile artifact CI uploads: plan programs,
        # fusion stats, cache/fallback counters, per-step timings
        (out_path / "compile_profile.json").write_text(
            json.dumps({"date": date, "scope": settings.scope, "compiled": compiled}, indent=2)
            + "\n"
        )

    regressed = False
    wall_delta = deltas.get("st_wa_wall_seconds") if deltas else None
    if check and wall_delta is not None and wall_delta > max_regression:
        regressed = True
    # the compiled gates are absolute (equivalence rtol + speedup target),
    # so they bind even on a fresh checkout with no previous BENCH file
    if check and not compiled["ok"]:
        regressed = True

    headers = ["Benchmark", "Seconds", "Grad allocs", "Alloc MB", "Delta vs prev"]
    micro_deltas = deltas.get("micro_seconds", {}) if deltas else {}
    rows = []
    for name, stats in micro.items():
        delta = micro_deltas.get(name)
        rows.append(
            [
                name,
                fmt(stats["seconds"], 5),
                str(stats["grad_allocs"]),
                fmt(stats["grad_alloc_bytes"] / 1e6, 3),
                f"{delta:+.1%}" if delta is not None else "-",
            ]
        )
    rows.append(
        [
            "st_wa_smoke_epoch",
            fmt(st_wa["wall_seconds"], 4),
            str(st_wa["grad_allocs"]),
            fmt(st_wa["grad_alloc_bytes"] / 1e6, 2),
            f"{wall_delta:+.1%}" if wall_delta is not None else "-",
        ]
    )
    compiled_deltas = deltas.get("compiled_step_seconds", {}) if deltas else {}
    for label, step in compiled["steps"].items():
        delta = compiled_deltas.get(label)
        rows.append(
            [
                f"compiled_step_{label} (bs={step['batch_size']}, {step['speedup']:.2f}x)",
                fmt(step["compiled_step_seconds"], 5),
                "0",
                "0",
                f"{delta:+.1%}" if delta is not None else "-",
            ]
        )

    optim_deltas = deltas.get("optim_seconds", {}) if deltas else {}
    for name, seconds in optim["seconds"].items():
        delta = optim_deltas.get(name)
        rows.append(
            [
                f"optim_{name} ({optim['parameters']} params)",
                fmt(seconds, 5),
                "0",
                "0",
                f"{delta:+.1%}" if delta is not None else "-",
            ]
        )

    equivalence = compiled["equivalence"]
    notes = [
        f"{gradcheck_cases} fast-path gradchecks passed before timing",
        f"microbenchmarks best-of-{repeats}; ST-WA pass instrumented via repro.obs",
        (
            "compiled backend: "
            f"{compiled['speedup']:.2f}x online step vs interpreted serial "
            f"(target {compiled['speedup_target']:.1f}x, "
            f"{'ok' if compiled['speedup_ok'] else 'FAILED'}); "
            f"equivalence over {equivalence['steps']} optimizer steps "
            f"worst grad rel {equivalence['worst_grad_rel']:.1e} "
            f"(rtol {equivalence['rtol']:.0e}, "
            f"{'ok' if equivalence['ok'] else 'FAILED'})"
        ),
    ]
    if previous_name is not None:
        notes.append(f"deltas vs {previous_name} (negative is faster)")
    else:
        notes.append("no previous BENCH_*.json found; this run is the new baseline")
    if check:
        status = "FAILED" if regressed else "ok"
        notes.append(
            f"regression check ({max_regression:.0%} on ST-WA smoke wall + "
            f"compiled equivalence/speedup gates): {status}"
        )

    return TableResult(
        experiment_id=f"BENCH_{date}",
        title=f"Autodiff benchmark trajectory (scope={settings.scope}, {date})",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"payload": payload, "regressed": regressed},
    )
