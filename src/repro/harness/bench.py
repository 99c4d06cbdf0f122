"""``python -m repro.harness bench`` — the perf trajectory harness.

One run times a fixed suite and writes ``<out>/BENCH_<date>.json`` (schema
3).  Its ``rows`` are keyed ``layer/name/shape/executor``:

* ``op/<name>/32x18x12x24/tape`` — autodiff op microbenchmarks (forward +
  backward), with the engine's gradient-buffer allocations counted by the
  ``grad_alloc`` interceptor of :func:`repro.tensor.set_hooks`;
* ``train/st-wa-epoch/B<batch>/serial`` — one ST-WA smoke training pass
  instrumented by :mod:`repro.obs` (the ``profile`` shape);
* ``train/st-wa-step/B<batch>/{serial,compiled}`` — one ST-WA train step,
  interpreted vs trace-once/replay-many (:mod:`repro.compile`), at the
  online batch of 1 and at the training batch; compiled rows carry their
  plan's instruction, fusion and buffer stats;
* ``optim/{adam_step,clip_grad_norm}/P<elements>/arena`` — the optimizer
  layer over ST-WA's parameters;
* ``train/simst-step/N10000-B4/{serial,sharded2}`` — one graph-free SimST
  step at city scale, in process vs over two sensor shards
  (:class:`repro.exec.ShardedExecutor`).

Every row holds its best-of-N ``seconds`` and its counters.  ``deltas``
gives ``(new - old) / old`` seconds for every row the most recent other
``BENCH_*.json`` in the output directory also holds.  ``gates`` gives each
gate its ``measured`` value, ``threshold``, whether it is ``enforced`` and
whether it ``passed``:

* ``st-wa-epoch-wall`` — the epoch row at most ``MAX_REGRESSION`` slower
  than in the previous file (enforced when there is one);
* ``compiled-online-speedup`` — serial / compiled step seconds at batch 1,
  at least ``COMPILED_SPEEDUP``;
* ``simst-sharded-speedup`` — serial / sharded city-step seconds, at least
  ``SHARDED_SPEEDUP``, enforced on hosts with two or more cores.

``--check`` turns a failed enforced gate into a nonzero exit for CI.
Correctness (gradchecks, executor equivalence, the planner's envelopes)
is asserted by the tier-1 tests, not here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..parallel.engine import available_cores
from ..tensor import Tensor, ops, set_hooks
from .reporting import PathLike, TableResult, fmt
from .runner import RunSettings

#: allowed relative slowdown of the ST-WA epoch against the previous file
MAX_REGRESSION = 0.25
#: required serial / compiled ST-WA step ratio at batch 1
COMPILED_SPEEDUP = 2.0
#: required serial / sharded SimST step ratio at city scale (>= 2 cores)
SHARDED_SPEEDUP = 1.1

HISTORY = 12
HORIZON = 12
CITY_SENSORS = 10_000
CITY_BATCH = 4
CITY_STEP = f"train/simst-step/N{CITY_SENSORS}-B{CITY_BATCH}"

#: repeats per microbenchmark, keyed by scope
_REPEATS = {"smoke": 5, "quick": 15, "standard": 40}
_OP_SHAPE = "32x18x12x24"


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


def _best(steps: Sequence[Callable[[], object]], repeats: int) -> List[float]:
    """Best-of-``repeats`` wall seconds of each step, timed in alternation."""
    best = [float("inf")] * len(steps)
    for _ in range(repeats):
        for index, step in enumerate(steps):
            start = time.perf_counter()
            step()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _op_rows(repeats: int) -> Dict[str, Dict[str, object]]:
    """Best-of-``repeats`` forward+backward per op, plus grad-alloc counts."""
    rows = {}
    for name, build in _microbenchmarks(np.random.default_rng(0)):
        build().backward()  # warm caches outside the timed region
        seconds = _best([lambda: build().backward()], repeats)[0]
        allocs = {"count": 0, "bytes": 0}

        def count(nbytes: int) -> None:
            allocs["count"] += 1
            allocs["bytes"] += nbytes

        restore = set_hooks(grad_alloc=count)
        try:
            build().backward()
        finally:
            set_hooks(**restore)
        rows[f"op/{name}/{_OP_SHAPE}/tape"] = {
            "seconds": seconds,
            "repeats": repeats,
            "grad_allocs": allocs["count"],
            "grad_alloc_bytes": allocs["bytes"],
        }
    return rows


def _epoch_key(settings: RunSettings) -> str:
    return f"train/st-wa-epoch/B{settings.batch_size}/serial"


def _epoch_row(settings: RunSettings, repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """Best-of-``repeats`` instrumented ST-WA smoke training pass."""
    from . import profile as profile_mod

    summaries = [
        profile_mod.run(model_name="st-wa", settings=settings, out_dir=None).extras["summary"]
        for _ in range(repeats)
    ]
    best = min(summaries, key=lambda summary: summary["wall_seconds"])
    counters = ("total_op_seconds", "total_op_calls", "peak_bytes", "grad_allocs", "grad_alloc_bytes")
    return {
        _epoch_key(settings): {
            "seconds": best["wall_seconds"],
            "repeats": repeats,
            **{name: best[name] for name in counters},
        }
    }


def _step_rows(settings: RunSettings, warm_steps: int = 6) -> Dict[str, Dict[str, object]]:
    """One ST-WA train step, interpreted serial vs compiled replay.

    Both models first take ``warm_steps`` optimizer steps at the training
    batch in the trainer's loop shape (step, clip, ``Adam``), so the timed
    steps see trained weights and optimizer-held gradients.  Then come
    alternating best-of-N timings on the uninstrumented path at the online
    shape (one window per step, the trace-replay target serving hits) and
    at the training batch, where the step is BLAS-bound and the dispatch
    win shrinks — see DESIGN.md "Compiled execution".
    """
    from ..baselines import BuildSpec, build_from_spec
    from ..compile import CompiledExecutor
    from ..data import WindowSpec
    from ..data.windows import BatchIterator, SlidingWindowDataset
    from ..exec import ExecutorSpec, make_executor
    from ..optim import Adam, clip_grad_norm
    from .runner import get_dataset

    dataset = get_dataset("PEMS08", settings.profile)
    windows = SlidingWindowDataset(dataset.train, WindowSpec(HISTORY, HORIZON), raw=dataset.train_raw)

    def batches(batch_size: int, count: int):
        iterator = BatchIterator(
            windows,
            batch_size=batch_size,
            shuffle=False,
            rng=np.random.default_rng(settings.seed),
            max_batches=count,
        )
        return [(x, dataset.scaler.transform(y)) for x, y in iterator]

    spec = BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    models = [build_from_spec("st-wa", spec) for _ in range(2)]
    optimizers = [Adam(model.parameters(), lr=settings.lr) for model in models]
    repeats = {"smoke": 25, "quick": 40, "standard": 60}.get(settings.scope, 25)
    rows = {}
    with make_executor(
        models[0], ExecutorSpec.serial(), huber_delta=1.0, kl_weight=0.02
    ) as serial, CompiledExecutor(models[1], huber_delta=1.0, kl_weight=0.02) as compiled:
        for batch in batches(settings.batch_size, warm_steps):
            for executor, model, optimizer in zip((serial, compiled), models, optimizers):
                executor.train_step(None, batch)
                clip_grad_norm(model.parameters(), 5.0)
                optimizer.step()
        for batch_size, count in ((1, repeats), (settings.batch_size, max(repeats // 3, 5))):
            ((x, y),) = batches(batch_size, 1)
            steps = [lambda: serial.train_step(None, (x, y)), lambda: compiled.train_step(None, (x, y))]
            for step in steps:  # warm; the compiled step traces its plan here
                step()
            serial_s, compiled_s = _best(steps, count)
            key = f"train/st-wa-step/B{batch_size}"
            rows[f"{key}/serial"] = {"seconds": serial_s, "repeats": count}
            rows[f"{key}/compiled"] = {
                "seconds": compiled_s,
                "repeats": count,
                "fallback_steps": compiled.stats["fallback_steps"],
                # the plan this shape just replayed (live plans are LRU-ordered)
                "plan": dict(compiled.train_plans.live_plans()[-1].stats),
            }
    return rows


def _optim_rows(settings: RunSettings, repeats: int) -> Dict[str, Dict[str, object]]:
    """Best-of-``repeats`` ``Adam.step`` and ``clip_grad_norm`` over ST-WA's parameters.

    Gradients are seeded once (norm ~340); each clip call starts from the
    same gradients (restored by a third step whose time is dropped), so
    every timed call rescales to the max norm of 1.
    """
    from ..baselines import BuildSpec, build_from_spec
    from ..optim import Adam, clip_grad_norm
    from .runner import get_dataset

    dataset = get_dataset("PEMS08", settings.profile)
    model = build_from_spec(
        "st-wa", BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=settings.seed)
    )
    parameters = model.parameters()
    rng = np.random.default_rng(settings.seed)
    grads = [rng.standard_normal(parameter.shape) for parameter in parameters]
    for parameter, grad in zip(parameters, grads):
        parameter.grad = grad.copy()
    optimizer = Adam(parameters, lr=settings.lr)
    optimizer.step()  # warm the arena outside the timed region

    def restore() -> None:
        for parameter, grad in zip(parameters, grads):
            np.copyto(parameter.grad, grad)

    step_best, clip_best, _ = _best(
        [optimizer.step, lambda: clip_grad_norm(parameters, 1.0), restore], repeats
    )
    shape = f"P{sum(parameter.size for parameter in parameters)}"
    counters = {"repeats": repeats, "parameters": len(parameters)}
    return {
        f"optim/adam_step/{shape}/arena": {"seconds": step_best, **counters},
        f"optim/clip_grad_norm/{shape}/arena": {"seconds": clip_best, **counters},
    }


def _build_city_model(num_sensors: int, seed: int):
    """SimST at city scale: synthetic ring neighbors, no dense adjacency."""
    from ..core import SimSTForecaster

    k = 8
    idx = (np.arange(num_sensors)[:, None] + np.arange(1, k + 1)[None, :]) % num_sensors
    wt = np.full((num_sensors, k), 1.0 / k)
    return SimSTForecaster(
        num_sensors,
        history=HISTORY,
        horizon=HORIZON,
        hidden=64,
        embedding_dim=16,
        predictor_hidden=128,
        neighbors=(idx.astype(np.int64), wt),
        seed=seed,
    )


def _city_planner(batch: int):
    """The capacity planner at the city model's dimensions, in float64 bytes."""
    from ..training.memory import CapacityPlanner, ModelDims

    return CapacityPlanner(
        dims=ModelDims(batch=batch, history=HISTORY, horizon=HORIZON, hidden=64, proxies=8),
        bytes_per_element=8,  # this substrate trains in float64
    )


def _city_rows(settings: RunSettings, repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """One SimST train step at city scale: in process vs two sensor shards.

    At city N the per-step compute dwarfs the arena transport, which is
    where sensor sharding wins.  The untimed first step starts the pool.
    """
    from ..exec import ExecutorSpec, make_executor

    rng = np.random.default_rng(settings.seed)
    x = rng.standard_normal((CITY_BATCH, CITY_SENSORS, HISTORY, 1))
    y = rng.standard_normal((CITY_BATCH, CITY_SENSORS, HORIZON, 1))
    rows = {}
    for kind, spec in (("serial", ExecutorSpec.serial()), ("sharded2", ExecutorSpec.sharded(n_workers=2))):
        with make_executor(_build_city_model(CITY_SENSORS, settings.seed), spec) as executor:
            step = lambda: executor.train_step(None, (x, y))  # noqa: E731
            step()
            rows[f"{CITY_STEP}/{kind}"] = {"seconds": _best([step], repeats)[0], "repeats": repeats}
    return rows


def _measure(settings: RunSettings) -> Dict[str, Dict[str, object]]:
    """Every row of one bench run."""
    repeats = _REPEATS.get(settings.scope, 5)
    return {
        **_op_rows(repeats),
        **_epoch_row(settings),
        **_step_rows(settings),
        **_optim_rows(settings, repeats=max(repeats, 20)),
        **_city_rows(settings),
    }


def _find_previous(out_dir: Path, current_name: str) -> Optional[Path]:
    """Most recent ``BENCH_*.json`` in ``out_dir`` other than ``current_name``."""
    candidates = sorted(p for p in out_dir.glob("BENCH_*.json") if p.name != current_name)
    return candidates[-1] if candidates else None


def _deltas(rows: Dict[str, Dict], old_rows: Dict[str, Dict]) -> Dict[str, float]:
    """``(new - old) / old`` seconds of every row both runs hold."""
    deltas = {}
    for key, row in rows.items():
        old = old_rows.get(key, {}).get("seconds")
        if isinstance(old, (int, float)) and old > 0:
            deltas[key] = (row["seconds"] - old) / old
    return deltas


def _gate(measured: Optional[float], threshold: float, enforced: bool, at_most: bool = False) -> Dict:
    passed = None
    if measured is not None:
        passed = bool(measured <= threshold if at_most else measured >= threshold)
    return {
        "measured": measured,
        "threshold": threshold,
        "enforced": bool(enforced and measured is not None),
        "passed": passed,
    }


def _gates(rows: Dict[str, Dict], deltas: Dict[str, float], settings: RunSettings) -> Dict[str, Dict]:
    def speedup(key: str, executor: str) -> float:
        return rows[f"{key}/serial"]["seconds"] / rows[f"{key}/{executor}"]["seconds"]

    return {
        "st-wa-epoch-wall": _gate(
            deltas.get(_epoch_key(settings)), MAX_REGRESSION, enforced=True, at_most=True
        ),
        "compiled-online-speedup": _gate(
            speedup("train/st-wa-step/B1", "compiled"), COMPILED_SPEEDUP, enforced=True
        ),
        "simst-sharded-speedup": _gate(
            speedup(CITY_STEP, "sharded2"), SHARDED_SPEEDUP, enforced=available_cores() >= 2
        ),
    }


def run(
    settings: Optional[RunSettings] = None,
    out_dir: Optional[PathLike] = "results",
    date: Optional[str] = None,
    check: bool = False,
) -> TableResult:
    """Run the bench suite; write ``BENCH_<date>.json``; diff vs the previous.

    With ``check=True`` the result's ``extras["regressed"]`` flags a failed
    enforced gate (the CLI turns that flag into a nonzero exit code).
    """
    settings = settings or RunSettings.from_scope("smoke")
    date = date or time.strftime("%Y-%m-%d")
    rows = _measure(settings)

    previous_name = None
    deltas: Dict[str, float] = {}
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        bench_name = f"BENCH_{date}.json"
        previous = _find_previous(out_path, bench_name)
        if previous is not None:
            previous_name = previous.name
            deltas = _deltas(rows, json.loads(previous.read_text()).get("rows", {}))
    gates = _gates(rows, deltas, settings)
    payload: Dict[str, object] = {
        "schema": 3,
        "date": date,
        "scope": settings.scope,
        "previous": previous_name,
        "rows": rows,
        "deltas": deltas,
        "gates": gates,
    }
    if out_dir is not None:
        (out_path / bench_name).write_text(json.dumps(payload, indent=2) + "\n")

    failed = [name for name, gate in gates.items() if gate["enforced"] and not gate["passed"]]
    table_rows = []
    for key, row in rows.items():
        delta = deltas.get(key)
        counters = ", ".join(
            f"{name}={value}" for name, value in row.items()
            if name != "seconds" and not isinstance(value, (dict, float))
        )
        table_rows.append(
            [key, fmt(row["seconds"], 5), f"{delta:+.1%}" if delta is not None else "-", counters]
        )
    notes = [
        f"gate {name}: measured {'-' if gate['measured'] is None else fmt(gate['measured'], 3)}"
        f" vs {gate['threshold']}"
        f" ({'enforced' if gate['enforced'] else 'not enforced'}):"
        f" {({True: 'ok', False: 'FAILED', None: '-'})[gate['passed']]}"
        for name, gate in gates.items()
    ]
    if previous_name is not None:
        notes.append(f"deltas vs {previous_name} (negative is faster)")
    else:
        notes.append("no previous BENCH_*.json found; this run is the new baseline")
    if check:
        notes.append(f"check: {'FAILED ' + ', '.join(failed) if failed else 'ok'}")

    return TableResult(
        experiment_id=f"BENCH_{date}",
        title=f"Benchmark trajectory (scope={settings.scope}, {date})",
        headers=["Row", "Seconds", "Delta vs prev", "Counters"],
        rows=table_rows,
        notes=notes,
        extras={"payload": payload, "regressed": check and bool(failed)},
    )
