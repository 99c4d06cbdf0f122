"""Training workloads: closed-loop ``Trainer.fit`` with one caller.

Each run sets up ``SETUP_REPS`` times (inputs, model, trainer, executor
open and warm-up steps, all inside ``fit``) and keeps the last set-up for
the timed phase, which runs whole epochs until ``--seconds`` have passed.
A ``batch_hook`` stamps every optimizer step; that is the only thing the
untraced run adds to the program.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.registry import BuildSpec, build_from_spec
from repro.core import SimSTForecaster
from repro.data import (
    StandardScaler,
    SyntheticTrafficConfig,
    TrafficDataset,
    TrafficSimulator,
    WindowSpec,
    chronological_split,
    load_dataset,
)
from repro.exec import ExecutorSpec
from repro.obs import ListSink
from repro.training import Trainer, TrainerConfig
from repro.training import checkpoint as checkpoint_module
from repro.training import trainer as trainer_module

import pb_checks
import pb_measure
import pb_trace

HISTORY = HORIZON = 12
SETUP_REPS = 3


@dataclass(frozen=True)
class TrainShape:
    model: str  # "st-wa" (simulated PEMS08, fast profile) or "simst" (city)
    executor: str  # serial | compiled | sharded
    batch: int
    steps_per_epoch: int  # TrainerConfig.max_batches_per_epoch
    eval_batches: int
    warmup_steps: int  # inside set-up: first-shape trace, spawn, allocations
    check_steps: int  # steps compared against the serial reference
    sensors: int = 0  # city network size for "simst"
    days: int = 0


SHAPES = {
    "train-online": TrainShape("st-wa", "compiled", batch=1, steps_per_epoch=200,
                               eval_batches=20, warmup_steps=5, check_steps=20),
    "train-simst-sharded": TrainShape("simst", "sharded", batch=16, steps_per_epoch=12,
                                      eval_batches=1, warmup_steps=3, check_steps=6,
                                      sensors=2000, days=4),
}


class _Stop(Exception):
    """Raised from the batch hook to end ``fit`` at a chosen step."""


def build_inputs(shape: TrainShape, seed: int):
    """The seeded dataset and a freshly initialized model."""
    if shape.model == "st-wa":
        dataset = load_dataset("PEMS08", "fast", seed_offset=seed)
        model = build_from_spec(
            "st-wa", BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, seed=seed)
        )
        return dataset, model
    simulator = TrafficSimulator(
        SyntheticTrafficConfig(num_sensors=shape.sensors, num_days=shape.days, seed=seed)
    )
    flows = simulator.generate()
    train_raw, val_raw, test_raw = chronological_split(flows)
    scaler = StandardScaler().fit(train_raw)
    dataset = TrafficDataset(
        name="CITY", profile="bench",
        train=scaler.transform(train_raw), val=scaler.transform(val_raw),
        test=scaler.transform(test_raw),
        train_raw=train_raw, val_raw=val_raw, test_raw=test_raw,
        scaler=scaler, network=simulator.network,
    )
    model = SimSTForecaster(
        shape.sensors, dataset.adjacency, history=HISTORY, horizon=HORIZON, seed=seed
    )
    return dataset, model


def executor_spec(kind: str) -> ExecutorSpec:
    if kind == "compiled":
        return ExecutorSpec.compiled()
    if kind == "sharded":
        return ExecutorSpec.sharded(n_workers=2)
    return ExecutorSpec.serial()


def make_trainer(shape, dataset, model, kind, hook, sink, seed) -> Trainer:
    config = TrainerConfig(
        epochs=10**9,
        batch_size=shape.batch,
        patience=10**9,
        max_batches_per_epoch=shape.steps_per_epoch,
        eval_batches=shape.eval_batches,
        seed=seed,
        sink=sink,
        batch_hook=hook,
        executor=executor_spec(kind),
    )
    return Trainer(model, dataset, WindowSpec(history=HISTORY, horizon=HORIZON), config)


class StepClock:
    """``batch_hook`` that stamps steps and ends ``fit`` on schedule.

    ``stop_after`` ends the run after that many steps (set-up repeats and
    the reference).  Otherwise the timed phase starts after the warm-up
    steps and ends at the first epoch boundary past ``seconds``; with a
    tracer, recording switches on at the first boundary past half-time.
    """

    def __init__(self, shape: TrainShape, seconds: float, *, stop_after: Optional[int] = None,
                 tracer: Optional[pb_trace.Tracer] = None):
        self.shape = shape
        self.seconds = seconds
        self.stop_after = stop_after
        self.tracer = tracer
        self.steps = 0
        self.setup_end: Optional[float] = None
        self.setup_cpu_end: Optional[float] = None
        self.timed_start: Optional[float] = None
        self.timed_end: Optional[float] = None
        self.switch: Optional[float] = None
        self.timed_steps = 0
        self.switch_steps = 0
        self.stamps: List[tuple] = []  # (time, batch_index) in the timed phase
        self.meter = pb_measure.UnitMeter()
        self.exec_stats_start: Dict[str, object] = {}
        self.exec_stats_switch: Dict[str, object] = {}
        self.exec_stats_end: Dict[str, object] = {}

    def after_batch(self, trainer, epoch: int, batch_index: int) -> None:
        now = time.perf_counter()
        self.steps += 1
        if self.stop_after is not None:
            if self.steps >= self.stop_after:
                self.setup_end = now
                self.setup_cpu_end = pb_measure.sample_tree()["cpu_s"]
                raise _Stop
            return
        if self.timed_start is None:
            if self.steps < self.shape.warmup_steps:
                return
            self.setup_end = self.timed_start = now
            self.setup_cpu_end = pb_measure.sample_tree()["cpu_s"]
            pb_measure.reset_peak_rss()
            if self.tracer is not None:
                self.tracer.recording = False
            self.exec_stats_start = _exec_stats(trainer.executor)
            self.stamps.append((now, batch_index))
            return
        self.timed_steps += 1
        self.stamps.append((now, batch_index))
        if batch_index != self.shape.steps_per_epoch - 1:
            return
        self.meter.mark(self.timed_steps * self.shape.batch)
        elapsed = time.perf_counter() - self.timed_start
        if self.tracer is not None and self.switch is None and elapsed >= self.seconds / 2:
            self.switch = time.perf_counter()
            self.switch_steps = self.timed_steps
            self.exec_stats_switch = _exec_stats(trainer.executor)
            self.tracer.recording = True
        if elapsed >= self.seconds and self.meter.units >= 2 and (
            self.tracer is None or self.switch is not None
        ):
            self.timed_end = now
            self.exec_stats_end = _exec_stats(trainer.executor)
            raise _Stop

    def step_latencies(self, start: float, end: float) -> List[float]:
        """Seconds per optimizer step inside ``[start, end]``.

        Intervals ending on an epoch's first step also hold the previous
        epoch's evaluation, so they count toward throughput but not here.
        """
        out = []
        for (t0, _), (t1, b1) in zip(self.stamps, self.stamps[1:]):
            if b1 > 0 and t0 >= start and t1 <= end:
                out.append(t1 - t0)
        return out


def _exec_stats(executor) -> Dict[str, object]:
    stats = getattr(executor, "stats", None)
    return dict(stats) if isinstance(stats, dict) else {}


def _fit(trainer: Trainer) -> Optional[BaseException]:
    """Run ``fit`` until the hook stops it; returns a training failure."""
    try:
        trainer.fit()
    except _Stop:
        return None
    except FloatingPointError as error:
        return error
    finally:
        gc.collect()  # closes an abandoned prefetch iterator and its process
    return RuntimeError("fit ended before the benchmark stopped it")


def _batch_losses(sink: ListSink) -> List[float]:
    return [float(event["loss"]) for event in sink.of_type("batch")]


def _install_wrappers(trainer: Trainer, tracer: pb_trace.Tracer) -> None:
    """Wrap the public calls of each layer on this trainer's objects."""
    executor = trainer.executor

    def note_step(span, args, result):
        stats = result.stats
        span.attrs["stats"] = {
            k: v for k, v in stats.items() if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        if stats.get("trace"):
            span.attrs["traced"] = True

    executor.train_step = tracer.wrap("exec.train_step", executor.train_step, note_step)
    make_iterator = executor.make_batch_iterator

    def traced_iterator(*args, **kwargs):
        return tracer.wrap_iterable("data.batch", make_iterator(*args, **kwargs))

    executor.make_batch_iterator = traced_iterator
    trainer.optimizer.step = tracer.wrap("optim.step", trainer.optimizer.step)
    trainer.evaluate = tracer.wrap("training.eval", trainer.evaluate)


@contextlib.contextmanager
def _traced_clip(tracer: Optional[pb_trace.Tracer]):
    """Route the trainer module's ``clip_grad_norm`` through the tracer."""
    original = trainer_module.clip_grad_norm
    if tracer is not None:
        trainer_module.clip_grad_norm = tracer.wrap("optim.clip", original)
    try:
        yield
    finally:
        trainer_module.clip_grad_norm = original


def run(name: str, seed: int, seconds: float, tracer: Optional[pb_trace.Tracer]) -> Dict[str, object]:
    shape = SHAPES[name]
    setup_wall: List[float] = []
    setup_cpu: List[float] = []
    failure: Optional[BaseException] = None
    with _traced_clip(tracer):
        for rep in range(SETUP_REPS):
            final = rep == SETUP_REPS - 1
            if tracer is not None:
                tracer.recording = True  # set-up spans give compile.trace_ms
            clock = trainer = sink = dataset = model = None
            gc.collect()
            start = time.perf_counter()
            cpu_start = pb_measure.sample_tree()["cpu_s"]
            dataset, model = build_inputs(shape, seed)
            sink = ListSink()
            clock = StepClock(
                shape, seconds,
                stop_after=None if final else shape.warmup_steps,
                tracer=tracer if final else None,
            )
            trainer = make_trainer(shape, dataset, model, shape.executor, clock, sink, seed)
            if tracer is not None:
                _install_wrappers(trainer, tracer)
            failure = _fit(trainer)
            if clock.setup_end is not None:
                setup_wall.append(clock.setup_end - start)
                setup_cpu.append(clock.setup_cpu_end - cpu_start)
            if failure is not None:
                break
    if tracer is not None:
        tracer.recording = False
    pb_measure.reap_children()
    measured = _batch_losses(sink)
    result = _report(name, shape, seed, clock, trainer, measured, setup_cpu, failure, tracer)
    result["info"]["setup_wall_s"] = setup_wall
    return result


def reference_losses(shape: TrainShape, seed: int, steps: int) -> List[float]:
    """Per-step losses of a fresh serial run with the same seed and loop."""
    dataset, model = build_inputs(shape, seed)
    sink = ListSink()
    # the hook fires before the trainer records a step's loss, so stopping
    # at step ``steps + 1`` leaves exactly ``steps`` recorded losses
    clock = StepClock(shape, 0.0, stop_after=steps + 1)
    trainer = make_trainer(shape, dataset, model, "serial", clock, sink, seed)
    failure = _fit(trainer)
    if failure is not None:
        return []
    return _batch_losses(sink)


def _report(name, shape, seed, clock, trainer, measured, setup_cpu, failure, tracer):
    info: Dict[str, object] = {"workload": name, "loop": "closed, 1 caller",
                               "executor": shape.executor, "batch": shape.batch,
                               "steps_per_epoch": shape.steps_per_epoch,
                               "eval_batches": shape.eval_batches,
                               "warmup_steps": shape.warmup_steps, "setup_reps": SETUP_REPS}
    attempted = max(1, clock.timed_steps if clock is not None else 0)
    failed = 0
    correct = True
    if failure is not None or clock is None or clock.timed_end is None:
        info["failure"] = repr(failure)
        return {"info": info, "correct": False, "attempted": attempted, "failed": attempted,
                "metrics": {}}

    reference = reference_losses(shape, seed, shape.warmup_steps + shape.check_steps)
    check = pb_checks.compare_losses(measured, reference, pb_checks.LOSS_RTOL[shape.executor])
    info["loss_check"] = check
    if not check["ok"]:
        correct = False
        failed += max(1, check["bad_steps"])
    if shape.executor == "compiled":
        start, end = clock.exec_stats_start, clock.exec_stats_end
        fallbacks = end.get("fallback_steps", 0) - start.get("fallback_steps", 0)
        invalid = end.get("validation_failures", 0) - start.get("validation_failures", 0)
        replays = end.get("replays", 0) - start.get("replays", 0)
        info["compile_check"] = {"fallback_steps": fallbacks, "validation_failures": invalid,
                                 "replays": replays, "steps": clock.timed_steps}
        if fallbacks or invalid or replays != clock.timed_steps:
            correct = False
            failed += max(1, fallbacks)
    if shape.executor == "sharded":
        axis = getattr(trainer.executor, "shard_axis", None)
        info["shard_axis"] = axis
        if axis != "sensor":
            correct = False
            failed = attempted

    lat = clock.step_latencies(clock.timed_start, clock.timed_end)
    metrics = {
        "samples_per_s": clock.meter.samples_per_s(),
        "latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "cpu_ms_per_sample": clock.meter.cpu_ms_per_sample(),
        "peak_rss_mb": clock.meter.peak_rss_mb,
    }
    info.update({"timed_steps": clock.timed_steps, "unit_rates": clock.meter.unit_rates(),
                 "latency_samples": len(lat),
                 "timed_s": clock.timed_end - clock.timed_start})
    result = {"info": info, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "setup_cpu_s": setup_cpu}
    if tracer is not None:
        result["layers"], result["attribution"] = _layers(clock, trainer, tracer)
    return result


def _layers(clock, trainer, tracer):
    """Per-layer metrics from the traced half of the timed phase."""
    start, end = clock.switch, clock.timed_end
    spans = [s for s in tracer.spans if s.start >= start and s.end <= end]
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    steps = clock.timed_steps - clock.switch_steps

    def mean_ms(name):
        return 1e3 * pb_measure.mean(s.duration for s in by_name.get(name, []))

    layers: Dict[str, float] = {}
    layers["data.batch_ms"] = mean_ms("data.batch")
    layers["exec.train_step_ms"] = mean_ms("exec.train_step")
    layers["optim.step_ms"] = mean_ms("optim.step")
    layers["optim.clip_ms"] = mean_ms("optim.clip")
    layers["training.eval_ms"] = mean_ms("training.eval")

    executor = trainer.executor
    stats = _exec_stats(executor)
    if "replays" in stats:
        traced = [s for s in tracer.spans if s.name == "exec.train_step" and s.attrs.get("traced")]
        layers["compile.trace_ms"] = 1e3 * pb_measure.mean(s.duration for s in traced)
        layers["compile.traces"] = stats["traces"]
        layers["compile.replays"] = stats["replays"]
        layers["compile.fallback_steps"] = stats["fallback_steps"]
        replays = clock.exec_stats_end["replays"] - clock.exec_stats_switch["replays"]
        layers["compile.replay_share"] = replays / max(1, steps)
        layers["compile.plan_bytes"] = sum(
            plan.stats.get("buffer_bytes", 0) for plan in executor.train_plans.live_plans()
        )
    pooled = [s for s in by_name.get("exec.train_step", []) if "serialize" in s.attrs["stats"]]
    if pooled:
        stats = [s.attrs["stats"] for s in pooled]
        slowest = [max(v for k, v in st.items() if k.startswith("worker")) for st in stats]
        mean_worker = [
            pb_measure.mean(v for k, v in st.items() if k.startswith("worker")) for st in stats
        ]
        layers["parallel.serialize_ms"] = 1e3 * pb_measure.mean(st["serialize"] for st in stats)
        layers["parallel.reduce_ms"] = 1e3 * pb_measure.mean(st["reduce"] for st in stats)
        layers["parallel.worker_ms"] = 1e3 * pb_measure.mean(slowest)
        layers["parallel.ship_ms"] = 1e3 * pb_measure.mean(
            span.duration - st["serialize"] - worst - st["reduce"]
            for span, st, worst in zip(pooled, stats, slowest)
        )
        layers["parallel.imbalance"] = pb_measure.mean(w / m for w, m in zip(slowest, mean_worker))
        layers["parallel.weight_bytes"] = len(
            checkpoint_module.dumps_state_dict(trainer.model.state_dict())
        )
    wall = end - start
    parts = pb_trace.attribution(tracer.spans, start, end, wall)
    layers["unattributed_ms"] = 1e3 * parts["unattributed"] / max(1, steps)
    before = clock.step_latencies(clock.timed_start, start)
    after = clock.step_latencies(start, end)
    layers["trace.overhead_ms"] = 1e3 * (pb_measure.mean(after) - pb_measure.mean(before))
    attribution = {"end_to_end_ms": 1e3 * wall, "ops": steps,
                   "parts_ms": {k: 1e3 * v for k, v in parts.items()},
                   "top_level_ms": 1e3 * pb_trace.top_level_seconds(tracer.spans, start, end)}
    return layers, attribution

