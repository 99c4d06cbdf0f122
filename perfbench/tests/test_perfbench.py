"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

Tiny runs of every workload go through the real command line; the output
checks are exercised with deliberately corrupted losses and forecasts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import pb_checks  # noqa: E402
import pb_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 11


def _run(workload: str, trace: int, seconds: float = 1.0):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.match(metric["name"])
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    _, result = _run(workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    for name in ("setup_s", "samples_per_s", "latency_p50_ms", "cpu_ms_per_sample", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_all_end_to_end_time(workload):
    info, result = _run(workload, trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    attribution = info["attribution"]
    parts = dict(attribution["parts_ms"])
    end_to_end = attribution["end_to_end_ms"]
    unattributed = parts.pop("unattributed")
    # no layer is charged negative time, and nothing is counted twice:
    # the layers' self times fit inside the end-to-end time, and so do the
    # top-level spans, which the attribution does not look at
    assert all(value >= 0 for value in parts.values()), parts
    assert 0 <= unattributed <= end_to_end
    assert 0 < attribution["top_level_ms"] <= end_to_end
    assert sum(parts.values()) <= attribution["top_level_ms"] * (1 + 1e-9)
    assert result["metrics"]["unattributed_ms"]["value"] == pytest.approx(
        unattributed / attribution["ops"], rel=1e-9
    )
    assert (ROOT / ".perfbench" / f"trace-{workload}-seed{SEED}.jsonl").stat().st_size > 0

    values = {k: v["value"] for k, v in result["metrics"].items()}
    # each optimisable layer works in its own workload and nowhere else
    assert (values["compile.replays"] > 0) == (workload == "train-online")
    parallel = [v for k, v in values.items() if k.startswith("parallel.")]
    assert all(v > 0 for v in parallel) == (workload == "train-simst-sharded")
    assert any(v != 0 for v in parallel) == (workload == "train-simst-sharded")
    serving = [values["exec.predict_ms"], values["serve.cache_hit_ratio"], values["fleet.route_ms"]]
    assert all(v > 0 for v in serving) == (workload == "serve-fleet")
    assert (values["exec.train_step_ms"] > 0) == (workload != "serve-fleet")


def test_corrupted_loss_fails_the_check():
    reference = [0.9, 0.8, 0.7]
    assert pb_checks.compare_losses(list(reference), reference, 1e-12)["ok"]
    corrupted = [0.9, 0.8 * (1 + 1e-6), 0.7]
    check = pb_checks.compare_losses(corrupted, reference, 1e-9)
    assert not check["ok"] and check["bad_steps"] == 1
    assert not pb_checks.compare_losses([0.9, float("nan"), 0.7], reference, 1e-9)["ok"]
    assert not pb_checks.compare_losses([0.9], reference, 1e-9)["ok"]


def test_corrupted_reference_fails_a_training_run(monkeypatch):
    import pb_train

    real = pb_train.reference_losses
    monkeypatch.setattr(
        pb_train, "reference_losses",
        lambda *args: [loss * (1 + 1e-6) for loss in real(*args)],
    )
    result = pb_train.run("train-online", SEED, 0.5, None)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["info"]["loss_check"]["ok"] is False


def test_corrupted_forecast_fails_a_serving_run(monkeypatch):
    import pb_serve
    from repro.fleet import FleetRouter

    real = FleetRouter.forecast

    def corrupted(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        result.forecast = result.forecast + 1e-3
        return result

    monkeypatch.setattr(FleetRouter, "forecast", corrupted)
    result = pb_serve.run("serve-fleet", SEED, 0.5, None)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["info"]["forecast_check"]["ok"] is False


def test_schedule_is_fixed_by_the_seed():
    import pb_serve

    first = pb_serve.build_schedule(5, 40, 300)
    assert first == pb_serve.build_schedule(5, 40, 300)
    assert first != pb_serve.build_schedule(6, 40, 300)
    reads = [op for op in first if op.kind == "forecast"]
    assert sum(op.hit for op in reads) == 7 * len(reads) // 9
    # each tick: one ingest, a live and a historical miss, then live repeats
    # whose cache fill the historical miss's batch is queued behind
    for tick in range(40):
        ops = first[tick * pb_serve.TICK_OPS : (tick + 1) * pb_serve.TICK_OPS]
        assert [op.kind for op in ops] == ["ingest"] + ["forecast"] * 9
        assert ops[1].window == "live" and not ops[1].hit
        assert isinstance(ops[2].window, int) and not ops[2].hit
        assert all(op.window == "live" and op.hit for op in ops[3:])


def test_self_time_subtracts_children_across_threads():
    spans = []
    for span_id, name, start, end, parent in [
        (1, "fleet.route", 0.0, 10.0, None),
        (2, "serve.forecast", 1.0, 9.0, 1),
        (3, "exec.predict", 4.0, 8.0, 2),  # ran on the batcher thread
        (4, "fleet.ingest", 11.0, 12.0, None),
    ]:
        span = pb_trace.Span(span_id, name, start, parent, None)
        span.end = end
        spans.append(span)
    parts = pb_trace.attribution(spans, 0.0, 12.0, 13.0)
    assert pb_trace.top_level_seconds(spans, 0.0, 12.0) == pytest.approx(11.0)
    assert parts["fleet"] == pytest.approx(2.0 + 1.0)
    assert parts["serve"] == pytest.approx(4.0)
    assert parts["exec"] == pytest.approx(4.0)
    assert parts["unattributed"] == pytest.approx(2.0)
