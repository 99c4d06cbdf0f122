"""Experiment harness: settings, runner, reporting, and cheap table runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import EXPERIMENTS, RunSettings, TableResult, fmt, get_dataset, train_and_score
from repro.harness.table6 import paper_scale_memory_gb


MICRO = RunSettings(epochs=1, max_batches=2, eval_batches=2, batch_size=8)


class TestRunSettings:
    def test_scopes(self):
        assert RunSettings.smoke().scope == "smoke"
        assert RunSettings.quick().epochs > RunSettings.smoke().epochs
        assert RunSettings.standard().epochs > RunSettings.quick().epochs

    def test_from_scope(self):
        assert RunSettings.from_scope("quick").scope == "quick"
        assert RunSettings.from_scope("SMOKE").scope == "smoke"
        with pytest.raises(KeyError):
            RunSettings.from_scope("galactic")

    def test_with_overrides(self):
        settings = RunSettings.smoke().with_overrides(epochs=9)
        assert settings.epochs == 9 and settings.scope == "smoke"


class TestRunner:
    def test_dataset_cache_returns_same_object(self):
        a = get_dataset("PEMS08", "fast")
        b = get_dataset("pems08", "fast")
        assert a is b

    def test_train_and_score_keys(self):
        dataset = get_dataset("PEMS08", "fast")
        result = train_and_score("gru", dataset, 12, 12, MICRO)
        expected = {
            "mae", "rmse", "mape", "seconds_per_epoch", "seconds_per_epoch_warm",
            "train_seconds", "parameters", "epochs_run",
        }
        assert expected <= set(result)
        assert result["epochs_run"] == 1

    def test_non_trained_models_skip_fitting(self):
        dataset = get_dataset("PEMS08", "fast")
        result = train_and_score("persistence", dataset, 12, 12, MICRO)
        assert result["epochs_run"] == 0
        assert result["mae"] > 0

    def test_settings_sink_threads_into_trainer(self):
        from repro.obs import ListSink

        sink = ListSink()
        dataset = get_dataset("PEMS08", "fast")
        train_and_score("gru", dataset, 12, 12, MICRO.with_overrides(sink=sink))
        kinds = {event["event"] for event in sink.events}
        assert {"train_begin", "epoch", "train_end"} <= kinds


class TestProfileHarness:
    def test_profile_run_writes_json(self, tmp_path):
        import json

        from repro.harness import profile

        result = profile.run("gru", settings=MICRO, dataset_name="PEMS08", out_dir=tmp_path)
        path = tmp_path / "profile_gru.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["ops"], "profile JSON must record ops"
        assert payload["model"] == "gru"
        assert any(row[0] == "module" for row in result.rows)

    def test_profile_non_trained_model(self, tmp_path):
        from repro.harness import profile

        result = profile.run("persistence", settings=MICRO, dataset_name="PEMS08", out_dir=tmp_path)
        assert result.extras["summary"]["ops"]  # forward-only ops still traced


class TestReporting:
    def test_table_result_text(self):
        result = TableResult("t", "demo", ["a", "b"], [["1", "2"]], notes=["n"])
        text = result.to_text()
        assert "demo" in text and "note: n" in text

    def test_table_result_markdown(self):
        result = TableResult("t", "demo", ["a"], [["1"]])
        md = result.to_markdown()
        assert md.startswith("### t: demo")
        assert "| a |" in md

    def test_save(self, tmp_path):
        result = TableResult("t", "demo", ["a"], [["1"]])
        path = result.save(tmp_path)
        assert path.read_text().startswith("== t: demo ==")

    def test_fmt(self):
        assert fmt(1.23456) == "1.23"
        assert fmt(1.23456, 1) == "1.2"
        assert fmt("OOM") == "OOM"


class TestExperimentRegistry:
    def test_every_paper_table_and_figure_present(self):
        expected = {f"table{i}" for i in range(4, 15)} | {"figure9", "figure10"}
        assert expected <= set(EXPERIMENTS)
        # companion analyses beyond the paper's numbered exhibits
        assert {"attention_scaling", "horizon_report"} <= set(EXPERIMENTS)


class TestCheapExperimentRuns:
    """Micro-scope runs: validate structure, not accuracy."""

    def test_table4_structure(self):
        result = EXPERIMENTS["table4"](settings=MICRO, datasets=("PEMS08",), models=("GRU", "ST-WA"))
        assert result.headers == ["Dataset", "Metric", "GRU", "ST-WA"]
        assert len(result.rows) == 3  # MAE/MAPE/RMSE for one dataset
        assert any("*" in cell for row in result.rows for cell in row)

    def test_table5_structure(self):
        result = EXPERIMENTS["table5"](settings=MICRO, models=("GRU", "ST-WA"), histories=(12, 24))
        assert len(result.rows) == 3
        assert len(result.headers) == 1 + 4

    def test_table6_marks_oom(self):
        result = EXPERIMENTS["table6"](settings=MICRO, datasets=("PEMS07",), models=("STFGNN", "ST-WA"))
        flat = [cell for row in result.rows for cell in row]
        assert "OOM" in flat

    def test_table6_memory_helper(self):
        assert paper_scale_memory_gb("STFGNN", "PEMS07", 72) > 16
        assert paper_scale_memory_gb("ST-WA", "PEMS07", 72) < 16

    def test_table7_structure(self):
        result = EXPERIMENTS["table7"](settings=MICRO, datasets=("PEMS08",), models=("GRU", "GRU+ST"))
        assert len(result.rows) == 3

    def test_table8_reports_costs(self):
        result = EXPERIMENTS["table8"](settings=MICRO, models=("WA-1", "ST-WA"))
        row_labels = [row[0] for row in result.rows]
        assert "Training (s/epoch)" in row_labels
        assert "# Para" in row_labels

    def test_table9_structure(self):
        result = EXPERIMENTS["table9"](settings=MICRO, configurations=((3, 2, 2), (12,)))
        assert len(result.headers) == 3

    def test_table12_structure(self):
        result = EXPERIMENTS["table12"](settings=MICRO, sizes=(4, 8))
        assert [row[0] for row in result.rows] == ["4", "8"]

    def test_attention_scaling_slopes(self):
        result = EXPERIMENTS["attention_scaling"](settings=MICRO, lengths=(16, 32, 64))
        canonical = result.extras["canonical_slope"]
        window = result.extras["window_slope"]
        assert canonical > window  # the efficiency claim, directionally


class TestBenchReports:
    """The speedup-gated benches must always stamp their hardware contract.

    ``speedup_gate_enforced`` / ``cores_detected`` are how CI distinguishes
    "the gate passed" from "the gate could not bite on this host" — the
    shard-bench report must carry them at top level.
    """

    def test_shard_bench_report_carries_speedup_gate_flags(self, tmp_path, monkeypatch):
        import json

        from repro.harness import shard_bench

        monkeypatch.setattr(shard_bench, "EQUIVALENCE_MODELS", ("simst",))
        monkeypatch.setattr(shard_bench, "EQUIVALENCE_EPOCHS", 1)
        _, report = shard_bench.run(
            settings=MICRO,
            out_dir=tmp_path,
            fast=True,
            city_sensors=64,
            city_steps=1,
        )
        assert isinstance(report["speedup_gate_enforced"], bool)
        assert report["cores_detected"] >= 1
        assert report["speedup_gate_enforced"] == (report["cores_detected"] >= 2)
        assert report["speedup_gate"]["enforced"] == report["speedup_gate_enforced"]
        # the unconditional gates must have passed on any host
        assert all(check["passed"] for check in report["equivalence"])
        assert report["serve_identity"]["passed"]
        assert report["city_scale"]["passed"]
        assert report["city_scale"]["shard_axis"] == "sensor"
        saved = json.loads((tmp_path / "shard_bench.json").read_text())
        assert saved["speedup_gate_enforced"] == report["speedup_gate_enforced"]
        assert "all_passed" in saved

    def test_capacity_report_structure(self, tmp_path):
        import json

        from repro.harness import capacity

        result, report = capacity.run(settings=MICRO, out_dir=tmp_path)
        saved = json.loads((tmp_path / "capacity_report.json").read_text())
        assert saved["sensor_counts"] == report["sensor_counts"]
        simst = report["models"]["simst"]
        assert all(plan["sensor_shardable"] for plan in simst.values())
        # at least one graph-bound family must OOM unshardably at 50k
        verdicts = [
            per_count[str(50_000)]
            for per_count in report["models"].values()
        ]
        assert any(
            not plan["fits"] and not plan["sensor_shardable"] for plan in verdicts
        )
        assert result.experiment_id == "capacity"
        assert len(result.rows) == len(report["models"])
