"""Experiment harness: settings, runner, reporting, and cheap table runs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import model_family
from repro.core import make_st_wa
from repro.harness import (
    EXPERIMENTS,
    TABLES,
    Row,
    RunSettings,
    TableResult,
    figure9,
    fmt,
    get_dataset,
    horizon_report,
    run_table,
    train_and_score,
)
from repro.harness.tables import build_row, is_oom, paper_scale_memory_gb
from repro.training.memory import ModelDims, activation_gb


MICRO = RunSettings(epochs=1, max_batches=2, eval_batches=2, batch_size=8)


def _cut(table_id, *labels, **changes):
    """``TABLES[table_id]`` keeping only the rows with ``labels`` (all if none)."""
    table = TABLES[table_id]
    if labels:
        changes["rows"] = tuple(row for row in table.rows if row.label in labels)
    return replace(table, **changes)


def _parameters(table, dataset_name="PEMS04"):
    """Parameter count of each row's untrained model, keyed by label."""
    dataset = get_dataset(dataset_name, "fast")
    return {row.label: build_row(table, row, dataset).num_parameters() for row in table.rows}


#: every harness path that trains must thread ``RunSettings.sink`` into its Trainer
SINK_RUNS = {
    "train_and_score": lambda s: train_and_score("gru", get_dataset("PEMS08", "fast"), 12, 12, s),
    "table10": lambda s: run_table(_cut("table10", "With", datasets=("PEMS08",)), s),
    "horizon_report": lambda s: horizon_report.run(settings=s, dataset_name="PEMS08", models=("GRU",)),
}


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

    @pytest.mark.parametrize("runner", list(SINK_RUNS))
    def test_settings_sink_threads_into_trainer(self, runner):
        from repro.obs import ListSink

        sink = ListSink()
        SINK_RUNS[runner](MICRO.with_overrides(sink=sink))
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
        assert {"attention_scaling", "horizon_report", "flow_extension"} <= set(EXPERIMENTS)
        assert set(TABLES) <= set(EXPERIMENTS)


class TestTableData:
    """What the table data fixes before any training: models, costs, OOM cells."""

    def test_registry_rows_match_hand_built_st_wa(self):
        # Tables IX, XII and XIII build "st-wa" through the registry with overrides
        hand_built = dict(model_dim=24, latent_dim=12, skip_dim=48, predictor_hidden=196)
        dataset = get_dataset("PEMS04", "fast")
        for table_id, label, history, changes in (
            ("table9", "S=4,3", 12, {"window_sizes": (4, 3)}),
            ("table12", "4", 12, {"latent_dim": 4}),
            ("table13", "3", 72, {"num_proxies": 3}),
        ):
            table = _cut(table_id, label)
            built = build_row(table, table.rows[0], dataset).state_dict()
            expected = make_st_wa(
                dataset.num_sensors, history=history, horizon=history, **{**hand_built, **changes}
            ).state_dict()
            assert built.keys() == expected.keys()
            assert all(np.array_equal(built[key], expected[key]) for key in expected)

    def test_table6_oom_pattern_at_all_four_datasets(self):
        table = TABLES["table6"]
        assert len(table.datasets) == 4
        for dataset_name in table.datasets:
            for row in table.rows:
                paper_oom = dataset_name == "PEMS07" and row.model in ("STFGNN", "EnhanceNet")
                assert is_oom(table, row, dataset_name) == paper_oom, (row.model, dataset_name)

    def test_table8_memory_and_parameter_ordering(self):
        table = TABLES["table8"]
        dims = ModelDims(num_sensors=get_dataset("PEMS04", "fast").num_sensors, history=table.history)
        memory = {row.label: activation_gb(model_family(row.model), dims) for row in table.rows}
        assert memory["SA"] > memory["WA"]  # quadratic vs linear attention memory
        params = _parameters(table)
        assert params["WA-1"] == min(params.values())
        assert params["ST-WA"] >= params["S-WA"] >= params["WA"] > params["WA-1"]

    def test_table13_parameters_grow_with_p(self):
        params = list(_parameters(TABLES["table13"]).values())
        assert params == sorted(params) and len(set(params)) == len(params)

    def test_variant_tables_keep_the_papers_row_labels(self):
        labels = {table_id: [row.label for row in TABLES[table_id].rows] for table_id in TABLES}
        assert labels["table7"] == ["GRU", "GRU+S", "GRU+ST", "ATT", "ATT+S", "ATT+ST"]
        assert labels["table10"] == ["With", "Without"]
        assert labels["table11"] == ["ST-WA", "Deterministic ST-WA"]
        assert labels["table14"] == ["Mean Aggregator", "Our Aggregator"]
        # Table X's rows differ only in the trainer's KL weight
        with_kl, without_kl = TABLES["table10"].rows
        assert with_kl.model == without_kl.model and with_kl.overrides == without_kl.overrides
        assert with_kl.trainer["kl_weight"] > 0
        assert without_kl.trainer["kl_weight"] == 0

    def test_flow_latents_add_under_20_percent_parameters(self):
        params = _parameters(TABLES["flow_extension"])
        gaussian, flowed = params["ST-WA (Gaussian)"], params["ST-WA (planar flows)"]
        assert gaussian < flowed < gaussian * 1.2


class TestCheapExperimentRuns:
    """Micro-scope runs: validate structure, not accuracy."""

    def test_table4_structure(self):
        table = _cut("table4", datasets=("PEMS08",), rows=(Row("GRU", "GRU"), Row("ST-WA", "ST-WA")))
        result = run_table(table, MICRO)
        assert result.headers == ["Dataset", "Metric", "GRU", "ST-WA"]
        assert len(result.rows) == 3  # MAE/MAPE/RMSE for one dataset
        assert all(len(row) == len(result.headers) for row in result.rows)
        assert any("*" in cell for row in result.rows for cell in row)

    def test_table5_structure(self):
        rows = tuple(Row(f"{m} (H={h})", m, history=h) for h in (12, 24) for m in ("GRU", "ST-WA"))
        result = run_table(_cut("table5", rows=rows), MICRO)
        assert len(result.rows) == 3
        assert len(result.headers) == 1 + 4

    def test_table6_marks_oom(self):
        result = run_table(_cut("table6", "STFGNN", "ST-WA", datasets=("PEMS07",)), MICRO)
        flat = [cell for row in result.rows for cell in row]
        assert "OOM" in flat

    def test_table6_memory_helper(self):
        assert paper_scale_memory_gb("STFGNN", "PEMS07", 72) > 16
        assert paper_scale_memory_gb("ST-WA", "PEMS07", 72) < 16

    def test_table7_structure(self):
        result = run_table(_cut("table7", "GRU", "GRU+ST", datasets=("PEMS08",)), MICRO)
        assert len(result.rows) == 3
        assert result.notes[-1].endswith("/1 family-dataset chains this run.")

    def test_table8_reports_costs(self):
        result = run_table(_cut("table8", "WA-1", "ST-WA"), MICRO)
        row_labels = [row[0] for row in result.rows]
        assert "Training (s/epoch)" in row_labels
        assert "# Para" in row_labels

    def test_table9_structure(self):
        result = run_table(_cut("table9", "S=3,2,2", "S=12"), MICRO)
        assert result.headers == ["Metric", "S=3,2,2", "S=12"]
        assert [row[0] for row in result.rows] == ["MAE", "MAPE", "RMSE"]

    def test_table12_structure(self):
        result = run_table(_cut("table12", "4", "8"), MICRO)
        assert result.headers == ["k", "MAE", "MAPE", "RMSE"]
        assert [row[0] for row in result.rows] == ["4", "8"]

    def test_horizon_report_persistence_error_grows_with_step(self):
        result = horizon_report.run(settings=MICRO, models=("Persistence",))
        persistence = result.extras["per_model"]["Persistence"]
        assert persistence[12] > persistence[3]  # structural truth of the data

    def test_figure9_latents_cluster_and_spread(self):
        result = figure9.run(settings=MICRO, num_anchor_windows=40)
        assert result.extras["z_purity"] > 0.3  # well above the 1/num_lanes random floor
        assert result.extras["phi_spread"] > 0.0  # generated parameters vary across windows

    def test_attention_scaling_slopes(self):
        result = EXPERIMENTS["attention_scaling"](settings=MICRO, lengths=(16, 32, 64))
        canonical = result.extras["canonical_slope"]
        window = result.extras["window_slope"]
        assert canonical > window  # the efficiency claim, directionally


class TestBenchReports:
    """The capacity planner's report over the registered zoo."""

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

    def test_capacity_report_omits_untrained_models(self, tmp_path):
        from repro.harness import capacity
        from repro.harness.runner import NON_TRAINED

        _, report = capacity.run(settings=MICRO, out_dir=tmp_path)
        assert "simst" in report["models"]
        assert not NON_TRAINED & set(report["models"])
