"""Benchmark trajectory harness (python -m repro.harness bench)."""

from __future__ import annotations

import json

import pytest

from repro.harness import bench
from repro.harness.__main__ import main as harness_main
from repro.harness.runner import RunSettings


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    result = bench.run(
        settings=RunSettings.from_scope("smoke"), out_dir=out, date="2026-01-01"
    )
    return out, result


class TestBenchRun:
    def test_writes_bench_json(self, first_run):
        out, result = first_run
        path = out / "BENCH_2026-01-01.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert payload["gradcheck_cases"] == 13
        assert payload["previous"] is None
        assert payload["deltas_vs_previous"] is None

    def test_compiled_section_and_profile_artifact(self, first_run):
        out, result = first_run
        compiled = result.extras["payload"]["compiled"]
        assert compiled["equivalence"]["ok"]
        assert compiled["equivalence"]["steps"] >= 5
        assert set(compiled["steps"]) == {"online", "train"}
        for label in compiled["steps"].values():
            assert label["serial_step_seconds"] > 0
            assert label["compiled_step_seconds"] > 0
        assert compiled["executor_stats"]["traces"] >= 1
        assert compiled["plans"], "live plan stats expected in the profile"
        profile = json.loads((out / "compile_profile.json").read_text())
        assert profile["compiled"]["equivalence"]["ok"]

    def test_micro_suite_fixed_and_instrumented(self, first_run):
        _, result = first_run
        micro = result.extras["payload"]["micro"]
        assert set(micro) == {
            "matmul_shared_weight",
            "linear_fused",
            "matmul_generated_weight",
            "getitem_window_slices",
            "getitem_advanced_index",
            "gather_per_node",
            "concat_gates",
            "elementwise_chain",
        }
        for stats in micro.values():
            assert stats["seconds"] > 0
            assert stats["grad_allocs"] > 0
            assert stats["grad_alloc_bytes"] > 0

    def test_st_wa_epoch_recorded(self, first_run):
        _, result = first_run
        st_wa = result.extras["payload"]["st_wa_smoke"]
        assert st_wa["wall_seconds"] > 0
        assert st_wa["grad_allocs"] > 0
        assert st_wa["ops"], "per-op seconds should be recorded for delta tracking"

    def test_optim_section_recorded(self, first_run):
        _, result = first_run
        optim = result.extras["payload"]["optim"]
        assert optim["model"] == "st-wa"
        assert optim["parameters"] == 63 and optim["elements"] == 113640
        assert set(optim["seconds"]) == {"adam_step", "clip_grad_norm"}
        assert all(seconds > 0 for seconds in optim["seconds"].values())

    def test_second_run_reports_deltas(self, first_run):
        out, _ = first_run
        result = bench.run(
            settings=RunSettings.from_scope("smoke"), out_dir=out, date="2026-01-02"
        )
        payload = result.extras["payload"]
        assert payload["previous"] == "BENCH_2026-01-01.json"
        deltas = payload["deltas_vs_previous"]
        assert set(deltas["micro_seconds"]) == set(payload["micro"])
        assert isinstance(deltas["st_wa_wall_seconds"], float)
        assert deltas["st_wa_ops"], "per-op deltas vs previous BENCH expected"
        assert set(deltas["compiled_step_seconds"]) == {"online", "train"}
        assert set(deltas["optim_seconds"]) == {"adam_step", "clip_grad_norm"}
        assert not result.extras["regressed"]

    def test_check_fails_when_compiled_gate_fails(self, first_run, tmp_path, monkeypatch):
        _, result = first_run
        failing = json.loads(json.dumps(result.extras["payload"]["compiled"]))
        failing["ok"] = False
        failing["speedup_ok"] = False
        monkeypatch.setattr(bench, "_compiled_bench", lambda settings: failing)
        rerun = bench.run(
            settings=RunSettings.from_scope("smoke"),
            out_dir=tmp_path,
            date="2026-01-05",
            check=True,
        )
        assert rerun.extras["regressed"]

    def test_regression_flagged_against_faster_previous(self, tmp_path, first_run):
        out, result = first_run
        fake = json.loads((out / "BENCH_2026-01-01.json").read_text())
        fake["st_wa_smoke"]["wall_seconds"] = 1e-6  # impossibly fast baseline
        (tmp_path / "BENCH_2025-12-31.json").write_text(json.dumps(fake))
        rerun = bench.run(
            settings=RunSettings.from_scope("smoke"),
            out_dir=tmp_path,
            date="2026-01-01",
            check=True,
            max_regression=0.25,
        )
        assert rerun.extras["regressed"]

    def test_no_out_dir_skips_writing(self):
        result = bench.run(
            settings=RunSettings.from_scope("smoke"), out_dir=None, date="2026-01-03"
        )
        assert "previous" not in result.extras["payload"]

    def test_latest_pointer_mirrors_snapshot(self, tmp_path):
        out = tmp_path / "results"
        bench.run(settings=RunSettings.from_scope("smoke"), out_dir=out, date="2026-02-02")
        latest = tmp_path / bench.LATEST_NAME  # root-level, next to the out dir
        assert latest.exists()
        assert json.loads(latest.read_text()) == json.loads(
            (out / "BENCH_2026-02-02.json").read_text()
        )

    def test_find_previous_ignores_latest_pointer(self, tmp_path):
        (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
        # "latest" sorts after any date; it must never be picked as baseline
        (tmp_path / bench.LATEST_NAME).write_text("{}")
        previous = bench._find_previous(tmp_path, "BENCH_2026-01-02.json")
        assert previous.name == "BENCH_2026-01-01.json"
        only_latest = tmp_path / "empty"
        only_latest.mkdir()
        (only_latest / bench.LATEST_NAME).write_text("{}")
        assert bench._find_previous(only_latest, "BENCH_2026-01-02.json") is None


class TestBenchCLI:
    def test_bench_subcommand(self, tmp_path, capsys):
        code = harness_main(["bench", "--scope", "smoke", "--out", str(tmp_path)])
        assert code == 0
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        out = capsys.readouterr().out
        assert "st_wa_smoke_epoch" in out
        assert "fast-path gradchecks passed" in out

    def test_bench_rejects_extra_arguments(self):
        with pytest.raises(SystemExit):
            harness_main(["bench", "table4"])
