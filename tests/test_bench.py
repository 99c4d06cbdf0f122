"""Benchmark trajectory harness (python -m repro.harness bench)."""

from __future__ import annotations

import json

import pytest

from repro.harness import bench
from repro.harness.__main__ import main as harness_main
from repro.harness.runner import RunSettings
from repro.parallel.engine import available_cores

SMOKE = RunSettings.from_scope("smoke")
EPOCH = bench._epoch_key(SMOKE)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    result = bench.run(settings=SMOKE, out_dir=out, date="2026-01-01")
    return out, result


@pytest.fixture
def measured(first_run, monkeypatch):
    """``bench.run`` with the first run's rows instead of a new measurement."""
    rows = json.loads(json.dumps(first_run[1].extras["payload"]["rows"]))
    monkeypatch.setattr(bench, "_measure", lambda settings: rows)
    return rows


class TestBenchRun:
    def test_writes_bench_json(self, first_run):
        out, result = first_run
        path = out / "BENCH_2026-01-01.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["schema"] == 3
        assert payload["previous"] is None
        assert payload["deltas"] == {}
        assert set(payload["gates"]) == {
            "st-wa-epoch-wall",
            "compiled-online-speedup",
            "simst-sharded-speedup",
        }
        for gate in payload["gates"].values():
            assert set(gate) == {"measured", "threshold", "enforced", "passed"}
        assert payload["gates"]["st-wa-epoch-wall"]["measured"] is None
        assert not payload["gates"]["st-wa-epoch-wall"]["enforced"]

    def test_compiled_section_and_profile_artifact(self, first_run):
        rows = first_run[1].extras["payload"]["rows"]
        for batch in (1, SMOKE.batch_size):
            serial = rows[f"train/st-wa-step/B{batch}/serial"]
            compiled = rows[f"train/st-wa-step/B{batch}/compiled"]
            assert serial["seconds"] > 0 and compiled["seconds"] > 0
            assert compiled["fallback_steps"] == 0
            assert compiled["plan"]["forward_instructions"] > 0
            assert compiled["plan"]["buffer_bytes"] > 0
        gate = first_run[1].extras["payload"]["gates"]["compiled-online-speedup"]
        assert gate["enforced"] and gate["threshold"] == 2.0
        assert gate["measured"] == pytest.approx(
            rows["train/st-wa-step/B1/serial"]["seconds"]
            / rows["train/st-wa-step/B1/compiled"]["seconds"]
        )

    def test_micro_suite_fixed_and_instrumented(self, first_run):
        rows = first_run[1].extras["payload"]["rows"]
        ops = {key.split("/")[1]: row for key, row in rows.items() if key.startswith("op/")}
        assert set(ops) == {
            "matmul_shared_weight",
            "linear_fused",
            "matmul_generated_weight",
            "getitem_window_slices",
            "getitem_advanced_index",
            "gather_per_node",
            "concat_gates",
            "elementwise_chain",
        }
        for stats in ops.values():
            assert stats["seconds"] > 0
            assert stats["grad_allocs"] > 0
            assert stats["grad_alloc_bytes"] > 0

    def test_st_wa_epoch_recorded(self, first_run):
        epoch = first_run[1].extras["payload"]["rows"][EPOCH]
        assert epoch["seconds"] > 0
        assert epoch["repeats"] == 3
        assert epoch["grad_allocs"] > 0
        assert epoch["total_op_calls"] > 0

    def test_optim_section_recorded(self, first_run):
        rows = first_run[1].extras["payload"]["rows"]
        optim = {key: row for key, row in rows.items() if key.startswith("optim/")}
        assert set(optim) == {
            "optim/adam_step/P113640/arena",
            "optim/clip_grad_norm/P113640/arena",
        }
        assert all(row["parameters"] == 63 and row["seconds"] > 0 for row in optim.values())

    def test_shard_speedup_gate_enforced_on_two_cores(self, first_run):
        payload = first_run[1].extras["payload"]
        serial = payload["rows"][f"{bench.CITY_STEP}/serial"]["seconds"]
        sharded = payload["rows"][f"{bench.CITY_STEP}/sharded2"]["seconds"]
        gate = payload["gates"]["simst-sharded-speedup"]
        assert gate["enforced"] == (available_cores() >= 2)
        assert gate["threshold"] == 1.1
        assert gate["measured"] == pytest.approx(serial / sharded)

    def test_second_run_reports_deltas(self, first_run, measured):
        out, _ = first_run
        result = bench.run(settings=SMOKE, out_dir=out, date="2026-01-02")
        payload = result.extras["payload"]
        assert payload["previous"] == "BENCH_2026-01-01.json"
        assert payload["deltas"] == {key: 0.0 for key in measured}
        wall = payload["gates"]["st-wa-epoch-wall"]
        assert wall == {"measured": 0.0, "threshold": 0.25, "enforced": True, "passed": True}
        assert "+0.0%" in result.to_text()
        assert not result.extras["regressed"]

    def test_check_fails_when_compiled_gate_fails(self, measured, tmp_path):
        measured["train/st-wa-step/B1/compiled"]["seconds"] = measured[
            "train/st-wa-step/B1/serial"
        ]["seconds"]
        rerun = bench.run(settings=SMOKE, out_dir=tmp_path, date="2026-01-05", check=True)
        assert rerun.extras["payload"]["gates"]["compiled-online-speedup"]["passed"] is False
        assert rerun.extras["regressed"]
        assert "FAILED compiled-online-speedup" in rerun.to_text()

    def test_regression_flagged_against_faster_previous(self, first_run, measured, tmp_path):
        fake = json.loads((first_run[0] / "BENCH_2026-01-01.json").read_text())
        fake["rows"][EPOCH]["seconds"] = measured[EPOCH]["seconds"] / (1 + bench.MAX_REGRESSION) * 0.99
        (tmp_path / "BENCH_2025-12-31.json").write_text(json.dumps(fake))
        rerun = bench.run(settings=SMOKE, out_dir=tmp_path, date="2026-01-01", check=True)
        gate = rerun.extras["payload"]["gates"]["st-wa-epoch-wall"]
        assert gate["enforced"] and gate["passed"] is False
        assert rerun.extras["regressed"]
        # the same slowdown without --check is reported but never fails the run
        assert not bench.run(settings=SMOKE, out_dir=tmp_path, date="2026-01-01").extras[
            "regressed"
        ]

    def test_no_out_dir_skips_writing(self, measured, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = bench.run(settings=SMOKE, out_dir=None, date="2026-01-03")
        assert result.extras["payload"]["previous"] is None
        assert list(tmp_path.iterdir()) == []

    def test_find_previous_picks_newest_other_file(self, tmp_path):
        """The newest file dated no later than the run, the run's own date included."""
        for name in ("BENCH_2026-01-01.json", "BENCH_2025-12-30.json", "BENCH_2026-01-03.json"):
            (tmp_path / name).write_text("{}")
        previous = bench._find_previous(tmp_path, "BENCH_2026-01-02.json")
        assert previous.name == "BENCH_2026-01-01.json"
        same_day = bench._find_previous(tmp_path, "BENCH_2026-01-01.json")
        assert same_day.name == "BENCH_2026-01-01.json"
        assert bench._find_previous(tmp_path, "BENCH_2025-12-29.json") is None
        empty = tmp_path / "empty"
        empty.mkdir()
        assert bench._find_previous(empty, "BENCH_2026-01-02.json") is None

    def test_same_date_run_enforces_the_wall_gate(self, first_run, measured, tmp_path):
        """A run dated like the baseline diffs against it before overwriting it."""
        baseline = json.loads((first_run[0] / "BENCH_2026-01-01.json").read_text())
        baseline["rows"][EPOCH]["seconds"] = measured[EPOCH]["seconds"] / (1 + bench.MAX_REGRESSION) * 0.99
        (tmp_path / "BENCH_2026-01-01.json").write_text(json.dumps(baseline))
        rerun = bench.run(settings=SMOKE, out_dir=tmp_path, date="2026-01-01", check=True)
        payload = rerun.extras["payload"]
        assert payload["previous"] == "BENCH_2026-01-01.json"
        gate = payload["gates"]["st-wa-epoch-wall"]
        assert gate["enforced"] and gate["passed"] is False
        assert rerun.extras["regressed"]


class TestBenchCLI:
    def test_bench_subcommand(self, measured, tmp_path, capsys):
        code = harness_main(["bench", "--scope", "smoke", "--out", str(tmp_path)])
        assert code == 0
        # one BENCH_<date>.{json,txt} pair and nothing else
        written = sorted(tmp_path.iterdir())
        assert [p.suffix for p in written] == [".json", ".txt"]
        assert written[0].stem == written[1].stem
        out = capsys.readouterr().out
        assert EPOCH in out
        assert "gate compiled-online-speedup" in out

    def test_bench_rejects_extra_arguments(self):
        with pytest.raises(SystemExit):
            harness_main(["bench", "table4"])
