"""Analytic memory model: asymptotics, Table VI OOM boundary, capacity plans."""

from __future__ import annotations

import pytest

from repro.training.memory import (
    CapacityPlanner,
    ModelDims,
    V100_BUDGET_GB,
    activation_gb,
    families,
    fits_in_budget,
    parameter_gb,
)


class TestFormulas:
    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            activation_gb("quantum", ModelDims())

    def test_all_families_positive(self):
        dims = ModelDims()
        for family in families():
            assert activation_gb(family, dims) > 0

    def test_attention_quadratic_in_history(self):
        small = activation_gb("attention", ModelDims(history=12))
        large = activation_gb("attention", ModelDims(history=120))
        assert large / small > 50  # ~quadratic: 100x dominates

    def test_window_attention_linear_in_history(self):
        small = activation_gb("window_attention", ModelDims(history=12))
        large = activation_gb("window_attention", ModelDims(history=120))
        assert large / small < 15  # ~linear: ~10x

    def test_stfgnn_quadratic_in_sensors(self):
        # at long horizons the fused-graph term dominates and scales ~N^2
        small = activation_gb("stfgnn", ModelDims(num_sensors=100, history=72))
        large = activation_gb("stfgnn", ModelDims(num_sensors=1000, history=72))
        assert large / small > 30  # clearly super-linear (linear would be ~10)

    def test_rnn_linear_in_sensors(self):
        small = activation_gb("rnn", ModelDims(num_sensors=100))
        large = activation_gb("rnn", ModelDims(num_sensors=1000))
        assert 8 < large / small < 12

    def test_parameter_memory(self):
        # 1M parameters * 4 bytes * 4 copies (w, g, m, v) = 16e6 bytes
        assert abs(parameter_gb(1_000_000) - 16e6 / 1024**3) < 1e-9


class TestTableVIBoundary:
    """The paper's OOM pattern: STFGNN & EnhanceNet die on PEMS07 at H=72."""

    @pytest.mark.parametrize(
        "family,sensors,history,expected_fits",
        [
            ("stfgnn", 883, 72, False),  # PEMS07 long-horizon: OOM
            ("enhancenet", 883, 72, False),  # PEMS07 long-horizon: OOM
            ("agcrn", 883, 72, True),  # AGCRN survives (barely)
            ("window_attention", 883, 72, True),  # ST-WA is fine
            ("stfgnn", 358, 72, True),  # PEMS03 long-horizon fits
            ("enhancenet", 358, 72, True),
            ("stfgnn", 883, 12, True),  # everything fits at H=12
            ("enhancenet", 883, 12, True),
        ],
    )
    def test_oom_pattern(self, family, sensors, history, expected_fits):
        dims = ModelDims(num_sensors=sensors, history=history, horizon=history)
        assert fits_in_budget(family, dims, V100_BUDGET_GB) == expected_fits

    def test_st_wa_has_smallest_footprint_at_scale(self):
        dims = ModelDims(num_sensors=883, history=72, horizon=72)
        st_wa = activation_gb("window_attention", dims)
        for family in ("attention", "stfgnn", "enhancenet", "agcrn"):
            assert st_wa < activation_gb(family, dims)

    def test_per_sensor_family_linear_in_sensors(self):
        small = activation_gb("per_sensor", ModelDims(num_sensors=1_000))
        large = activation_gb("per_sensor", ModelDims(num_sensors=10_000))
        assert large / small == pytest.approx(10.0, rel=1e-9)


class TestCapacityPlanner:
    """Shard plans over the registered zoo (see repro.harness.capacity)."""

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="budget_gb"):
            CapacityPlanner(budget_gb=0.0)
        with pytest.raises(KeyError, match="unknown family"):
            CapacityPlanner().family_gb("quantum", 100)
        with pytest.raises(ValueError, match="num_sensors"):
            CapacityPlanner().plan("simst", 0)

    def test_bytes_per_element_scales_estimates(self):
        float32 = CapacityPlanner(bytes_per_element=4)
        float64 = CapacityPlanner(bytes_per_element=8)
        ratio = float64.family_gb("per_sensor", 5_000) / float32.family_gb(
            "per_sensor", 5_000
        )
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_fitting_model_needs_one_shard(self):
        plan = CapacityPlanner().plan("simst", 10_000)
        assert plan.family == "per_sensor"
        assert plan.fits and plan.shards_needed == 1
        assert plan.sensor_shardable

    def test_shard_solver_uses_ceil_split(self):
        """shards_needed is the smallest K whose ceil(N/K)-sensor shard step fits."""
        planner = CapacityPlanner()
        num_sensors = 10_000
        budget = planner.family_gb("per_sensor", num_sensors) / 3.5
        tight = CapacityPlanner(budget_gb=budget)
        plan = tight.plan("simst", num_sensors)
        assert not plan.fits
        k = plan.shards_needed
        assert k is not None and k > 1
        assert tight.shard_gb("per_sensor", num_sensors, k) <= budget
        if k > 2:
            assert tight.shard_gb("per_sensor", num_sensors, k - 1) > budget
        # the largest shard decides its shard-sized arrays: 10_001 sensors
        # in 3 shards is 3_334 each, as for 10_002; only the K + 1 = 4
        # parameter-sized copies grow, by one 16-wide float32 embedding row
        row_gb = 16 * 4 / 1024**3
        grown = tight.shard_gb("per_sensor", 3 * 3_334, 3) - tight.shard_gb(
            "per_sensor", 10_001, 3
        )
        assert grown == pytest.approx(4 * row_gb, rel=1e-6)

    def test_per_sensor_shard_models_the_block(self):
        """A per-sensor shard holds its shard-sized arrays, one block's
        activations and K + 1 parameter-sized arrays (parameters, gradients,
        the other shards' gradients); a sensor-mixing family's shard is the
        family at N/K."""
        from repro.core import SimSTForecaster
        from repro.parallel.engine import BLOCK_ROWS

        def parameter_gb(num_sensors):
            # SimST at the planner's dims (hidden 32) and default proportions
            model = SimSTForecaster(num_sensors, hidden=32, predictor_hidden=64)
            return 8 * model.num_parameters() / 1024**3

        planner = CapacityPlanner(dims=ModelDims(batch=4), bytes_per_element=8)
        block_gb = planner.family_gb("per_sensor", BLOCK_ROWS // 4)
        per_sensor_array_gb = 8 * 2.0 * 4 * (2 * 12 + 2 * 12) / 1024**3
        for n_shards in (2, 3, 8):
            per_shard = -(-10_000 // n_shards)
            assert planner.shard_gb("per_sensor", 10_000, n_shards) == pytest.approx(
                block_gb
                + per_shard * per_sensor_array_gb
                + (n_shards + 1) * parameter_gb(10_000),
                rel=1e-12,
            )
            # blocking keeps the activations below the family at N/K
            activations_gb = planner.shard_gb("per_sensor", 10_000, n_shards) - (
                n_shards + 1
            ) * parameter_gb(10_000)
            assert activations_gb < planner.family_gb("per_sensor", per_shard)
        # a shard narrower than one block is one block of its own width
        assert planner.shard_gb("per_sensor", 20, 2) == pytest.approx(
            planner.family_gb("per_sensor", 10)
            + 10 * per_sensor_array_gb
            + 3 * parameter_gb(20),
            rel=1e-12,
        )
        assert planner.shard_gb("graph_conv", 10_000, 4) == planner.family_gb(
            "graph_conv", 2_500
        )
        with pytest.raises(ValueError, match="n_shards"):
            planner.shard_gb("per_sensor", 10_000, 0)

    def test_quadratic_families_cannot_be_saved_by_sharding(self):
        plan = CapacityPlanner().plan("stfgnn", 50_000)
        assert not plan.fits
        assert not plan.sensor_shardable

    def test_st_wa_not_sensor_shardable(self):
        plan = CapacityPlanner().plan("st-wa", 10_000)
        assert plan.family == "window_attention"
        assert not plan.sensor_shardable

    def test_report_structure(self):
        report = CapacityPlanner().report(
            models=("simst", "st-wa"), sensor_counts=(100, 10_000)
        )
        assert report["sensor_counts"] == [100, 10_000]
        assert set(report["models"]) == {"simst", "st-wa"}
        for per_count in report["models"].values():
            assert set(per_count) == {"100", "10000"}
            for plan in per_count.values():
                assert {
                    "model", "family", "num_sensors", "activation_gb",
                    "bytes_per_sensor", "fits", "shards_needed",
                    "sensor_shardable",
                } <= set(plan)

    def test_plan_round_trips_to_dict(self):
        plan = CapacityPlanner().plan("simst", 2_000)
        payload = plan.to_dict()
        assert payload["model"] == "simst"
        assert payload["num_sensors"] == 2_000
        assert payload["fits"] is True
