"""SimST graph-free forecaster: shapes, proximity encoding, shard contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BuildSpec, build_from_spec
from repro.core import SimSTForecaster, make_simst, topk_neighbors
from repro.tensor import Tensor

HISTORY, HORIZON = 6, 4


def tiny_model(num_sensors=5, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_sensors, num_sensors))
    defaults = dict(
        history=HISTORY,
        horizon=HORIZON,
        hidden=8,
        embedding_dim=4,
        predictor_hidden=8,
        num_neighbors=2,
        seed=seed,
    )
    defaults.update(overrides)
    return SimSTForecaster(num_sensors, adjacency, **defaults)


class TestTopkNeighbors:
    def test_shapes_and_normalization(self):
        rng = np.random.default_rng(1)
        idx, wt = topk_neighbors(rng.random((7, 7)), k=3)
        assert idx.shape == wt.shape == (7, 3)
        assert idx.dtype == np.int64
        np.testing.assert_allclose(wt.sum(axis=1), 1.0)
        assert np.all(wt >= 0)

    def test_no_self_neighbors_and_symmetry(self):
        adjacency = np.array([[0.0, 9.0, 0.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        idx, wt = topk_neighbors(adjacency, k=2)
        for sensor, row in enumerate(idx):
            used = row[wt[sensor] > 0]
            assert sensor not in used
        # direction folds away: 2->0 edge makes 2 a neighbor of 0
        assert 2 in idx[0][wt[0] > 0]

    def test_isolated_sensor_gets_zero_weights(self):
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = 1.0
        _, wt = topk_neighbors(adjacency, k=2)
        np.testing.assert_array_equal(wt[2], 0.0)
        np.testing.assert_array_equal(wt[3], 0.0)

    def test_k_clamped_to_network_size(self):
        idx, _ = topk_neighbors(np.ones((3, 3)), k=10)
        assert idx.shape == (3, 2)  # at most N-1 neighbors exist

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            topk_neighbors(np.ones((3, 4)), k=2)

    def test_deterministic_under_ties(self):
        adjacency = np.ones((5, 5))
        first = topk_neighbors(adjacency, k=2)
        second = topk_neighbors(adjacency, k=2)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestForward:
    @pytest.mark.parametrize("encoder", ["mlp", "gru"])
    def test_output_shape(self, encoder):
        model = tiny_model(encoder=encoder)
        x = np.random.default_rng(2).standard_normal((3, 5, HISTORY, 1))
        out = model(Tensor(x))
        assert out.shape == (3, 5, HORIZON, 1)

    def test_pre_augmented_input_matches_raw(self):
        model = tiny_model()
        x = np.random.default_rng(3).standard_normal((2, 5, HISTORY, 1))
        raw = model(Tensor(x)).data
        augmented = model(Tensor(model.augment(x))).data
        np.testing.assert_array_equal(raw, augmented)

    def test_forecast_is_deterministic(self):
        model = tiny_model()
        x = np.random.default_rng(4).standard_normal((2, 5, HISTORY, 1))
        np.testing.assert_array_equal(model(Tensor(x)).data, model(Tensor(x)).data)

    def test_augment_shape_and_neighbor_channel(self):
        model = tiny_model()
        x = np.random.default_rng(5).standard_normal((2, 5, HISTORY, 1))
        augmented = model.augment(x)
        assert augmented.shape == (2, 5, HISTORY, 2)
        np.testing.assert_array_equal(augmented[..., :1], x)
        expected = np.einsum(
            "nk,bnkhf->bnhf", model._neighbor_wt, x[:, model._neighbor_idx]
        )
        np.testing.assert_array_equal(augmented[..., 1:], expected)

    def test_row_range_augment_is_the_slice_of_the_full_augment(self):
        model = tiny_model()
        x = np.random.default_rng(5).standard_normal((3, 5, HISTORY, 1))
        full = model.augment(x)
        for start, stop in ((0, 2), (2, 5), (1, 4), (0, 5)):
            part = model.augment(x, sensors=(start, stop))
            np.testing.assert_array_equal(part, full[:, start:stop])
        for bad in ((2, 2), (-1, 3), (3, 6)):
            with pytest.raises(ValueError, match="out of range"):
                model.augment(x, sensors=bad)

    def test_graph_free_aggregate_is_zero(self):
        model = SimSTForecaster(
            4, history=HISTORY, horizon=HORIZON, hidden=8, embedding_dim=4,
            predictor_hidden=8,
        )
        x = np.random.default_rng(6).standard_normal((2, 4, HISTORY, 1))
        np.testing.assert_array_equal(model.augment(x)[..., 1:], 0.0)

    def test_explicit_neighbors_bypass_adjacency(self):
        idx = np.array([[1], [0], [0]], dtype=np.int64)
        wt = np.ones((3, 1))
        model = SimSTForecaster(
            3, history=HISTORY, horizon=HORIZON, hidden=8, embedding_dim=4,
            predictor_hidden=8, neighbors=(idx, wt),
        )
        x = np.random.default_rng(7).standard_normal((1, 3, HISTORY, 1))
        np.testing.assert_array_equal(model.augment(x)[0, 0, :, 1], x[0, 1, :, 0])

    def test_input_validation(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="expected \\(B, N, H, F\\)"):
            model(Tensor(rng.standard_normal((5, HISTORY, 1))))
        with pytest.raises(ValueError, match="history"):
            model(Tensor(rng.standard_normal((2, 5, HISTORY + 1, 1))))
        with pytest.raises(ValueError, match="full"):
            model(Tensor(rng.standard_normal((2, 4, HISTORY, 1))))
        with pytest.raises(ValueError, match="expected 5 sensors"):
            model(Tensor(rng.standard_normal((2, 4, HISTORY, 2))))
        with pytest.raises(ValueError, match="features"):
            model(Tensor(rng.standard_normal((2, 5, HISTORY, 3))))
        with pytest.raises(ValueError, match="full"):
            model.augment(rng.standard_normal((2, 4, HISTORY, 1)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="encoder"):
            tiny_model(encoder="transformer")
        with pytest.raises(ValueError, match="neighbors"):
            SimSTForecaster(3, neighbors=(np.zeros((2, 1), dtype=np.int64), np.zeros((2, 1))))
        with pytest.raises(ValueError, match="out of range"):
            SimSTForecaster(3, neighbors=(np.full((3, 1), 7, dtype=np.int64), np.ones((3, 1))))


class TestSensorShard:
    def test_shard_forward_equals_full_slice(self):
        model = tiny_model()
        x = np.random.default_rng(9).standard_normal((2, 5, HISTORY, 1))
        full = model(Tensor(x)).data
        augmented = model.augment(x)
        model.set_sensor_shard(1, 4)
        sliced = model(Tensor(augmented[:, 1:4])).data
        model.clear_sensor_shard()
        np.testing.assert_array_equal(sliced, full[:, 1:4])
        assert model.sensor_shard is None

    def test_shard_bounds_validated(self):
        model = tiny_model()
        for start, stop in [(-1, 2), (2, 2), (3, 1), (0, 6)]:
            with pytest.raises(ValueError, match="shard"):
                model.set_sensor_shard(start, stop)

    def test_sharded_model_rejects_raw_input(self):
        model = tiny_model()
        model.set_sensor_shard(0, 2)
        x = np.random.default_rng(10).standard_normal((2, 2, HISTORY, 1))
        with pytest.raises(ValueError, match="pre-augmented"):
            model(Tensor(x))
        model.clear_sensor_shard()

    def test_shard_sensor_count_validated(self):
        model = tiny_model()
        augmented = model.augment(
            np.random.default_rng(11).standard_normal((1, 5, HISTORY, 1))
        )
        model.set_sensor_shard(0, 2)
        with pytest.raises(ValueError, match="expects 2 sensors"):
            model(Tensor(augmented))  # all 5 sensors, shard wants 2
        model.clear_sensor_shard()

    def test_shardable_contract_flag(self):
        assert SimSTForecaster.sensor_shardable is True


class TestRegistry:
    def test_build_from_spec(self, tiny_dataset):
        spec = BuildSpec(dataset=tiny_dataset, history=12, horizon=12, seed=1)
        model = build_from_spec("simst", spec)
        assert isinstance(model, SimSTForecaster)
        assert model.num_sensors == tiny_dataset.num_sensors
        x = np.random.default_rng(12).standard_normal(
            (2, tiny_dataset.num_sensors, 12, 1)
        )
        assert model(Tensor(x)).shape == (2, tiny_dataset.num_sensors, 12, 1)

    def test_family_is_per_sensor(self):
        from repro.baselines.registry import model_family

        assert model_family("simst") == "per_sensor"

    def test_make_simst_factory(self):
        model = make_simst(4, None, history=HISTORY, horizon=HORIZON, hidden=8,
                           embedding_dim=4, predictor_hidden=8, seed=2)
        assert isinstance(model, SimSTForecaster)
        assert model.history == HISTORY
