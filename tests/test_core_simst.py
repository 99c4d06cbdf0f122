"""SimST graph-free forecaster: shapes, proximity encoding, shard contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BuildSpec, build_from_spec
from repro.core import SimSTForecaster, make_simst, topk_neighbors, topk_neighbors_from_edges
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


def dense_topk_oracle(adjacency, k):
    """The dense reference: stable argsort of each ``A + Aᵀ`` row, diagonal zeroed."""
    dense = np.asarray(adjacency, dtype=np.float64)
    num_sensors = dense.shape[0]
    proximity = dense + dense.T
    np.fill_diagonal(proximity, 0.0)
    k = max(1, min(k, num_sensors - 1)) if num_sensors > 1 else 1
    order = np.argsort(-proximity, axis=1, kind="stable")[:, :k]
    weights = np.take_along_axis(proximity, order, axis=1)
    totals = weights.sum(axis=1, keepdims=True)
    weights = weights / np.where(totals > 0, totals, 1.0)
    return order.astype(np.int64), weights


def seeded_adjacency(seed):
    """A small matrix with ties, negatives, cancelling pairs and isolated sensors."""
    rng = np.random.default_rng(seed)
    num_sensors = int(rng.integers(1, 16))
    if rng.random() < 0.5:  # few distinct values: many exact ties
        values = rng.choice([3.0, 1.0, 0.5, -0.5, -1.0], size=(num_sensors, num_sensors))
    else:
        values = rng.standard_normal((num_sensors, num_sensors))
    adjacency = np.where(rng.random((num_sensors, num_sensors)) < rng.random(), values, 0.0)
    for _ in range(int(rng.integers(0, 3))):  # A[i, j] + A[j, i] == 0
        i, j = rng.integers(num_sensors, size=2)
        if i != j:
            adjacency[i, j], adjacency[j, i] = 2.0, -2.0
    for sensor in rng.integers(num_sensors, size=int(rng.integers(0, 3))):
        adjacency[sensor, :] = adjacency[:, sensor] = 0.0
    return adjacency, int(rng.integers(1, num_sensors + 3))  # k >= N included


class TestTopkMatchesDenseOracle:
    """The nonzero-only top-k equals the dense stable argsort bit for bit."""

    def assert_matches(self, adjacency, k):
        indices, weights = topk_neighbors(adjacency, k)
        expected_indices, expected_weights = dense_topk_oracle(adjacency, k)
        assert indices.dtype == np.int64
        assert np.array_equal(indices, expected_indices)
        assert np.array_equal(weights, expected_weights)

    def test_seeded_matrices(self):
        for seed in range(300):
            self.assert_matches(*seeded_adjacency(seed))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_rows_short_of_positives_fill_zeros_then_negatives(self, k):
        adjacency = np.zeros((5, 5))
        adjacency[0, 3] = 1.0  # one positive pair
        adjacency[0, 1], adjacency[1, 0] = 4.0, -4.0  # cancels to zero
        adjacency[2, 4] = adjacency[2, 3] = adjacency[2, 0] = -1.0
        adjacency[2, 1] = -0.5
        self.assert_matches(adjacency, k)
        indices, _ = topk_neighbors(adjacency, 4)
        # row 2: no positives, its own id is the only zero, then negatives
        assert indices[2].tolist() == [2, 1, 0, 3]

    def test_edge_sizes(self):
        for adjacency in (np.zeros((0, 0)), np.zeros((1, 1)), np.ones((1, 1)), np.ones((2, 2))):
            self.assert_matches(adjacency, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        adjacency = np.ones((4, 4))
        adjacency[2, 1] = bad
        with pytest.raises(ValueError, match=r"adjacency\[2, 1\]"):
            topk_neighbors(adjacency, 2)

    def test_simulator_network(self, city):
        network, model = city
        adjacency = network.adjacency
        for k in (1, 2, 8):
            self.assert_matches(adjacency, k)
        expected_indices, expected_weights = dense_topk_oracle(adjacency, 8)
        assert np.array_equal(model._neighbor_idx, expected_indices)
        assert np.array_equal(model._neighbor_wt, expected_weights)
        windows = special_windows(np.random.default_rng(11), 4, CITY_SENSORS, 3, 1)
        assert_same_floats(
            model.augment(windows)[..., 1:],
            sequential_aggregate(expected_indices, expected_weights, windows),
        )

    def test_edge_list_entry_matches_dense_entry(self):
        rng = np.random.default_rng(5)
        for seed in range(300):
            adjacency, k = seeded_adjacency(seed)
            # any edge order, and explicit (signed) zero-weight edges, change nothing
            listed = (adjacency != 0) | (rng.random(adjacency.shape) < 0.1)
            src, dst = np.nonzero(listed)
            weight = adjacency[src, dst]
            weight[(weight == 0) & (rng.random(src.size) < 0.5)] = -0.0
            order = rng.permutation(src.size)
            got = topk_neighbors_from_edges(
                adjacency.shape[0], src[order], dst[order], weight[order], k
            )
            expected = topk_neighbors(adjacency, k)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_edge_list_validation(self):
        src, dst, weight = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="differ in length"):
            topk_neighbors_from_edges(3, src, dst[:1], weight, 2)
        with pytest.raises(ValueError, match="out of range"):
            topk_neighbors_from_edges(2, src, dst, weight, 2)
        with pytest.raises(ValueError, match="more than once"):
            topk_neighbors_from_edges(3, [0, 0], [1, 1], [1.0, 2.0], 2)
        with pytest.raises(ValueError, match=r"adjacency\[1, 2\]"):
            topk_neighbors_from_edges(3, src, dst, [1.0, np.nan], 2)


CITY_SENSORS = 2000


@pytest.fixture(scope="module")
def city():
    """The N=2000 simulator network and a SimST built on its dense adjacency."""
    from repro.data import SyntheticTrafficConfig, TrafficSimulator

    config = SyntheticTrafficConfig(num_sensors=CITY_SENSORS, num_days=4, seed=11)
    network = TrafficSimulator(config).network
    model = SimSTForecaster(CITY_SENSORS, network.adjacency, history=12, horizon=12, seed=11)
    return network, model


def held_arrays(*roots):
    """Every ndarray reachable from ``roots`` through instance state and containers."""
    import gc
    import types

    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, str, bytes)
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
        stack.extend(getattr(obj, "__dict__", {}).values())
    return found


class TestNoDenseNetworkState:
    """At city scale nothing the dataset or SimST keeps is an (N, N) array."""

    def test_no_held_array_has_n_squared_elements(self):
        from repro.data import (
            StandardScaler,
            SyntheticTrafficConfig,
            TrafficDataset,
            TrafficSimulator,
            chronological_split,
        )

        simulator = TrafficSimulator(
            SyntheticTrafficConfig(num_sensors=CITY_SENSORS, num_days=4, seed=11)
        )
        train_raw, val_raw, test_raw = chronological_split(simulator.generate())
        scaler = StandardScaler().fit(train_raw)
        dataset = TrafficDataset(
            name="CITY", profile="test",
            train=scaler.transform(train_raw), val=scaler.transform(val_raw),
            test=scaler.transform(test_raw),
            train_raw=train_raw, val_raw=val_raw, test_raw=test_raw,
            scaler=scaler, network=simulator.network,
        )
        model = SimSTForecaster(
            CITY_SENSORS, dataset.adjacency, history=12, horizon=12, seed=11
        )
        arrays = held_arrays(dataset, model, simulator)
        assert any(a is dataset.network.weight for a in arrays)  # the walk reaches the network
        assert any(a is model._neighbor_idx for a in arrays)
        largest = max(a.size for a in arrays)
        assert largest < CITY_SENSORS**2, f"an array of {largest} elements is held"

    def test_adjacency_read_only_and_equal_to_reference(self, city):
        from .test_data_synthetic import reference_network

        network, _ = city
        adjacency = network.adjacency
        assert adjacency.shape == (CITY_SENSORS, CITY_SENSORS)
        assert not adjacency.flags.writeable
        expected, _ = reference_network(CITY_SENSORS, seed=11)
        assert np.array_equal(adjacency, expected.adjacency)
        assert len(network.weight) < 2 * CITY_SENSORS  # at most two edges per sensor


def sequential_aggregate(indices, weights, windows):
    """The aggregate channel summed the slow way: ``0 + w₀x₀ + w₁x₁ + …`` per row."""
    batch, num_sensors, history, features = windows.shape
    by_sensor = windows.transpose(1, 0, 2, 3).reshape(num_sensors, -1)
    total = np.zeros((len(indices), by_sensor.shape[1]))
    with np.errstate(invalid="ignore"):
        for column in range(indices.shape[1]):
            total = total + weights[:, column, None] * by_sensor[indices[:, column]]
    return total.reshape(len(indices), batch, history, features).transpose(1, 0, 2, 3)


def special_windows(rng, batch, num_sensors, history, features):
    """Random windows sprinkled with NaNs, infinities and negative zeros."""
    windows = rng.standard_normal((batch, num_sensors, history, features))
    draw = rng.random(windows.shape)
    windows[draw < 0.2] = -0.0
    windows[draw > 0.97] = np.nan
    windows[(draw > 0.95) & (draw <= 0.96)] = np.inf
    return windows


def assert_same_floats(got, expected):
    """``==`` plus ``signbit`` wherever a value is a number; NaN in the same places."""
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], expected[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


def seeded_neighbors(rng, num_sensors):
    """Neighbor tables with zero-weight fills, negative zeros and isolated sensors."""
    k = int(rng.integers(1, 10))
    indices = rng.integers(num_sensors, size=(num_sensors, k))
    weights = rng.standard_normal((num_sensors, k))
    draw = rng.random((num_sensors, k))
    weights[draw < 0.3] = 0.0
    weights[draw > 0.9] = -0.0
    weights[rng.random(num_sensors) < 0.2] = 0.0  # isolated: every weight zero
    return indices, weights


class TestAugmentMatchesSequentialOracle:
    """``augment`` sums each row's neighbors in stored order, bit for bit."""

    def check(self, seed):
        rng = np.random.default_rng(seed)
        num_sensors = int(rng.integers(1, 200))  # up to four aggregate blocks
        indices, weights = seeded_neighbors(rng, num_sensors)
        # B·H·F == 1 included: a single aggregated column
        batch, history, features = (int(v) for v in rng.integers(1, 4, size=3))
        model = SimSTForecaster(
            num_sensors, history=history, horizon=2, in_features=features,
            hidden=4, embedding_dim=2, predictor_hidden=4,
            neighbors=(indices, weights), seed=seed,
        )
        windows = special_windows(rng, batch, num_sensors, history, features)
        full = model.augment(windows)
        assert np.array_equal(full[..., :features], windows, equal_nan=True)
        assert_same_floats(full[..., features:], sequential_aggregate(indices, weights, windows))
        for _ in range(3):  # ragged ranges are slices of the full result
            start = int(rng.integers(num_sensors))
            stop = int(rng.integers(start + 1, num_sensors + 1))
            part = model.augment(windows, sensors=(start, stop))
            assert_same_floats(part, full[:, start:stop])

    def test_seeded_tables(self):
        for seed in range(200):
            self.check(seed)

    @pytest.mark.parametrize("sensors", [(0, 2000), (0, 1000), (1000, 2000), (17, 1234)])
    def test_equals_the_csr_product(self, city, sensors):
        """The formulation it replaced: one SciPy CSR product (skipped without SciPy)."""
        sparse = pytest.importorskip("scipy.sparse")
        _, model = city
        idx, wt = model._neighbor_idx, model._neighbor_wt
        n, k = idx.shape
        matrix = sparse.csr_matrix((wt.ravel(), idx.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))
        windows = special_windows(np.random.default_rng(33), 16, n, 12, 1)
        start, stop = sensors
        by_sensor = windows.transpose(1, 0, 2, 3).reshape(n, -1)
        expected = (matrix[start:stop] @ by_sensor).reshape(stop - start, 16, 12, 1)
        got = model.augment(windows, sensors=sensors)[..., 1:]
        assert_same_floats(got, expected.transpose(1, 0, 2, 3))


class TestRegistryBuildsFromEdges:
    """``build_from_spec("simst")`` reads the edge list, never an (N, N) matrix."""

    def test_neighbors_equal_the_dense_path_without_dense_memory(self, city):
        import tracemalloc

        from repro.data import StandardScaler, TrafficDataset

        network, dense_model = city
        split = np.zeros((CITY_SENSORS, 1, 1))
        dataset = TrafficDataset(
            name="CITY", profile="test", train=split, val=split, test=split,
            train_raw=split, val_raw=split, test_raw=split,
            scaler=StandardScaler().fit(split), network=network,
        )
        spec = BuildSpec(dataset=dataset, history=12, horizon=12, seed=11)
        tracemalloc.start()
        try:
            model = build_from_spec("simst", spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(model._neighbor_idx, dense_model._neighbor_idx)
        assert np.array_equal(model._neighbor_wt, dense_model._neighbor_wt)
        assert peak < CITY_SENSORS**2 * 8, f"build peaked at {peak} bytes"


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
