"""Dataset persistence round trips and CSV export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import export_sensor_csv, generate_road_network, load_saved_dataset, save_dataset

from .test_data_synthetic import reference_network


def assert_same_graph(graph, expected):
    assert dict(graph.nodes(data=True)) == dict(expected.nodes(data=True))
    weights = {(u, v): w for u, v, w in graph.edges(data="weight")}
    assert weights == {(u, v): w for u, v, w in expected.edges(data="weight")}
    assert all(type(w) is float for w in weights.values())


class TestDatasetRoundtrip:
    def test_arrays_preserved(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        loaded = load_saved_dataset(path)
        np.testing.assert_array_equal(loaded.train_raw, tiny_dataset.train_raw)
        np.testing.assert_array_equal(loaded.val_raw, tiny_dataset.val_raw)
        np.testing.assert_array_equal(loaded.test_raw, tiny_dataset.test_raw)

    def test_scaler_preserved(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        loaded = load_saved_dataset(path)
        assert loaded.scaler.mean == tiny_dataset.scaler.mean
        assert loaded.scaler.std == tiny_dataset.scaler.std
        np.testing.assert_allclose(loaded.train, tiny_dataset.train)

    def test_network_preserved(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        loaded = load_saved_dataset(path)
        np.testing.assert_array_equal(loaded.adjacency, tiny_dataset.adjacency)
        assert loaded.num_sensors == tiny_dataset.num_sensors
        original = tiny_dataset.network.sensors[0]
        restored = loaded.network.sensors[0]
        assert restored.corridor == original.corridor
        assert restored.direction == original.direction
        assert loaded.network.graph.number_of_edges() == int((tiny_dataset.adjacency > 0).sum())

    def test_metadata_preserved(self, tiny_dataset, tmp_path):
        loaded = load_saved_dataset(save_dataset(tiny_dataset, tmp_path / "tiny.npz"))
        assert loaded.name == tiny_dataset.name
        assert loaded.profile == tiny_dataset.profile

    def test_corridor_membership_survives(self, tiny_dataset, tmp_path):
        loaded = load_saved_dataset(save_dataset(tiny_dataset, tmp_path / "tiny.npz"))
        assert loaded.network.corridor_members(0, 0) == tiny_dataset.network.corridor_members(0, 0)


class TestArchiveFormats:
    """The archive carries the edge list; archives with a dense adjacency still load."""

    def test_edge_list_archive_round_trips(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        with np.load(path) as archive:
            assert "adjacency" not in archive.files
            network = tiny_dataset.network
            np.testing.assert_array_equal(archive["edge_src"], network.src)
            np.testing.assert_array_equal(archive["edge_dst"], network.dst)
            np.testing.assert_array_equal(archive["edge_weight"], network.weight)
        loaded = load_saved_dataset(path).network
        for name in ("src", "dst", "weight"):
            assert np.array_equal(getattr(loaded, name), getattr(network, name))
            assert getattr(loaded, name).dtype == getattr(network, name).dtype
        assert np.array_equal(loaded.adjacency, network.adjacency)

    def test_dense_adjacency_archive_loads(self, tiny_dataset, tmp_path):
        # the layout save_dataset wrote before the edge list
        header = {
            "name": tiny_dataset.name,
            "profile": tiny_dataset.profile,
            "scaler_mean": tiny_dataset.scaler.mean,
            "scaler_std": tiny_dataset.scaler.std,
            "sensors": [
                {**vars(s), "coordinates": list(s.coordinates)} for s in tiny_dataset.network.sensors
            ],
        }
        path = tmp_path / "dense.npz"
        np.savez_compressed(
            path,
            train_raw=tiny_dataset.train_raw,
            val_raw=tiny_dataset.val_raw,
            test_raw=tiny_dataset.test_raw,
            adjacency=np.array(tiny_dataset.adjacency),
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        )
        loaded = load_saved_dataset(path)
        network = tiny_dataset.network
        for name in ("src", "dst", "weight"):
            assert np.array_equal(getattr(loaded.network, name), getattr(network, name))
        assert loaded.network.sensors == network.sensors
        np.testing.assert_array_equal(loaded.train_raw, tiny_dataset.train_raw)
        resaved = load_saved_dataset(save_dataset(loaded, tmp_path / "resaved.npz"))
        assert np.array_equal(resaved.adjacency, tiny_dataset.adjacency)


class TestGraphView:
    """``RoadNetwork.graph`` equals the DiGraph the generator used to build eagerly."""

    @pytest.mark.parametrize("num_sensors, num_corridors, seed", [(24, 4, 0), (40, 3, 5), (200, 4, 9)])
    def test_generated_network(self, num_sensors, num_corridors, seed):
        network = generate_road_network(num_sensors, num_corridors=num_corridors, seed=seed)
        _, expected = reference_network(num_sensors, num_corridors, seed)
        assert expected.number_of_edges() > num_sensors - 2 * num_corridors  # chains + interchanges
        assert_same_graph(network.graph, expected)

    def test_after_round_trip(self, tiny_dataset, tmp_path):
        loaded = load_saved_dataset(save_dataset(tiny_dataset, tmp_path / "tiny.npz"))
        assert "graph" not in vars(loaded.network)  # not built by loading
        _, expected = reference_network(8, num_corridors=2, seed=7)
        assert_same_graph(loaded.network.graph, expected)

    def test_built_once_per_network(self):
        network = generate_road_network(12, seed=1)
        assert "graph" not in vars(network)
        graph = network.graph
        assert network.graph is graph
        assert generate_road_network(12, seed=1).graph is not graph


class TestCsvExport:
    def test_export(self, tiny_dataset, tmp_path):
        path = export_sensor_csv(tiny_dataset, 0, tmp_path / "sensor0.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,flow"
        assert len(lines) == tiny_dataset.train_raw.shape[1] + 1

    def test_unknown_split_raises(self, tiny_dataset, tmp_path):
        with pytest.raises(KeyError):
            export_sensor_csv(tiny_dataset, 0, tmp_path / "x.csv", split="holdout")

    def test_values_match(self, tiny_dataset, tmp_path):
        path = export_sensor_csv(tiny_dataset, 1, tmp_path / "sensor1.csv", split="test")
        lines = path.read_text().strip().splitlines()[1:]
        first = float(lines[0].split(",")[1])
        np.testing.assert_allclose(first, tiny_dataset.test_raw[1, 0, 0])

    @pytest.mark.parametrize("sensor_id", [-1, 8, 100])
    def test_out_of_range_sensor_raises(self, tiny_dataset, tmp_path, sensor_id):
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            export_sensor_csv(tiny_dataset, sensor_id, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_last_sensor_exports(self, tiny_dataset, tmp_path):
        path = export_sensor_csv(tiny_dataset, 7, tmp_path / "sensor7.csv", split="val")
        first = float(path.read_text().splitlines()[1].split(",")[1])
        np.testing.assert_allclose(first, tiny_dataset.val_raw[7, 0, 0])
