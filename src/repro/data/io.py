"""Dataset persistence: save/load simulated datasets, CSV export.

A release-quality dataset pipeline needs reproducible artifacts: these
helpers freeze a simulated :class:`TrafficDataset` to a single ``.npz``
(including the road network's edge list and scaler statistics) and export
per-sensor CSVs for inspection in external tools.  Archives written before
the edge list, which carry a dense ``adjacency`` instead, still load.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from .datasets import TrafficDataset
from .graph_gen import RoadNetwork, SensorMeta
from .scalers import StandardScaler

PathLike = Union[str, Path]


def save_dataset(dataset: TrafficDataset, path: PathLike) -> Path:
    """Freeze a dataset bundle (splits, scaler, graph, metadata) to ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sensor_meta = [
        {
            "sensor_id": s.sensor_id,
            "corridor": s.corridor,
            "direction": s.direction,
            "position": s.position,
            "coordinates": list(s.coordinates),
        }
        for s in dataset.network.sensors
    ]
    header = json.dumps(
        {
            "name": dataset.name,
            "profile": dataset.profile,
            "scaler_mean": dataset.scaler.mean,
            "scaler_std": dataset.scaler.std,
            "sensors": sensor_meta,
        }
    )
    np.savez_compressed(
        path,
        train_raw=dataset.train_raw,
        val_raw=dataset.val_raw,
        test_raw=dataset.test_raw,
        edge_src=dataset.network.src,
        edge_dst=dataset.network.dst,
        edge_weight=dataset.network.weight,
        header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
    )
    return path


def load_saved_dataset(path: PathLike) -> TrafficDataset:
    """Load a dataset frozen by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        header = json.loads(archive["header"].tobytes().decode("utf-8"))
        train_raw = archive["train_raw"]
        val_raw = archive["val_raw"]
        test_raw = archive["test_raw"]
        if "adjacency" in archive.files:  # dense layout of older archives
            adjacency, edges = archive["adjacency"], None
        else:
            adjacency = None
            edges = (archive["edge_src"], archive["edge_dst"], archive["edge_weight"])

    sensors = [
        SensorMeta(
            sensor_id=s["sensor_id"],
            corridor=s["corridor"],
            direction=s["direction"],
            position=s["position"],
            coordinates=tuple(s["coordinates"]),
        )
        for s in header["sensors"]
    ]
    network = RoadNetwork(sensors, adjacency, edges=edges)

    scaler = StandardScaler()
    scaler.mean = header["scaler_mean"]
    scaler.std = header["scaler_std"]
    return TrafficDataset(
        name=header["name"],
        profile=header["profile"],
        train=scaler.transform(train_raw),
        val=scaler.transform(val_raw),
        test=scaler.transform(test_raw),
        train_raw=train_raw,
        val_raw=val_raw,
        test_raw=test_raw,
        scaler=scaler,
        network=network,
    )


def export_sensor_csv(dataset: TrafficDataset, sensor_id: int, path: PathLike, split: str = "train") -> Path:
    """Write one sensor's raw series (timestamp index, flow) to CSV."""
    raw = {"train": dataset.train_raw, "val": dataset.val_raw, "test": dataset.test_raw}
    if split not in raw:
        raise KeyError(f"split must be one of {sorted(raw)}")
    num_sensors = raw[split].shape[0]
    if not 0 <= sensor_id < num_sensors:
        raise ValueError(f"sensor_id {sensor_id} out of range [0, {num_sensors})")
    series = raw[split][sensor_id, :, 0]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "flow"])
        writer.writerows(enumerate(series.tolist()))
    return path
