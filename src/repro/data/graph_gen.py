"""Synthetic road-network generation.

Real PEMS deployments put loop detectors along highway corridors; sensors on
the same corridor and direction see strongly correlated, lagged traffic,
while different corridors have distinct daily profiles (paper Fig. 1).  We
generate networks with exactly that structure: a set of corridors, each a
directed chain of sensors, with two travel directions per corridor and a few
interchange links between corridors.

A :class:`RoadNetwork` stores its weighted directed edges as a row-major
sorted edge list (``src``, ``dst``, ``weight``), so its state grows with
the number of edges (at most two per sensor here), not with N².  Graph
models that want the dense ``(N, N)`` matrix read
:attr:`RoadNetwork.adjacency`, which builds a fresh read-only array on
every read and keeps none.  A ``networkx.DiGraph`` view is built on first
access to :attr:`RoadNetwork.graph`, so only code that asks for it imports
networkx.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    import networkx as nx


@dataclass(frozen=True)
class SensorMeta:
    """Static description of one sensor (node in the road graph)."""

    sensor_id: int
    corridor: int
    direction: int  # 0 = inbound (AM-peaked), 1 = outbound (PM-peaked)
    position: int  # index along the corridor (upstream -> downstream)
    coordinates: Tuple[float, float]


class RoadNetwork:
    """A road network: sensor metadata plus its weighted directed edge list.

    Build it from a dense ``adjacency`` (its nonzero entries become the
    edges) or from ``edges=(src, dst, weight)``.  Either way the edges are
    kept sorted row-major (by ``src``, then ``dst``), as read-only int64
    ``src``/``dst`` and float64 ``weight`` arrays; a zero-weight edge is no
    edge, and a repeated ``(src, dst)`` pair is an error.
    """

    def __init__(
        self,
        sensors: List[SensorMeta],
        adjacency: Optional[np.ndarray] = None,
        *,
        edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ):
        if (adjacency is None) == (edges is None):
            raise ValueError("pass exactly one of adjacency or edges")
        self.sensors = sensors
        num_sensors = len(sensors)
        if adjacency is not None:
            dense = np.asarray(adjacency, dtype=np.float64)
            if dense.shape != (num_sensors, num_sensors):
                raise ValueError(
                    f"adjacency must be ({num_sensors}, {num_sensors}), got {dense.shape}"
                )
            src, dst = np.nonzero(dense)  # already row-major
            weight = dense[src, dst]
        else:
            src, dst = (np.asarray(ends, dtype=np.int64).ravel() for ends in edges[:2])
            weight = np.asarray(edges[2], dtype=np.float64).ravel()
            if not src.shape == dst.shape == weight.shape:
                raise ValueError(
                    f"edge arrays differ in length: {src.size}, {dst.size}, {weight.size}"
                )
            ends = np.concatenate([src, dst])
            if ends.size and (ends.min() < 0 or ends.max() >= num_sensors):
                raise ValueError(f"edge endpoint out of range for {num_sensors} sensors")
            order = np.lexsort((dst, src))
            src, dst, weight = src[order], dst[order], weight[order]
            repeated = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if repeated.any():
                at = int(np.argmax(repeated))
                raise ValueError(f"edge ({src[at]}, {dst[at]}) given more than once")
            keep = weight != 0
            src, dst, weight = src[keep], dst[keep], weight[keep]
        self.src = src.astype(np.int64, copy=False)
        self.dst = dst.astype(np.int64, copy=False)
        self.weight = weight
        # fresh arrays (nonzero / fancy indexing): freezing them touches no
        # caller's data
        for array in (self.src, self.dst, self.weight):
            array.flags.writeable = False

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    @property
    def adjacency(self) -> np.ndarray:
        """A fresh read-only ``(N, N)`` weighted adjacency, built on each read.

        ``adjacency[u, v]`` is the weight of the edge ``u -> v`` (upstream
        to downstream), 0 where there is none.  Nothing is cached: hold the
        result only as long as you need it.
        """
        dense = np.zeros((self.num_sensors, self.num_sensors))
        dense[self.src, self.dst] = self.weight
        dense.flags.writeable = False
        return dense

    @cached_property
    def graph(self) -> "nx.DiGraph":
        """The network as a ``networkx.DiGraph``, built once on first access.

        One node per sensor carrying its :class:`SensorMeta` fields, and one
        edge per stored edge, in row-major order, carrying its ``weight``.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for sensor in self.sensors:
            graph.add_node(sensor.sensor_id, **sensor.__dict__)
        for row, col, weight in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()):
            graph.add_edge(row, col, weight=weight)
        return graph

    def corridor_members(self, corridor: int, direction: int) -> List[int]:
        """Sensor ids along one corridor/direction, upstream first."""
        members = [s for s in self.sensors if s.corridor == corridor and s.direction == direction]
        members.sort(key=lambda s: s.position)
        return [s.sensor_id for s in members]


def generate_road_network(
    num_sensors: int,
    num_corridors: int = 4,
    seed: int = 0,
    interchange_probability: float = 0.15,
) -> RoadNetwork:
    """Generate a corridor-structured road network with ``num_sensors`` nodes.

    Sensors are distributed round-robin over ``num_corridors`` corridors and
    two directions per corridor.  Consecutive sensors in a corridor/direction
    are linked upstream->downstream with distance-decayed weights; a few
    random interchange edges connect different corridors, mimicking highway
    junctions.
    """
    if num_sensors < 2:
        raise ValueError("need at least 2 sensors")
    if num_corridors < 1:
        raise ValueError("need at least 1 corridor")
    rng = np.random.default_rng(seed)
    lanes = max(1, 2 * num_corridors)  # corridor x direction combinations
    sensors: List[SensorMeta] = []
    counters = [0] * lanes
    for sensor_id in range(num_sensors):
        lane = sensor_id % lanes
        corridor, direction = divmod(lane, 2)
        position = counters[lane]
        counters[lane] += 1
        # corridors fan out at distinct angles from a common origin
        angle = 2.0 * np.pi * corridor / num_corridors
        radius = 1.0 + position + 0.1 * rng.standard_normal()
        offset = 0.05 if direction == 0 else -0.05  # two carriageways
        x = radius * np.cos(angle) + offset * np.sin(angle)
        y = radius * np.sin(angle) - offset * np.cos(angle)
        sensors.append(SensorMeta(sensor_id, corridor, direction, position, (float(x), float(y))))

    src: List[int] = []
    dst: List[int] = []
    weights: List[float] = []
    # chain each corridor/direction
    for corridor in range(num_corridors):
        for direction in (0, 1):
            chain = [s for s in sensors if s.corridor == corridor and s.direction == direction]
            chain.sort(key=lambda s: s.position)
            for upstream, downstream in zip(chain[:-1], chain[1:]):
                src.append(upstream.sensor_id)
                dst.append(downstream.sensor_id)
                weights.append(float(np.exp(-0.5 * rng.random())))

    # interchanges between corridors at matching positions
    at_position: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for sensor in sensors:
        at_position[sensor.corridor, sensor.position].append(sensor.sensor_id)
    for sensor in sensors:
        if rng.random() < interchange_probability:
            other_corridor = int(rng.integers(num_corridors))
            if other_corridor == sensor.corridor:
                continue
            # every sensor of the other corridor within one position, in
            # sensor-id order (ids grow with position within a corridor)
            candidates = [
                sensor_id
                for position in (sensor.position - 1, sensor.position, sensor.position + 1)
                for sensor_id in at_position.get((other_corridor, position), ())
            ]
            if candidates:
                target = candidates[int(rng.integers(len(candidates)))]
                src.append(sensor.sensor_id)
                dst.append(target)
                weights.append(float(0.3 * np.exp(-0.5 * rng.random())))

    return RoadNetwork(sensors, edges=(src, dst, weights))
