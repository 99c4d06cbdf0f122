"""Synthetic road-network generation.

Real PEMS deployments put loop detectors along highway corridors; sensors on
the same corridor and direction see strongly correlated, lagged traffic,
while different corridors have distinct daily profiles (paper Fig. 1).  We
generate networks with exactly that structure: a set of corridors, each a
directed chain of sensors, with two travel directions per corridor and a few
interchange links between corridors.

The weighted ``(N, N)`` adjacency array *is* the network: every model and
workload reads it directly.  A ``networkx.DiGraph`` view is built on first
access to :attr:`RoadNetwork.graph`, so only code that asks for it imports
networkx.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Tuple

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


@dataclass
class RoadNetwork:
    """A road network: sensor metadata plus its weighted adjacency."""

    sensors: List[SensorMeta]
    adjacency: np.ndarray  # (N, N) weighted, directed (upstream -> downstream)

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    @cached_property
    def graph(self) -> "nx.DiGraph":
        """The network as a ``networkx.DiGraph``, built once on first access.

        One node per sensor carrying its :class:`SensorMeta` fields, and one
        edge per nonzero adjacency entry carrying that entry as ``weight``.
        The view is not refreshed if ``adjacency`` is mutated afterwards.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for sensor in self.sensors:
            graph.add_node(sensor.sensor_id, **sensor.__dict__)
        rows, cols = np.nonzero(self.adjacency)
        for row, col in zip(rows.tolist(), cols.tolist()):
            graph.add_edge(row, col, weight=float(self.adjacency[row, col]))
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

    adjacency = np.zeros((num_sensors, num_sensors))
    # chain each corridor/direction
    for corridor in range(num_corridors):
        for direction in (0, 1):
            chain = [s for s in sensors if s.corridor == corridor and s.direction == direction]
            chain.sort(key=lambda s: s.position)
            for upstream, downstream in zip(chain[:-1], chain[1:]):
                weight = float(np.exp(-0.5 * rng.random()))
                adjacency[upstream.sensor_id, downstream.sensor_id] = weight

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
                weight = float(0.3 * np.exp(-0.5 * rng.random()))
                adjacency[sensor.sensor_id, target] = weight

    return RoadNetwork(sensors=sensors, adjacency=adjacency)
