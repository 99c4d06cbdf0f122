"""The traffic simulator must generate the structure the paper exploits."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.data import (
    STEPS_PER_DAY,
    SyntheticTrafficConfig,
    TrafficSimulator,
    generate_traffic,
)
from repro.data import synthetic
from repro.data.graph_gen import RoadNetwork, SensorMeta, generate_road_network


@pytest.fixture(scope="module")
def simulated():
    config = SyntheticTrafficConfig(num_sensors=16, num_days=14, num_corridors=4, seed=11)
    simulator = TrafficSimulator(config)
    return simulator, simulator.generate()


class TestRoadNetwork:
    def test_validation(self):
        with pytest.raises(ValueError):
            generate_road_network(1)
        with pytest.raises(ValueError):
            generate_road_network(10, num_corridors=0)

    def test_sensor_count_and_metadata(self):
        net = generate_road_network(20, num_corridors=3, seed=0)
        assert net.num_sensors == 20
        assert {s.direction for s in net.sensors} <= {0, 1}
        assert {s.corridor for s in net.sensors} <= set(range(3))

    def test_corridor_chains_are_connected(self):
        net = generate_road_network(24, num_corridors=2, seed=0)
        chain = net.corridor_members(0, 0)
        assert len(chain) >= 2
        for upstream, downstream in zip(chain[:-1], chain[1:]):
            assert net.adjacency[upstream, downstream] > 0

    def test_adjacency_is_directed_chain(self):
        net = generate_road_network(24, num_corridors=2, seed=0, interchange_probability=0.0)
        chain = net.corridor_members(1, 1)
        # downstream -> upstream edges must not exist without interchanges
        for upstream, downstream in zip(chain[:-1], chain[1:]):
            assert net.adjacency[downstream, upstream] == 0

    def test_deterministic_given_seed(self):
        a = generate_road_network(12, seed=5).adjacency
        b = generate_road_network(12, seed=5).adjacency
        np.testing.assert_array_equal(a, b)


class TestEdgeList:
    """A RoadNetwork keeps a sorted edge list and builds dense views on demand."""

    def sensors(self, count):
        return generate_road_network(count, seed=0).sensors

    def test_edges_sorted_row_major_and_read_only(self):
        net = generate_road_network(200, seed=3)
        assert net.src.dtype == net.dst.dtype == np.int64 and net.weight.dtype == np.float64
        key = net.src * net.num_sensors + net.dst
        assert np.all(np.diff(key) > 0)
        assert np.all(net.weight > 0)
        for array in (net.src, net.dst, net.weight):
            assert not array.flags.writeable

    def test_adjacency_is_fresh_read_only_and_uncached(self):
        net = generate_road_network(30, seed=2)
        first, second = net.adjacency, net.adjacency
        assert first is not second and not np.shares_memory(first, second)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert np.array_equal(first, second)
        assert np.array_equal(np.flatnonzero(first), net.src * 30 + net.dst)
        assert "adjacency" not in vars(net)

    def test_dense_round_trip_is_exact(self):
        dense = np.random.default_rng(0).random((6, 6)) * (np.random.default_rng(1).random((6, 6)) < 0.4)
        net = RoadNetwork(self.sensors(6), dense)
        assert np.array_equal(net.adjacency, dense)
        again = RoadNetwork(self.sensors(6), edges=(net.src, net.dst, net.weight))
        assert np.array_equal(again.adjacency, dense)

    def test_edges_are_sorted_and_zero_weights_dropped(self):
        net = RoadNetwork(self.sensors(4), edges=([3, 0, 2, 0], [1, 2, 0, 1], [0.5, 2.0, 0.0, 1.0]))
        assert net.src.tolist() == [0, 0, 3]
        assert net.dst.tolist() == [1, 2, 1]
        assert net.weight.tolist() == [1.0, 2.0, 0.5]

    def test_invalid_edges_rejected(self):
        sensors = self.sensors(4)
        with pytest.raises(ValueError, match="more than once"):
            RoadNetwork(sensors, edges=([0, 1, 0], [1, 2, 1], [1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="out of range"):
            RoadNetwork(sensors, edges=([0], [4], [1.0]))
        with pytest.raises(ValueError, match="length"):
            RoadNetwork(sensors, edges=([0, 1], [1], [1.0]))
        with pytest.raises(ValueError, match="exactly one"):
            RoadNetwork(sensors)
        with pytest.raises(ValueError, match="exactly one"):
            RoadNetwork(sensors, np.zeros((4, 4)), edges=([0], [1], [1.0]))
        with pytest.raises(ValueError, match=r"\(4, 4\)"):
            RoadNetwork(sensors, np.zeros((3, 3)))


class TestTrafficGeneration:
    def test_output_shape_and_nonnegative(self, simulated):
        _, flows = simulated
        assert flows.shape == (16, 14 * STEPS_PER_DAY, 1)
        assert flows.min() >= 0.0

    def test_flow_magnitude_matches_pems_range(self, simulated):
        _, flows = simulated
        assert 30 < flows.mean() < 400  # vehicles / 5 min, PEMS-like
        assert flows.max() < 1500

    def test_weekday_weekend_regimes_differ(self, simulated):
        """Fig 1: weekend patterns differ from weekday patterns."""
        _, flows = simulated
        series = flows[0, :, 0]
        days = series.reshape(14, STEPS_PER_DAY)
        weekday = days[[0, 1, 2, 3, 4, 7, 8]].mean(axis=0)
        weekend = days[[5, 6, 12, 13]].mean(axis=0)
        correlation = np.corrcoef(weekday, weekend)[0, 1]
        assert correlation < 0.95  # regimes are genuinely different

    def test_weekday_profile_repeats(self, simulated):
        """Same weekday across weeks should be highly correlated."""
        _, flows = simulated
        series = flows[0, :, 0]
        days = series.reshape(14, STEPS_PER_DAY)
        correlation = np.corrcoef(days[0], days[7])[0, 1]  # two Mondays
        assert correlation > 0.9

    def test_same_corridor_more_correlated_than_cross(self, simulated):
        """Fig 1: sensors on the same street share patterns."""
        simulator, flows = simulated
        same = simulator.network.corridor_members(0, 0)
        other = simulator.network.corridor_members(1, 0)
        same_corr = np.corrcoef(flows[same[0], :, 0], flows[same[1], :, 0])[0, 1]
        cross_corr = np.corrcoef(flows[same[0], :, 0], flows[other[0], :, 0])[0, 1]
        assert same_corr > cross_corr

    def test_directions_have_asymmetric_peaks(self):
        """Inbound peaks in the morning, outbound in the evening."""
        config = SyntheticTrafficConfig(
            num_sensors=8, num_days=7, num_corridors=2, seed=3, noise_std=0.0,
            incident_rate_per_day=0.0,
        )
        simulator = TrafficSimulator(config)
        flows = simulator.generate()
        inbound = simulator.network.corridor_members(0, 0)[0]
        outbound = simulator.network.corridor_members(0, 1)[0]
        day = slice(0, STEPS_PER_DAY)  # a weekday
        am = slice(6 * 12, 10 * 12)
        pm = slice(15 * 12, 19 * 12)
        inbound_day = flows[inbound, day, 0]
        outbound_day = flows[outbound, day, 0]
        assert inbound_day[am].mean() > inbound_day[pm].mean()
        assert outbound_day[pm].mean() > outbound_day[am].mean()

    def test_propagation_creates_lagged_correlation(self):
        config = SyntheticTrafficConfig(
            num_sensors=8, num_days=7, num_corridors=1, seed=3, noise_std=2.0,
            propagation_strength=0.5, incident_rate_per_day=0.0,
        )
        simulator = TrafficSimulator(config)
        flows = simulator.generate()
        chain = simulator.network.corridor_members(0, 0)
        upstream, downstream = flows[chain[0], :, 0], flows[chain[1], :, 0]
        lag = config.propagation_lag
        lagged = np.corrcoef(upstream[:-lag], downstream[lag:])[0, 1]
        assert lagged > 0.9

    def test_incidents_cause_local_drops(self):
        quiet = SyntheticTrafficConfig(
            num_sensors=8, num_days=7, num_corridors=2, seed=5, incident_rate_per_day=0.0, noise_std=0.0
        )
        busy = SyntheticTrafficConfig(
            num_sensors=8, num_days=7, num_corridors=2, seed=5, incident_rate_per_day=3.0, noise_std=0.0
        )
        base = TrafficSimulator(quiet).generate()
        with_incidents = TrafficSimulator(busy).generate()
        assert with_incidents.sum() < base.sum()  # incidents remove flow

    def test_deterministic_given_seed(self):
        config = SyntheticTrafficConfig(num_sensors=6, num_days=3, seed=9)
        a, _ = generate_traffic(config)
        b, _ = generate_traffic(config)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a, _ = generate_traffic(SyntheticTrafficConfig(num_sensors=6, num_days=3, seed=1))
        b, _ = generate_traffic(SyntheticTrafficConfig(num_sensors=6, num_days=3, seed=2))
        assert not np.allclose(a, b)


# --------------------------------------------------------------------------- #
# Reference implementation kept as a test oracle: one profile per sensor,
# ``np.roll`` propagation, a full scan of every sensor per interchange, and
# a DiGraph built edge by edge alongside the adjacency.  The simulator must
# reproduce it bit for bit.
# --------------------------------------------------------------------------- #
def reference_network(num_sensors, num_corridors=4, seed=0, interchange_probability=0.15):
    """``(RoadNetwork, eagerly built nx.DiGraph)`` for the given parameters."""
    rng = np.random.default_rng(seed)
    lanes = max(1, 2 * num_corridors)
    sensors = []
    counters = [0] * lanes
    for sensor_id in range(num_sensors):
        lane = sensor_id % lanes
        corridor, direction = divmod(lane, 2)
        position = counters[lane]
        counters[lane] += 1
        angle = 2.0 * np.pi * corridor / num_corridors
        radius = 1.0 + position + 0.1 * rng.standard_normal()
        offset = 0.05 if direction == 0 else -0.05
        x = radius * np.cos(angle) + offset * np.sin(angle)
        y = radius * np.sin(angle) - offset * np.cos(angle)
        sensors.append(SensorMeta(sensor_id, corridor, direction, position, (float(x), float(y))))

    graph = nx.DiGraph()
    for sensor in sensors:
        graph.add_node(sensor.sensor_id, **sensor.__dict__)
    adjacency = np.zeros((num_sensors, num_sensors))
    for corridor in range(num_corridors):
        for direction in (0, 1):
            chain = [s for s in sensors if s.corridor == corridor and s.direction == direction]
            chain.sort(key=lambda s: s.position)
            for upstream, downstream in zip(chain[:-1], chain[1:]):
                weight = float(np.exp(-0.5 * rng.random()))
                graph.add_edge(upstream.sensor_id, downstream.sensor_id, weight=weight)
                adjacency[upstream.sensor_id, downstream.sensor_id] = weight

    for sensor in sensors:
        if rng.random() < interchange_probability:
            other_corridor = int(rng.integers(num_corridors))
            if other_corridor == sensor.corridor:
                continue
            candidates = [
                s
                for s in sensors
                if s.corridor == other_corridor and abs(s.position - sensor.position) <= 1
            ]
            if candidates:
                target = candidates[int(rng.integers(len(candidates)))]
                weight = float(0.3 * np.exp(-0.5 * rng.random()))
                graph.add_edge(sensor.sensor_id, target.sensor_id, weight=weight)
                adjacency[sensor.sensor_id, target.sensor_id] = weight
    return RoadNetwork(sensors=sensors, adjacency=adjacency), graph


def _reference_profile(cfg, hours, is_weekend, style, direction):
    if style["family"] == "bimodal":
        weekday = synthetic._daily_profile_bimodal(hours, style["am_peak"], style["pm_peak"], style["width"])
        if direction == 1:
            weekday = synthetic._daily_profile_bimodal(hours, style["pm_peak"], style["am_peak"], style["width"])
    else:
        peak = style["am_peak"] if direction == 0 else style["pm_peak"]
        weekday = synthetic._daily_profile_decay(hours, peak, style["width"])
    weekend = cfg.weekend_scale * synthetic._weekend_profile(hours, style["weekend_peak"])
    return np.where(is_weekend, weekend, weekday)


def _reference_generate(cfg):
    network, _ = reference_network(cfg.num_sensors, cfg.num_corridors, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    total_steps = cfg.num_days * STEPS_PER_DAY
    hours = (np.arange(total_steps) % STEPS_PER_DAY) / synthetic.STEPS_PER_HOUR
    weekday = ((np.arange(total_steps) // STEPS_PER_DAY) + cfg.start_weekday) % 7
    is_weekend = weekday >= 5

    flows = np.zeros((cfg.num_sensors, total_steps))
    styles = []
    for corridor in range(cfg.num_corridors):
        styles.append(
            {
                "family": "bimodal" if corridor % 2 == 0 else "decay",
                "am_peak": float(rng.uniform(7.2, 9.0)),
                "pm_peak": float(rng.uniform(16.3, 18.2)),
                "width": float(rng.uniform(1.1, 1.8)),
                "weekend_peak": float(rng.uniform(12.0, 15.0)),
            }
        )
    base_flows = rng.uniform(cfg.base_flow_low, cfg.base_flow_high, size=cfg.num_sensors)
    for sensor in network.sensors:
        profile = _reference_profile(cfg, hours, is_weekend, styles[sensor.corridor], sensor.direction)
        flows[sensor.sensor_id] = base_flows[sensor.sensor_id] * profile

    lag, strength = cfg.propagation_lag, cfg.propagation_strength
    for corridor in range(cfg.num_corridors):
        for direction in (0, 1):
            chain = network.corridor_members(corridor, direction)
            for upstream_id, downstream_id in zip(chain[:-1], chain[1:]):
                lagged = np.roll(flows[upstream_id], lag)
                lagged[:lag] = flows[upstream_id][:lag]
                flows[downstream_id] = (1 - strength) * flows[downstream_id] + strength * lagged

    expected = cfg.incident_rate_per_day * cfg.num_days * cfg.num_corridors
    for _ in range(int(rng.poisson(expected))):
        corridor = int(rng.integers(cfg.num_corridors))
        direction = int(rng.integers(2))
        chain = network.corridor_members(corridor, direction)
        if len(chain) < 2:
            continue
        start_idx = int(rng.integers(len(chain)))
        onset = int(rng.integers(total_steps - cfg.incident_max_steps - 1))
        duration = int(rng.integers(cfg.incident_min_steps, cfg.incident_max_steps + 1))
        severity = float(rng.uniform(0.35, 0.75))
        ramp = np.ones(duration)
        fade = max(1, duration // 4)
        ramp[:fade] = np.linspace(1.0, severity, fade)
        ramp[fade:] = severity
        ramp[-fade:] = np.linspace(severity, 1.0, fade)
        for sensor_id in chain[start_idx : start_idx + 3]:
            flows[sensor_id, onset : onset + duration] *= ramp

    flows += rng.normal(0.0, cfg.noise_std, size=flows.shape)
    np.maximum(flows, 0.0, out=flows)
    if cfg.missing_rate > 0:
        flows[rng.random(flows.shape) < cfg.missing_rate] = 0.0
    return flows[..., None], network


class TestMatchesReferenceSimulator:
    @pytest.mark.parametrize(
        "config",
        [
            SyntheticTrafficConfig(),
            SyntheticTrafficConfig(num_sensors=2000, num_days=4, seed=7),
            SyntheticTrafficConfig(num_sensors=40, num_days=3, seed=2, propagation_lag=0),
            SyntheticTrafficConfig(num_sensors=40, num_days=3, seed=2, propagation_lag=2),
            SyntheticTrafficConfig(num_sensors=30, num_days=3, seed=4, missing_rate=0.05),
            SyntheticTrafficConfig(num_sensors=12, num_days=3, seed=6, num_corridors=1),
        ],
        ids=["default", "n2000-4days", "lag0", "lag2", "missing", "one-corridor"],
    )
    def test_bit_identical(self, config):
        simulator = TrafficSimulator(config)
        flows = simulator.generate()
        expected_flows, expected_network = _reference_generate(config)
        assert np.array_equal(flows, expected_flows)
        assert np.array_equal(simulator.network.adjacency, expected_network.adjacency)
        assert simulator.network.sensors == expected_network.sensors

    def test_reference_exercises_interchanges_and_incidents(self):
        config = SyntheticTrafficConfig(num_sensors=2000, num_days=4, seed=7)
        network = TrafficSimulator(config).network
        corridor = np.array([s.corridor for s in network.sensors])
        rows, cols = np.nonzero(network.adjacency)
        assert (corridor[rows] != corridor[cols]).sum() > 100  # interchange edges
        quiet = SyntheticTrafficConfig(num_sensors=2000, num_days=4, seed=7, noise_std=0.0)
        calm = SyntheticTrafficConfig(
            num_sensors=2000, num_days=4, seed=7, noise_std=0.0, incident_rate_per_day=0.0
        )
        assert TrafficSimulator(quiet).generate().sum() < TrafficSimulator(calm).generate().sum()

    def test_negative_lag_rejected(self):
        config = SyntheticTrafficConfig(num_sensors=8, num_days=1, propagation_lag=-1)
        with pytest.raises(ValueError, match="propagation_lag"):
            TrafficSimulator(config).generate()
