"""Synthetic traffic-flow time series calibrated to PEMS characteristics.

Substitute for the proprietary-download PEMS03/04/07/08 datasets (offline
environment).  The generator reproduces the phenomena the paper's model is
designed to exploit, so the *relative* ordering of methods is preserved:

* **location-distinct daily profiles** (paper Fig. 1): each corridor draws
  its own profile — some have AM+PM peaks, others a single AM peak with a
  slow afternoon decay;
* **direction asymmetry**: inbound carriageways peak in the morning,
  outbound in the evening;
* **temporal regimes**: weekday vs weekend profiles differ (flatter, later,
  lower on weekends) — the signal temporal-aware parameters can exploit;
* **sensor correlations**: downstream flow follows upstream flow with a
  1-2 step lag along each corridor — the signal graph/sensor-correlation
  modules exploit;
* **incidents**: occasional capacity drops spanning a stretch of road, so
  patterns deviate from the daily template (motivating time-varying
  parameters);
* **measurement noise** at realistic levels.

Flow units are vehicles / 5 minutes with magnitudes matching PEMS districts
(tens to hundreds), so MAE/RMSE land in the same numeric range as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph_gen import RoadNetwork, generate_road_network

STEPS_PER_HOUR = 12  # 5-minute sampling, as in PEMS
STEPS_PER_DAY = 24 * STEPS_PER_HOUR
STEPS_PER_WEEK = 7 * STEPS_PER_DAY


@dataclass
class SyntheticTrafficConfig:
    """Knobs of the traffic simulator."""

    num_sensors: int = 24
    num_days: int = 21
    num_corridors: int = 4
    seed: int = 0
    base_flow_low: float = 120.0
    base_flow_high: float = 320.0
    noise_std: float = 8.0
    incident_rate_per_day: float = 0.25  # expected incidents per corridor per day
    incident_min_steps: int = 6  # 30 minutes
    incident_max_steps: int = 36  # 3 hours
    propagation_lag: int = 1  # steps of upstream->downstream delay
    propagation_strength: float = 0.35
    weekend_scale: float = 0.62
    start_weekday: int = 0  # 0 = Monday
    missing_rate: float = 0.0  # fraction of readings zeroed (sensor dropouts)


def _daily_profile_bimodal(hours: np.ndarray, am_peak: float, pm_peak: float, width: float) -> np.ndarray:
    """Two rush-hour bumps over a low nighttime base (Fig. 1 sensors 1-2)."""
    am = np.exp(-0.5 * ((hours - am_peak) / width) ** 2)
    pm = 0.9 * np.exp(-0.5 * ((hours - pm_peak) / width) ** 2)
    base = 0.18 + 0.12 * np.sin(np.pi * np.clip((hours - 6) / 14, 0, 1))
    return base + am + pm


def _daily_profile_decay(hours: np.ndarray, am_peak: float, width: float) -> np.ndarray:
    """One AM peak followed by a gradual decline (Fig. 1 sensors 3-4)."""
    am = np.exp(-0.5 * ((hours - am_peak) / width) ** 2)
    tail = 0.65 * np.clip((hours - am_peak) / (24 - am_peak), 0, 1)
    decline = np.where(hours > am_peak, np.maximum(0.75 - tail, 0.15), 0.2)
    return 0.15 + am + decline * (hours > am_peak)


def _weekend_profile(hours: np.ndarray, midday_peak: float) -> np.ndarray:
    """Single flat midday bump — leisure traffic."""
    return 0.2 + 0.7 * np.exp(-0.5 * ((hours - midday_peak) / 3.5) ** 2)


class TrafficSimulator:
    """Generates ``(N, T, F)`` traffic-flow series on a road network."""

    def __init__(self, config: Optional[SyntheticTrafficConfig] = None):
        self.config = config or SyntheticTrafficConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.network: RoadNetwork = generate_road_network(
            self.config.num_sensors,
            num_corridors=self.config.num_corridors,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------ #
    def generate(self) -> np.ndarray:
        """Produce the flow tensor ``(num_sensors, num_days * 288, 1)``."""
        cfg = self.config
        total_steps = cfg.num_days * STEPS_PER_DAY
        hours_of_day = (np.arange(total_steps) % STEPS_PER_DAY) / STEPS_PER_HOUR
        weekday = ((np.arange(total_steps) // STEPS_PER_DAY) + cfg.start_weekday) % 7
        is_weekend = weekday >= 5

        flows = np.zeros((cfg.num_sensors, total_steps))
        corridor_styles = self._corridor_styles()
        base_flows = self._rng.uniform(cfg.base_flow_low, cfg.base_flow_high, size=cfg.num_sensors)

        chains = {
            (corridor, direction): self.network.corridor_members(corridor, direction)
            for corridor in range(cfg.num_corridors)
            for direction in (0, 1)
        }
        # a profile depends only on (corridor, direction): one per chain
        for (corridor, direction), chain in chains.items():
            if not chain:
                continue
            profile = self._sensor_profile(hours_of_day, is_weekend, corridor_styles[corridor], direction)
            flows[chain] = base_flows[chain, None] * profile

        self._apply_propagation(flows, chains)
        self._apply_incidents(flows, total_steps, chains)
        flows += self._rng.normal(0.0, cfg.noise_std, size=flows.shape)
        np.maximum(flows, 0.0, out=flows)
        if cfg.missing_rate > 0:
            # PEMS loop detectors drop out; readings are recorded as 0 and
            # masked out of MAPE downstream (training.metrics)
            dropout = self._rng.random(flows.shape) < cfg.missing_rate
            flows[dropout] = 0.0
        return flows[..., None]

    # ------------------------------------------------------------------ #
    def _corridor_styles(self) -> list[dict]:
        """Each corridor draws its own profile family and peak hours."""
        styles = []
        for corridor in range(self.config.num_corridors):
            family = "bimodal" if corridor % 2 == 0 else "decay"
            styles.append(
                {
                    "family": family,
                    "am_peak": float(self._rng.uniform(7.2, 9.0)),
                    "pm_peak": float(self._rng.uniform(16.3, 18.2)),
                    "width": float(self._rng.uniform(1.1, 1.8)),
                    "weekend_peak": float(self._rng.uniform(12.0, 15.0)),
                }
            )
        return styles

    def _sensor_profile(
        self,
        hours: np.ndarray,
        is_weekend: np.ndarray,
        style: dict,
        direction: int,
    ) -> np.ndarray:
        if style["family"] == "bimodal":
            first, second = style["am_peak"], style["pm_peak"]
            if direction == 1:  # outbound: swap peak dominance to the evening
                first, second = second, first
            weekday_profile = _daily_profile_bimodal(hours, first, second, style["width"])
        else:
            peak = style["am_peak"] if direction == 0 else style["pm_peak"]
            weekday_profile = _daily_profile_decay(hours, peak, style["width"])
        weekend_profile = self.config.weekend_scale * _weekend_profile(hours, style["weekend_peak"])
        return np.where(is_weekend, weekend_profile, weekday_profile)

    def _apply_propagation(self, flows: np.ndarray, chains: Dict[Tuple[int, int], List[int]]) -> None:
        """Mix lagged upstream flow into each downstream sensor along corridors.

        Each downstream sensor takes in its upstream neighbour's series
        delayed by ``lag`` steps; the first ``lag`` steps, which have no past
        to draw on, take the undelayed values.
        """
        lag = self.config.propagation_lag
        if lag < 0:
            raise ValueError(f"propagation_lag must be >= 0, got {lag}")
        strength = self.config.propagation_strength
        total = flows.shape[1]
        lag = min(lag, total)
        for chain in chains.values():
            for upstream_id, downstream_id in zip(chain[:-1], chain[1:]):
                upstream, downstream = flows[upstream_id], flows[downstream_id]
                downstream *= 1 - strength
                downstream[lag:] += strength * upstream[: total - lag]
                downstream[:lag] += strength * upstream[:lag]

    def _apply_incidents(
        self, flows: np.ndarray, total_steps: int, chains: Dict[Tuple[int, int], List[int]]
    ) -> None:
        """Randomly drop capacity on a stretch of corridor for a while."""
        cfg = self.config
        expected = cfg.incident_rate_per_day * cfg.num_days * cfg.num_corridors
        num_incidents = int(self._rng.poisson(expected))
        for _ in range(num_incidents):
            corridor = int(self._rng.integers(cfg.num_corridors))
            direction = int(self._rng.integers(2))
            chain = chains[corridor, direction]
            if len(chain) < 2:
                continue
            start_idx = int(self._rng.integers(len(chain)))
            affected = chain[start_idx : start_idx + 3]
            onset = int(self._rng.integers(total_steps - cfg.incident_max_steps - 1))
            duration = int(self._rng.integers(cfg.incident_min_steps, cfg.incident_max_steps + 1))
            severity = float(self._rng.uniform(0.35, 0.75))
            window = slice(onset, onset + duration)
            ramp = np.ones(duration)
            fade = max(1, duration // 4)
            ramp[:fade] = np.linspace(1.0, severity, fade)
            ramp[fade:] = severity
            ramp[-fade:] = np.linspace(severity, 1.0, fade)
            for sensor_id in affected:
                flows[sensor_id, window] *= ramp


def generate_traffic(config: Optional[SyntheticTrafficConfig] = None) -> tuple[np.ndarray, RoadNetwork]:
    """Convenience: simulate and return ``(flows (N, T, 1), network)``."""
    simulator = TrafficSimulator(config)
    return simulator.generate(), simulator.network
