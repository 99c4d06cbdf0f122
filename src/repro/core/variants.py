"""Factories for the paper's model variants and ablations (Table VIII etc.).

Each factory takes the shared experiment dimensions and returns a ready
model; they exist so harness code and tests name variants the way the paper
does (SA, WA-1, WA, S-WA, ST-WA, deterministic, mean-aggregator).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .model import STWA, STWAConfig


def _base_config(
    num_sensors: int,
    history: int,
    horizon: int,
    window_sizes: Optional[Tuple[int, ...]],
    seed: int,
    **overrides,
) -> STWAConfig:
    if window_sizes is None:
        window_sizes = default_window_sizes(history)
    return STWAConfig(
        num_sensors=num_sensors,
        history=history,
        horizon=horizon,
        window_sizes=window_sizes,
        seed=seed,
        **overrides,
    )


def default_window_sizes(history: int) -> Tuple[int, ...]:
    """The paper's stacking: (3, 2, 2) for H=12, (6, 6, ...) style for long H.

    For other H values we greedily pick small divisors so the stack depth
    is ~3 and every layer length divides evenly.
    """
    if history == 12:
        return (3, 2, 2)
    if history == 72:
        return (6, 6, 2)
    sizes = []
    remaining = history
    for _ in range(3):
        for candidate in (3, 2, 4, 6, 5):
            if remaining % candidate == 0 and remaining // candidate >= 1:
                sizes.append(candidate)
                remaining //= candidate
                break
        else:
            break
        if remaining == 1:
            break
    if not sizes:
        sizes = [history]
    return tuple(sizes)


def make_st_wa(
    num_sensors: int,
    history: int = 12,
    horizon: int = 12,
    window_sizes: Optional[Tuple[int, ...]] = None,
    seed: int = 0,
    **overrides,
) -> STWA:
    """Full ST-WA: spatio-temporal aware window attention (the paper's model)."""
    overrides.setdefault("latent_mode", "st")
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))


def make_s_wa(num_sensors: int, history: int = 12, horizon: int = 12, window_sizes=None, seed: int = 0, **overrides) -> STWA:
    """S-WA ablation: spatial-aware only (z_t removed)."""
    overrides.setdefault("latent_mode", "spatial")
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))


def make_wa(num_sensors: int, history: int = 12, horizon: int = 12, window_sizes=None, seed: int = 0, **overrides) -> STWA:
    """WA ablation: stacked window attention, agnostic (static) projections."""
    overrides.setdefault("latent_mode", None)
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))


def make_wa1(num_sensors: int, history: int = 12, horizon: int = 12, window_size: Optional[int] = None, seed: int = 0, **overrides) -> STWA:
    """WA-1 ablation: a single window-attention layer (no stacking)."""
    size = window_size if window_size is not None else (3 if history % 3 == 0 else history)
    overrides.setdefault("latent_mode", None)
    return STWA(_base_config(num_sensors, history, horizon, (size,), seed, **overrides))


def make_deterministic_st_wa(num_sensors: int, history: int = 12, horizon: int = 12, window_sizes=None, seed: int = 0, **overrides) -> STWA:
    """Deterministic ST-WA (Table XI): latents collapse to their means, no KL."""
    overrides.setdefault("latent_mode", "st")
    overrides.setdefault("deterministic", True)
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))


def make_flow_st_wa(num_sensors: int, history: int = 12, horizon: int = 12, window_sizes=None, flow_layers: int = 2, seed: int = 0, **overrides) -> STWA:
    """ST-WA with normalizing-flow (non-Gaussian) latents — the paper's
    stated future-work extension (see :mod:`repro.core.flows`)."""
    overrides.setdefault("latent_mode", "st")
    overrides.setdefault("flow_layers", flow_layers)
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))


def make_mean_aggregator_st_wa(num_sensors: int, history: int = 12, horizon: int = 12, window_sizes=None, seed: int = 0, **overrides) -> STWA:
    """ST-WA with the uniform mean proxy aggregator (Table XIV)."""
    overrides.setdefault("latent_mode", "st")
    overrides.setdefault("aggregator", "mean")
    return STWA(_base_config(num_sensors, history, horizon, window_sizes, seed, **overrides))
