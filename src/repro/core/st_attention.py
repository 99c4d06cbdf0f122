"""ST-aware canonical self-attention (paper Eq. 9 / Table VII's ATT+S, ATT+ST).

Demonstrates that the parameter-generation framework is *model-agnostic*:
the same latent/decoder machinery that powers ST-WA here generates the
Q/K/V projection matrices of a plain Transformer-style forecaster, turning
the spatio-temporal agnostic ATT baseline into ATT+S (spatial-aware) or
ATT+ST (spatio-temporal aware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn import MLP, Linear, Module, ModuleList
from ..tensor import Tensor, ops
from .generator import ParameterDecoder
from .latent import STLatent


@dataclass
class STAttentionConfig:
    """Hyper-parameters for the enhanced canonical-attention forecaster."""

    num_sensors: int
    in_features: int = 1
    history: int = 12
    horizon: int = 12
    model_dim: int = 16
    latent_dim: int = 8
    num_layers: int = 2
    latent_mode: str = "st"  # "st" -> ATT+ST, "spatial" -> ATT+S
    decoder_hidden: Tuple[int, ...] = (16, 32)
    predictor_hidden: int = 128
    seed: int = 0


class STAwareAttentionLayer(Module):
    """One canonical attention layer with *generated* projections (Eq. 9)."""

    def __init__(self, in_features: int, model_dim: int, latent_dim: int, decoder_hidden, rng):
        super().__init__()
        self.model_dim = model_dim
        self.decoder = ParameterDecoder(
            latent_dim,
            {"Q": (in_features, model_dim), "K": (in_features, model_dim), "V": (in_features, model_dim)},
            hidden=decoder_hidden,
            rng=rng,
        )

    def forward(self, x: Tensor, theta: Tensor) -> Tensor:
        """``x (B, N, H, F)``, ``theta (B, N, k)`` or ``(N, k)`` -> ``(B, N, H, d)``."""
        projections = self.decoder(theta)
        query = ops.matmul(x, projections["Q"])
        key = ops.matmul(x, projections["K"])
        value = ops.matmul(x, projections["V"])
        scale = 1.0 / np.sqrt(self.model_dim)
        scores = ops.softmax(ops.matmul(query, ops.swapaxes(key, -1, -2)) * scale, axis=-1)
        return ops.matmul(scores, value)


class STAwareTransformer(Module):
    """Stacked ST-aware attention + predictor (the +S / +ST rows of Table VII)."""

    def __init__(self, config: STAttentionConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.latent = STLatent(
            config.num_sensors,
            config.history,
            config.in_features,
            config.latent_dim,
            mode=config.latent_mode,
            rng=rng,
        )
        self.layers = ModuleList()
        in_features = config.in_features
        for _ in range(config.num_layers):
            self.layers.append(
                STAwareAttentionLayer(in_features, config.model_dim, config.latent_dim, config.decoder_hidden, rng)
            )
            in_features = config.model_dim
        self.predictor = MLP(
            [config.history * config.model_dim, config.predictor_hidden, config.horizon * config.in_features],
            activation="relu",
            rng=rng,
        )
        self._last_kl: Optional[Tensor] = None

    def forward(self, x: Tensor) -> Tensor:
        batch, sensors, history, _ = x.shape
        cfg = self.config
        theta = self.latent(x)
        self._last_kl = self.latent.kl_divergence()
        hidden = x
        for layer in self.layers:
            hidden = layer(hidden, theta)
        flat = ops.reshape(hidden, (batch, sensors, history * cfg.model_dim))
        out = self.predictor(flat)
        return ops.reshape(out, (batch, sensors, cfg.horizon, cfg.in_features))

    def kl_divergence(self) -> Optional[Tensor]:
        return self._last_kl
