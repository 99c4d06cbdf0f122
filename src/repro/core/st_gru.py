"""ST-aware GRU (paper Table VII's GRU+S / GRU+ST).

The second half of the model-agnostic claim: the same latent/decoder
machinery generates per-sensor (and optionally per-sample) GRU gate weights,
turning a spatio-temporal agnostic GRU into a spatio-temporal aware one.
The generated parameters are the input-to-gates matrix ``W_x (F, 3h)``, the
hidden-to-gates matrix ``W_h (h, 3h)``, and the gate bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn import MLP, Module
from ..tensor import Tensor, ops
from .generator import ParameterDecoder
from .latent import STLatent


@dataclass
class STGRUConfig:
    """Hyper-parameters of the enhanced GRU forecaster."""

    num_sensors: int
    in_features: int = 1
    history: int = 12
    horizon: int = 12
    hidden_size: int = 16
    latent_dim: int = 8
    latent_mode: str = "st"  # "st" -> GRU+ST, "spatial" -> GRU+S
    decoder_hidden: Tuple[int, ...] = (16, 32)
    predictor_hidden: int = 128
    seed: int = 0


class STAwareGRU(Module):
    """GRU forecaster whose cell weights are generated from Θ_t^(i).

    ``forward(x)`` maps ``(B, N, H, F)`` to ``(B, N, U, F)``; the recurrence
    runs along H with the generated per-sensor gate weights.
    """

    def __init__(self, config: STGRUConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        h = config.hidden_size
        self.latent = STLatent(
            config.num_sensors,
            config.history,
            config.in_features,
            config.latent_dim,
            mode=config.latent_mode,
            rng=rng,
        )
        self.decoder = ParameterDecoder(
            config.latent_dim,
            {
                "Wx": (config.in_features, 3 * h),
                "Wh": (h, 3 * h),
                "b": (1, 3 * h),
            },
            hidden=config.decoder_hidden,
            rng=rng,
        )
        self.predictor = MLP(
            [h, config.predictor_hidden, config.horizon * config.in_features],
            activation="relu",
            rng=rng,
        )
        self._last_kl: Optional[Tensor] = None

    def forward(self, x: Tensor) -> Tensor:
        batch, sensors, history, features = x.shape
        cfg = self.config
        h_size = cfg.hidden_size
        theta = self.latent(x)
        self._last_kl = self.latent.kl_divergence()
        weights = self.decoder(theta)
        weight_x = weights["Wx"]  # (..., N, F, 3h)
        weight_h = weights["Wh"]  # (..., N, h, 3h)
        bias = ops.reshape(weights["b"], (*weights["b"].shape[:-2], 3 * h_size))  # (..., N, 3h)

        hidden = Tensor(np.zeros((batch, sensors, h_size)))
        for t in range(history):
            step = x[:, :, t, :]  # (B, N, F)
            gates_x = ops.sum(ops.reshape(step, (batch, sensors, features, 1)) * weight_x, axis=-2) + bias
            gates_h = ops.sum(ops.reshape(hidden, (batch, sensors, h_size, 1)) * weight_h, axis=-2)
            reset = ops.sigmoid(gates_x[..., :h_size] + gates_h[..., :h_size])
            update = ops.sigmoid(
                gates_x[..., h_size : 2 * h_size] + gates_h[..., h_size : 2 * h_size]
            )
            candidate = ops.tanh(gates_x[..., 2 * h_size :] + reset * gates_h[..., 2 * h_size :])
            hidden = update * hidden + (1.0 - update) * candidate

        out = self.predictor(hidden)
        return ops.reshape(out, (batch, sensors, cfg.horizon, cfg.in_features))

    def kl_divergence(self) -> Optional[Tensor]:
        return self._last_kl
