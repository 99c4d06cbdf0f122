"""ST-aware TCN: generated convolution filters (completing the
model-agnostic claim).

Section IV-A.1 of the paper: the decoder "can produce model parameters for
different types of models", naming RNNs, TCNs, and attentions.  Table VII
demonstrates RNNs (GRU+S/+ST) and attentions (ATT+S/+ST); this module adds
the third family: a causal temporal convolution whose *filters* are decoded
per sensor (and per time window in "st" mode) from the latent Θ_t^(i).
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
class STTCNConfig:
    """Hyper-parameters of the enhanced TCN forecaster."""

    num_sensors: int
    in_features: int = 1
    history: int = 12
    horizon: int = 12
    channels: int = 16
    kernel_size: int = 2
    num_layers: int = 2
    latent_dim: int = 8
    latent_mode: str = "st"  # "st" -> TCN+ST, "spatial" -> TCN+S
    decoder_hidden: Tuple[int, ...] = (16, 32)
    predictor_hidden: int = 128
    seed: int = 0


class STAwareTCN(Module):
    """Causal TCN whose filters come from the ST-aware parameter generator.

    Each layer's kernel ``(K, C_in, C_out)`` is decoded per sensor from Θ;
    the convolution is applied with per-sensor weights via batched matmuls
    over the taps.  ``forward(x)``: ``(B, N, H, F)`` -> ``(B, N, U, F)``.
    """

    def __init__(self, config: STTCNConfig):
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
        shapes = {}
        in_channels = config.in_features
        for layer in range(config.num_layers):
            for tap in range(config.kernel_size):
                shapes[f"l{layer}t{tap}"] = (in_channels, config.channels)
            shapes[f"l{layer}b"] = (1, config.channels)
            in_channels = config.channels
        self.decoder = ParameterDecoder(config.latent_dim, shapes, hidden=config.decoder_hidden, rng=rng)
        self.predictor = MLP(
            [config.channels, config.predictor_hidden, config.horizon * config.in_features],
            activation="relu",
            rng=rng,
        )
        self._last_kl: Optional[Tensor] = None

    def forward(self, x: Tensor) -> Tensor:
        batch, sensors, history, features = x.shape
        cfg = self.config
        theta = self.latent(x)
        self._last_kl = self.latent.kl_divergence()
        weights = self.decoder(theta)

        hidden = x
        for layer in range(cfg.num_layers):
            dilation = 2**layer
            left = (cfg.kernel_size - 1) * dilation
            pad_width = [(0, 0)] * (hidden.ndim - 2) + [(left, 0), (0, 0)]
            padded = ops.pad(hidden, pad_width)
            out = None
            for tap in range(cfg.kernel_size):
                start = tap * dilation
                slab = padded[:, :, start : start + history, :]  # (B, N, H, C_in)
                kernel = weights[f"l{layer}t{tap}"]  # (..., N, C_in, C_out)
                term = ops.matmul(slab, kernel)
                out = term if out is None else out + term
            bias = weights[f"l{layer}b"]  # (..., N, 1, C_out)
            out = out + bias
            out = ops.tanh(out)
            if out.shape[-1] == hidden.shape[-1]:
                out = out + hidden  # residual once channel widths align
            hidden = out

        last = hidden[:, :, -1, :]
        prediction = self.predictor(last)
        return ops.reshape(prediction, (batch, sensors, cfg.horizon, cfg.in_features))

    def kl_divergence(self) -> Optional[Tensor]:
        return self._last_kl
