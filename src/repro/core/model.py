"""The full ST-WA forecasting model (paper Section IV-D, Fig. 8).

Stacked window-attention layers with spatio-temporal aware Key/Value
projections, sensor-correlation attention per layer, skip connections from
every layer to the predictor (Eq. 17-18), and a two-layer ReLU predictor
(Eq. 19).  The input length shrinks by the window size at every layer
(H -> H/S1 -> H/(S1 S2) ...), which keeps the stack linear in H overall.

The same class covers the paper's ablations through its configuration:

==============  =======================================================
Paper variant   Configuration
==============  =======================================================
ST-WA           ``latent_mode="st"`` (default)
S-WA            ``latent_mode="spatial"``
WA              ``latent_mode=None`` (static, agnostic projections)
WA-1            ``window_sizes=(H,)`` single layer, or any 1-layer stack
Deterministic   ``deterministic=True`` (Table XI)
Mean aggregator ``aggregator="mean"`` (Table XIV)
==============  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import MLP, Linear, Module, ModuleList
from ..tensor import Tensor, ops
from .generator import ParameterDecoder
from .latent import STLatent
from .sensor_attention import SensorCorrelationAttention
from .window_attention import WindowAttention


@dataclass
class STWAConfig:
    """Hyper-parameters of ST-WA (defaults follow the paper, scaled down).

    The paper's default for H=12 stacks 3 layers with window sizes (3, 2, 2)
    and p=1; for H=72 it uses (6, 6, 6)-style stacks with p=2.
    """

    num_sensors: int
    in_features: int = 1
    history: int = 12
    horizon: int = 12
    model_dim: int = 16
    latent_dim: int = 8
    window_sizes: Tuple[int, ...] = (3, 2, 2)
    num_proxies: int = 1
    num_heads: int = 1
    latent_mode: Optional[str] = "st"  # "st" | "spatial" | "temporal" | None
    deterministic: bool = False
    aggregator: str = "weighted"
    sensor_attention: bool = True
    flow_layers: int = 0  # >0 enables normalizing-flow latents (future work)
    skip_dim: int = 32
    predictor_hidden: int = 128
    decoder_hidden: Tuple[int, ...] = (16, 32)
    encoder_hidden: int = 32
    seed: int = 0

    def layer_lengths(self) -> List[int]:
        """Input length of each layer; validates divisibility."""
        lengths = [self.history]
        for size in self.window_sizes:
            if lengths[-1] % size:
                raise ValueError(
                    f"window sizes {self.window_sizes} do not divide history "
                    f"{self.history}: layer input {lengths[-1]} % {size} != 0"
                )
            lengths.append(lengths[-1] // size)
        return lengths[:-1]  # input length per layer


class STWA(Module):
    """Spatio-Temporal Aware Window Attention forecaster.

    ``forward(x)`` maps ``(B, N, H, F)`` histories to ``(B, N, U, F)``
    forecasts.  After a forward pass, :meth:`kl_divergence` exposes the KL
    regularizer of the latent variables for the loss (Eq. 20).
    """

    def __init__(self, config: STWAConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        lengths = config.layer_lengths()

        if config.latent_mode is not None:
            latent_kwargs = dict(
                mode=config.latent_mode,
                deterministic=config.deterministic,
                encoder_hidden=config.encoder_hidden,
                rng=rng,
            )
            if config.flow_layers > 0:
                from .flows import FlowSTLatent

                self.latent = FlowSTLatent(
                    config.num_sensors,
                    config.history,
                    config.in_features,
                    config.latent_dim,
                    flow_layers=config.flow_layers,
                    **latent_kwargs,
                )
            else:
                self.latent = STLatent(
                    config.num_sensors,
                    config.history,
                    config.in_features,
                    config.latent_dim,
                    **latent_kwargs,
                )
        else:
            self.latent = None

        self.layers = ModuleList()
        self.decoders = ModuleList()
        self.sensor_attentions = ModuleList()
        self.skips = ModuleList()
        in_features = config.in_features
        for depth, (length, window_size) in enumerate(zip(lengths, config.window_sizes)):
            num_windows = length // window_size
            self.layers.append(
                WindowAttention(
                    config.num_sensors,
                    in_features,
                    config.model_dim,
                    num_windows,
                    window_size,
                    num_proxies=config.num_proxies,
                    num_heads=config.num_heads,
                    aggregator=config.aggregator,
                    static_projections=config.latent_mode is None,
                    rng=rng,
                )
            )
            if self.latent is not None:
                self.decoders.append(
                    ParameterDecoder(
                        config.latent_dim,
                        {"K": (in_features, config.model_dim), "V": (in_features, config.model_dim)},
                        hidden=config.decoder_hidden,
                        rng=rng,
                    )
                )
            if config.sensor_attention:
                self.sensor_attentions.append(SensorCorrelationAttention(config.model_dim, rng=rng))
            # skip connection: flatten this layer's (W_l, d) output to skip_dim
            self.skips.append(Linear(num_windows * config.model_dim, config.skip_dim, rng=rng))
            in_features = config.model_dim

        self.predictor = MLP(
            [config.skip_dim, config.predictor_hidden, config.horizon * config.in_features],
            activation="relu",
            rng=rng,
        )
        self._last_kl: Optional[Tensor] = None

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        batch, sensors, history, features = x.shape
        cfg = self.config
        if history != cfg.history:
            raise ValueError(f"expected history {cfg.history}, got {history}")

        projections: Optional[List[Dict[str, Tensor]]] = None
        if self.latent is not None:
            theta = self.latent(x)
            self._last_kl = self.latent.kl_divergence()
            projections = [decoder(theta) for decoder in self.decoders]
        else:
            self._last_kl = None

        hidden = x
        skip_total: Optional[Tensor] = None
        for depth, layer in enumerate(self.layers):
            generated = projections[depth] if projections is not None else None
            out = layer(hidden, generated)  # (B, N, W, d)
            if cfg.sensor_attention:
                mixed = ops.swapaxes(out, 1, 2)  # (B, W, N, d)
                mixed = self.sensor_attentions[depth](mixed)
                out = ops.swapaxes(mixed, 1, 2)
            flat = ops.reshape(out, (batch, sensors, out.shape[2] * cfg.model_dim))
            skip = self.skips[depth](flat)  # (B, N, skip_dim)
            skip_total = skip if skip_total is None else skip_total + skip
            hidden = out

        prediction = self.predictor(ops.relu(skip_total))
        return ops.reshape(prediction, (batch, sensors, cfg.horizon, cfg.in_features))

    def kl_divergence(self) -> Optional[Tensor]:
        """KL regularizer of the latest forward pass (None when agnostic)."""
        return self._last_kl

    # ------------------------------------------------------------------ #
    def generated_projections(self, x: Tensor) -> List[Dict[str, Tensor]]:
        """Decode the projection matrices for input ``x`` (analysis helper).

        Used by the Figure 9 reproduction to embed the generated φ_t^(i)
        with t-SNE.  Returns one ``{"K": ..., "V": ...}`` dict per layer.
        """
        if self.latent is None:
            raise RuntimeError("model is spatio-temporal agnostic; nothing is generated")
        theta = self.latent(x)
        return [decoder(theta) for decoder in self.decoders]
