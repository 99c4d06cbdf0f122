"""The paper's contribution: ST-aware parameter generation + window attention.

Public surface:

* :class:`STWA` / :class:`STWAConfig` — the full forecasting model.
* :class:`STLatent`, :class:`SpatialLatent`, :class:`TemporalLatentEncoder`
  — stochastic latent variables Θ = z + z_t (Eq. 4-7).
* :class:`ParameterDecoder` — D_ω, latent -> model parameters (Eq. 8).
* :class:`WindowAttention`, :class:`ProxyAggregator` — linear-complexity
  attention with proxies (Eq. 10-14).
* :class:`SensorCorrelationAttention` — Eq. 15-16.
* :class:`STAwareTransformer`, :class:`STAwareGRU` — the model-agnostic
  enhancements of Table VII.
* :class:`STWALoss` — Huber + α·KL (Eq. 20-21).
* ``make_*`` factories — paper-named variants for ablations.
"""

from .flows import FlowSTLatent, PlanarFlow
from .generator import ParameterDecoder
from .latent import SpatialLatent, STLatent, TemporalLatentEncoder
from .loss import STWALoss
from .model import STWA, STWAConfig
from .sensor_attention import SensorCorrelationAttention
from .simst import SimSTForecaster, make_simst, topk_neighbors, topk_neighbors_from_edges
from .st_attention import STAttentionConfig, STAwareTransformer
from .st_gru import STAwareGRU, STGRUConfig
from .st_tcn import STAwareTCN, STTCNConfig
from .variants import (
    default_window_sizes,
    make_flow_st_wa,
    make_deterministic_st_wa,
    make_mean_aggregator_st_wa,
    make_s_wa,
    make_st_wa,
    make_wa,
    make_wa1,
)
from .window_attention import ProxyAggregator, WindowAttention

__all__ = [
    "STWA",
    "STWAConfig",
    "STLatent",
    "SpatialLatent",
    "TemporalLatentEncoder",
    "ParameterDecoder",
    "WindowAttention",
    "ProxyAggregator",
    "SensorCorrelationAttention",
    "STAwareTransformer",
    "STAttentionConfig",
    "STAwareGRU",
    "STGRUConfig",
    "STAwareTCN",
    "STTCNConfig",
    "STWALoss",
    "make_st_wa",
    "make_s_wa",
    "make_wa",
    "make_wa1",
    "make_deterministic_st_wa",
    "make_flow_st_wa",
    "FlowSTLatent",
    "PlanarFlow",
    "make_mean_aggregator_st_wa",
    "default_window_sizes",
    "SimSTForecaster",
    "make_simst",
    "topk_neighbors",
    "topk_neighbors_from_edges",
]
