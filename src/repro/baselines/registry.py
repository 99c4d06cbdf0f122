"""Model zoo: build any model in the paper's tables by name.

Names match the paper's column headers (case-insensitive):

ST-agnostic  — LongFormer, DCRNN, STGCN, STG2Seq, GWN, STSGCN, ASTGNN,
               STFGNN, GRU, ATT
S-aware      — EnhanceNet, AGCRN, GRU+S, ATT+S
T-aware      — meta-LSTM
ST-aware     — ST-WA, GRU+ST, ATT+ST
Ablations    — SA, WA-1, WA, S-WA, ST-WA-det, ST-WA-mean
Classical    — Persistence, WindowMean, VAR

Construction API
----------------
Builders take a single keyword-friendly :class:`BuildSpec` — dataset, task
shape, seed, and free-form hyper-parameter ``overrides``::

    spec = BuildSpec(dataset=ds, history=12, horizon=12, seed=0,
                     overrides={"model_dim": 32})
    model = build_from_spec("st-wa", spec)

:func:`build_model` keeps its historical positional signature on top of
the spec API.

Every builder returns a model obeying the common forecaster contract
(scaled ``(B, N, H, F)`` -> scaled ``(B, N, U, F)``).  ``MODEL_FAMILIES``
maps each trained model's name onto the analytic memory-model family used
for the Table VI OOM reproduction; the analytic baselines (persistence,
windowmean, var) train nothing and have no family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from ..core import (
    SimSTForecaster,
    STAttentionConfig,
    STAwareTCN,
    STTCNConfig,
    STAwareGRU,
    STAwareTransformer,
    STGRUConfig,
    make_deterministic_st_wa,
    make_flow_st_wa,
    make_mean_aggregator_st_wa,
    make_s_wa,
    make_st_wa,
    make_wa,
    make_wa1,
)
from ..data.datasets import TrafficDataset
from ..nn import Module
from .agcrn import AGCRNForecaster
from .astgnn import ASTGNNForecaster
from .classical import PersistenceForecaster, VARForecaster, WindowMeanForecaster
from .dcrnn import DCRNNForecaster, DCRNNSeq2Seq
from .enhancenet import EnhanceNetForecaster
from .gru_seq2seq import GRUForecaster
from .gwn import GWNForecaster
from .meta_lstm import MetaLSTMForecaster
from .stfgnn import STFGNNForecaster
from .stg2seq import STG2SeqForecaster
from .stgcn import STGCNForecaster
from .stsgcn import STSGCNForecaster
from .tcn import TCNForecaster
from .transformer import ATTForecaster, LongFormerForecaster


@dataclass(frozen=True, eq=False)
class BuildSpec:
    """Everything a builder needs, passed by keyword.

    Parameters
    ----------
    dataset:
        The target :class:`TrafficDataset` (sensors, adjacency, splits).
    history / horizon:
        Input window length H and forecast length U.
    seed:
        Weight-initialization seed.
    overrides:
        Free-form hyper-parameter overrides forwarded to the underlying
        model constructor (e.g. ``{"model_dim": 32}`` for the ST-WA family).
        Unknown keys raise ``TypeError`` at construction, on purpose.
    """

    dataset: TrafficDataset
    history: int
    horizon: int
    seed: int = 0
    overrides: Mapping[str, object] = field(default_factory=dict)

    def replace(self, **changes) -> "BuildSpec":
        """Return a copy with the given fields swapped out."""
        values = {
            "dataset": self.dataset,
            "history": self.history,
            "horizon": self.horizon,
            "seed": self.seed,
            "overrides": self.overrides,
        }
        values.update(changes)
        return BuildSpec(**values)


#: the builder contract: one keyword-friendly spec in, a forecaster out
Builder = Callable[[BuildSpec], Module]


def register_model(name: str, builder: Callable, family: Optional[str] = None) -> None:
    """Register (or replace) a builder under ``name`` (case-insensitive).

    Builders take one :class:`BuildSpec`; wrap a positional builder
    yourself::

        register_model(name, lambda spec: old(spec.dataset, spec.history,
                                              spec.horizon, spec.seed))
    """
    MODEL_BUILDERS[name.lower()] = builder
    if family is not None:
        MODEL_FAMILIES[name.lower()] = family


# --------------------------------------------------------------------- #
# in-repo builders (all new-style: one BuildSpec in)
# --------------------------------------------------------------------- #
#: shared hyper-parameters of the ST-WA family at reproduction scale
_ST_WA_DEFAULTS = dict(model_dim=24, latent_dim=12, skip_dim=48, predictor_hidden=196)
_WA_DEFAULTS = dict(model_dim=24, skip_dim=48, predictor_hidden=196)


def _st_wa_family(factory, defaults):
    def build(spec: BuildSpec) -> Module:
        kwargs = dict(defaults)
        kwargs.update(spec.overrides)
        return factory(
            spec.dataset.num_sensors,
            history=spec.history,
            horizon=spec.horizon,
            seed=spec.seed,
            **kwargs,
        )

    return build


def _att_enhanced(mode):
    def build(spec: BuildSpec) -> Module:
        config = STAttentionConfig(
            num_sensors=spec.dataset.num_sensors,
            history=spec.history,
            horizon=spec.horizon,
            latent_mode=mode,
            seed=spec.seed,
            **spec.overrides,
        )
        return STAwareTransformer(config)

    return build


def _gru_enhanced(mode):
    def build(spec: BuildSpec) -> Module:
        config = STGRUConfig(
            num_sensors=spec.dataset.num_sensors,
            history=spec.history,
            horizon=spec.horizon,
            latent_mode=mode,
            seed=spec.seed,
            **spec.overrides,
        )
        return STAwareGRU(config)

    return build


def _tcn_enhanced(mode):
    def build(spec: BuildSpec) -> Module:
        config = STTCNConfig(
            num_sensors=spec.dataset.num_sensors,
            history=spec.history,
            horizon=spec.horizon,
            latent_mode=mode,
            seed=spec.seed,
            **spec.overrides,
        )
        return STAwareTCN(config)

    return build


def _var(spec: BuildSpec) -> Module:
    model = VARForecaster(spec.dataset.num_sensors, spec.history, spec.horizon, **spec.overrides)
    model.fit(spec.dataset.train)
    return model


def _plain(factory):
    """Builder for models shaped ``factory(history, horizon, seed=...)``."""

    def build(spec: BuildSpec) -> Module:
        return factory(spec.history, spec.horizon, seed=spec.seed, **spec.overrides)

    return build


def _graph(factory):
    """Builder for models shaped ``factory(N, adjacency, history, horizon, seed=...)``."""

    def build(spec: BuildSpec) -> Module:
        return factory(
            spec.dataset.num_sensors,
            spec.dataset.adjacency,
            spec.history,
            spec.horizon,
            seed=spec.seed,
            **spec.overrides,
        )

    return build


def _simst(spec: BuildSpec) -> Module:
    """SimST from the road network's edge list: no dense ``(N, N)`` matrix is built."""
    network = spec.dataset.network
    return SimSTForecaster(
        spec.dataset.num_sensors,
        history=spec.history,
        horizon=spec.horizon,
        seed=spec.seed,
        edges=(network.src, network.dst, network.weight),
        **spec.overrides,
    )


def _persistence(spec: BuildSpec) -> Module:
    return PersistenceForecaster(spec.history, spec.horizon, **spec.overrides)


def _windowmean(spec: BuildSpec) -> Module:
    return WindowMeanForecaster(spec.history, spec.horizon, **spec.overrides)


def _agcrn(spec: BuildSpec) -> Module:
    return AGCRNForecaster(spec.dataset.num_sensors, spec.history, spec.horizon, seed=spec.seed, **spec.overrides)


def _stfgnn(spec: BuildSpec) -> Module:
    return STFGNNForecaster(
        spec.dataset.num_sensors,
        spec.dataset.adjacency,
        spec.dataset.train,
        spec.history,
        spec.horizon,
        seed=spec.seed,
        **spec.overrides,
    )


MODEL_BUILDERS: Dict[str, Builder] = {
    # classical
    "persistence": _persistence,
    "windowmean": _windowmean,
    "var": _var,
    # ST-agnostic deep baselines
    "gru": _plain(GRUForecaster),
    "tcn": _plain(TCNForecaster),
    "att": _plain(ATTForecaster),
    "sa": _plain(ATTForecaster),  # Table VIII alias
    "longformer": _plain(LongFormerForecaster),
    "dcrnn": _graph(DCRNNForecaster),
    "dcrnn-seq2seq": _graph(DCRNNSeq2Seq),
    "stgcn": _graph(STGCNForecaster),
    "stg2seq": _graph(STG2SeqForecaster),
    "gwn": _graph(GWNForecaster),
    "stsgcn": _graph(STSGCNForecaster),
    "astgnn": _graph(ASTGNNForecaster),
    "stfgnn": _stfgnn,
    # spatial-aware
    "enhancenet": _graph(EnhanceNetForecaster),
    "agcrn": _agcrn,
    "gru+s": _gru_enhanced("spatial"),
    "att+s": _att_enhanced("spatial"),
    "tcn+s": _tcn_enhanced("spatial"),
    # temporal-aware
    "meta-lstm": _plain(MetaLSTMForecaster),
    # spatio-temporal aware (ours)
    "st-wa": _st_wa_family(make_st_wa, _ST_WA_DEFAULTS),
    "gru+st": _gru_enhanced("st"),
    "att+st": _att_enhanced("st"),
    "tcn+st": _tcn_enhanced("st"),
    # ablations
    "s-wa": _st_wa_family(make_s_wa, _ST_WA_DEFAULTS),
    "wa": _st_wa_family(make_wa, _WA_DEFAULTS),
    "wa-1": _st_wa_family(make_wa1, _WA_DEFAULTS),
    "st-wa-det": _st_wa_family(make_deterministic_st_wa, _ST_WA_DEFAULTS),
    "st-wa-mean": _st_wa_family(make_mean_aggregator_st_wa, _ST_WA_DEFAULTS),
    # extension: normalizing-flow latents (the paper's stated future work)
    "st-wa-flow": _st_wa_family(make_flow_st_wa, _ST_WA_DEFAULTS),
    # extension: graph-free per-sensor track (SimST), sensor-shardable
    "simst": _simst,
}

#: architecture family per trained model, for the analytic memory model (Table VI)
MODEL_FAMILIES: Dict[str, str] = {
    "gru": "rnn",
    "tcn": "graph_conv",
    "tcn+s": "graph_conv",
    "tcn+st": "graph_conv",
    "att": "attention",
    "sa": "attention",
    "longformer": "attention",
    "dcrnn": "rnn",
    "dcrnn-seq2seq": "rnn",
    "stgcn": "graph_conv",
    "stg2seq": "graph_conv",
    "gwn": "graph_conv",
    "stsgcn": "graph_conv",
    "astgnn": "attention",
    "stfgnn": "stfgnn",
    "enhancenet": "enhancenet",
    "agcrn": "agcrn",
    "gru+s": "rnn",
    "att+s": "attention",
    "meta-lstm": "rnn",
    "st-wa": "window_attention",
    "gru+st": "rnn",
    "att+st": "attention",
    "s-wa": "window_attention",
    "wa": "window_attention",
    "wa-1": "window_attention",
    "st-wa-det": "window_attention",
    "st-wa-mean": "window_attention",
    "st-wa-flow": "window_attention",
    "simst": "per_sensor",
}


def available_models() -> list[str]:
    """Names accepted by :func:`build_from_spec` / :func:`build_model`."""
    return sorted(MODEL_BUILDERS)


def build_from_spec(name: str, spec: BuildSpec) -> Module:
    """Instantiate a model by its paper name from a :class:`BuildSpec`."""
    key = name.lower()
    if key not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return MODEL_BUILDERS[key](spec)


def build_model(
    name: str,
    dataset: TrafficDataset,
    history: int,
    horizon: int,
    seed: int = 0,
    overrides: Optional[Mapping[str, object]] = None,
) -> Module:
    """Positional convenience wrapper over :func:`build_from_spec`."""
    spec = BuildSpec(
        dataset=dataset,
        history=history,
        horizon=horizon,
        seed=seed,
        overrides=dict(overrides or {}),
    )
    return build_from_spec(name, spec)


def model_family(name: str) -> str:
    """Memory-model family of a model name (see :mod:`repro.training.memory`)."""
    key = name.lower()
    if key not in MODEL_FAMILIES:
        raise KeyError(f"unknown model {name!r}")
    return MODEL_FAMILIES[key]
