"""Analytic GPU-memory model (substitute for the paper's V100 OOM results).

Table VI of the paper reports STFGNN and EnhanceNet running **out of memory**
on PEMS07 (N=883) at H=U=72, while ST-WA fits.  We cannot observe CUDA OOM
on a CPU/NumPy substrate, so we model the dominant per-batch activation
footprint of each architecture family analytically and compare against the
device budget (16 GB for the paper's Tesla V100).  The formulas capture the
asymptotics that cause the paper's OOMs:

* canonical self-attention stores O(B · N · H²) attention scores;
* window attention stores O(B · N · p · H) — linear in H;
* STFGNN materializes a fused spatio-temporal graph of size (4N)² per
  sliding block, giving O(B · H · N²);
* EnhanceNet generates per-location parameter adjustments each step,
  O(B · H · N · d²);
* RNN families store O(B · N · H · d) unrolled states (AGCRN multiplies by
  the embedding mixing, still linear in H).

Estimates are intentionally coarse (constants tuned to the 4-byte float
PyTorch training footprint, activations kept for backward ≈ 2x forward);
what matters for the reproduction is the *relative* blow-up ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence

BYTES_PER_ELEMENT = 4  # float32 training, as in the paper's PyTorch setup
BACKWARD_FACTOR = 2.0  # stored activations for backprop
V100_BUDGET_GB = 16.0


@dataclass(frozen=True)
class ModelDims:
    """Dimensions entering the memory model."""

    batch: int = 64
    num_sensors: int = 307
    history: int = 12
    horizon: int = 12
    hidden: int = 32
    layers: int = 3
    heads: int = 8
    proxies: int = 2


def _attention_elements(dims: ModelDims) -> float:
    scores = dims.batch * dims.num_sensors * dims.heads * dims.history**2 * dims.layers
    states = dims.batch * dims.num_sensors * dims.history * dims.hidden * dims.layers
    return scores + states


def _window_attention_elements(dims: ModelDims) -> float:
    scores = dims.batch * dims.num_sensors * dims.proxies * dims.history * dims.layers
    states = dims.batch * dims.num_sensors * dims.history * dims.hidden
    generator = dims.batch * dims.num_sensors * dims.hidden**2  # generated K/V
    return scores + states + generator


def _rnn_elements(dims: ModelDims) -> float:
    return dims.batch * dims.num_sensors * dims.history * dims.hidden * 4 * dims.layers


def _agcrn_elements(dims: ModelDims) -> float:
    rnn = _rnn_elements(dims)
    adaptive = dims.batch * dims.num_sensors**2 * dims.layers  # adaptive adjacency mixing
    pools = dims.batch * dims.num_sensors * dims.hidden**2  # node-adaptive weights
    return rnn + adaptive + pools


def _stfgnn_elements(dims: ModelDims) -> float:
    # fused spatio-temporal graph (~4N nodes) mixed at every temporal block:
    # the O(B * H * N^2) term that makes STFGNN the first to OOM as N grows.
    # Constant calibrated so the V100 boundary matches the paper's Table VI
    # (OOM at N=883 / H=72; fits at N=358 / H=72 and at H=12).
    fused = dims.batch * dims.history * dims.num_sensors**2 * 0.6
    states = dims.batch * dims.num_sensors * dims.history * dims.hidden * dims.layers
    return fused + states


def _enhancenet_elements(dims: ModelDims) -> float:
    # per-location parameter adjustments generated at every unrolled step
    adjustments = dims.batch * dims.history * dims.num_sensors * dims.hidden**2 / 2.0
    rnn = _rnn_elements(dims)
    return adjustments + rnn


def _graph_conv_elements(dims: ModelDims) -> float:
    mixing = dims.batch * dims.history * dims.num_sensors**2 / 8.0
    states = dims.batch * dims.num_sensors * dims.history * dims.hidden * dims.layers
    return mixing + states


def _per_sensor_elements(dims: ModelDims) -> float:
    # graph-free track (SimST): every term is linear in N.  Augmented window
    # (2 channels: raw + neighbor aggregate, plus the k-neighbor gather
    # buffer), a few hidden states of the shared encoder, and the horizon
    # output — no N² operator anywhere, which is the whole point.
    neighbor_gather = dims.batch * dims.num_sensors * dims.proxies * dims.history
    window = dims.batch * dims.num_sensors * dims.history * 2
    states = dims.batch * dims.num_sensors * dims.hidden * 3
    output = dims.batch * dims.num_sensors * dims.horizon
    return neighbor_gather + window + states + output


#: SimST's per-sensor embedding width (``SimSTForecaster``'s default)
_PER_SENSOR_EMBEDDING = 16


def _per_sensor_parameters(dims: ModelDims) -> float:
    # SimST at its default proportions: one embedding row per sensor, the
    # shared MLP encoder [2H -> hidden -> hidden] and the predictor head
    # [hidden + E -> 2·hidden -> U], biases included
    hidden, embedding = dims.hidden, _PER_SENSOR_EMBEDDING
    encoder = (2 * dims.history + 1) * hidden + (hidden + 1) * hidden
    head = (hidden + embedding + 1) * 2 * hidden + (2 * hidden + 1) * dims.horizon
    return dims.num_sensors * embedding + encoder + head


_FAMILIES: Dict[str, Callable[[ModelDims], float]] = {
    "attention": _attention_elements,  # SA / ATT / LongFormer(full-band) / ASTGNN
    "window_attention": _window_attention_elements,  # WA / S-WA / ST-WA
    "rnn": _rnn_elements,  # GRU / DCRNN / meta-LSTM
    "agcrn": _agcrn_elements,
    "stfgnn": _stfgnn_elements,
    "enhancenet": _enhancenet_elements,
    "graph_conv": _graph_conv_elements,  # STGCN / GWN / STSGCN / STG2Seq
    "per_sensor": _per_sensor_elements,  # SimST graph-free track
}


def activation_gb(family: str, dims: ModelDims) -> float:
    """Estimated peak activation memory in GB for a training step."""
    if family not in _FAMILIES:
        raise KeyError(f"unknown family {family!r}; available: {sorted(_FAMILIES)}")
    elements = _FAMILIES[family](dims)
    return elements * BYTES_PER_ELEMENT * BACKWARD_FACTOR / 1024**3


def parameter_gb(num_parameters: int) -> float:
    """Parameter + Adam-state memory in GB (weights, grads, m, v)."""
    return num_parameters * BYTES_PER_ELEMENT * 4 / 1024**3


def fits_in_budget(family: str, dims: ModelDims, budget_gb: float = V100_BUDGET_GB) -> bool:
    """Whether a training step fits the device budget (the paper's V100)."""
    return activation_gb(family, dims) <= budget_gb


def families() -> list[str]:
    """Known architecture families."""
    return sorted(_FAMILIES)


# --------------------------------------------------------------------- #
# capacity planning: which models fit at city scale, and in how many shards
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CapacityPlan:
    """One model's memory verdict at one sensor count.

    ``shards_needed`` is the smallest shard count K whose per-shard
    footprint (:meth:`CapacityPlanner.shard_gb`; K=1 is the unsharded
    step) fits the budget — ``None`` if no K up to the planner's
    ``max_shards`` does.
    ``sensor_shardable`` says whether the execution layer can actually
    deliver that split: only per-sensor families decompose along the sensor
    axis (everything else mixes across sensors inside the forward), so a
    plan with ``shards_needed > 1`` and ``sensor_shardable=False`` means
    *does not fit, and sharding cannot save it*.
    """

    model: str
    family: str
    num_sensors: int
    activation_gb: float
    bytes_per_sensor: float
    fits: bool
    shards_needed: Optional[int]
    sensor_shardable: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "family": self.family,
            "num_sensors": self.num_sensors,
            "activation_gb": self.activation_gb,
            "bytes_per_sensor": self.bytes_per_sensor,
            "fits": self.fits,
            "shards_needed": self.shards_needed,
            "sensor_shardable": self.sensor_shardable,
        }


class CapacityPlanner:
    """Bytes/sensor model over the registered zoo → shard plans at scale.

    Extends the Table VI analytic activation model into a planning surface:
    for any registered model name and sensor count it answers *does a
    training step fit the device budget, and if not, how many contiguous
    sensor shards would make it fit* (the split
    :class:`repro.exec.ShardedExecutor` implements).

    Parameters
    ----------
    budget_gb:
        Per-process (per-shard) memory budget.  Defaults to the paper's
        V100.  A sensor-sharded pool computes one shard in the calling
        process, so there the shard's step shares the budget with
        whatever the caller already holds (the dataset, the optimizer).
    dims:
        Template :class:`ModelDims`; ``num_sensors`` is replaced per query.
    bytes_per_element:
        4 for the paper's float32 PyTorch setup (default); pass 8 when
        checking the planner against this repo's float64 NumPy substrate
        (``shard-bench`` does).
    max_shards:
        Upper bound on the shard search; past this the plan reports
        ``shards_needed=None``.
    """

    def __init__(
        self,
        budget_gb: float = V100_BUDGET_GB,
        *,
        dims: Optional[ModelDims] = None,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        max_shards: int = 1024,
    ):
        if budget_gb <= 0:
            raise ValueError(f"budget_gb must be positive, got {budget_gb}")
        self.budget_gb = float(budget_gb)
        self.dims = dims if dims is not None else ModelDims()
        self.bytes_per_element = int(bytes_per_element)
        self.max_shards = int(max_shards)

    # ------------------------------------------------------------------ #
    def _gb(self, elements: float) -> float:
        return elements * self.bytes_per_element * BACKWARD_FACTOR / 1024**3

    def family_gb(self, family: str, num_sensors: int) -> float:
        """Activation GB of ``family`` at ``num_sensors`` (planner bytes)."""
        if family not in _FAMILIES:
            raise KeyError(
                f"unknown family {family!r}; available: {sorted(_FAMILIES)}"
            )
        return self._gb(_FAMILIES[family](replace(self.dims, num_sensors=int(num_sensors))))

    def shard_gb(self, family: str, num_sensors: int, n_shards: int) -> float:
        """Training-step GB of the largest of ``n_shards`` sensor shards.

        A per-sensor shard — what :class:`repro.exec.ShardedExecutor` runs —
        holds two parts at once.  Its shard-sized arrays: the augmented
        input (raw and neighbour-aggregate channels), the targets and the
        forecast, ``B·⌈N/K⌉·(2H + 2U)`` elements.  And the activations of
        one block: a shard steps its range ``BLOCK_ROWS // B`` sensors at a
        time (:func:`repro.parallel.engine.sensor_blocks`), so those are the
        family's model at that many sensors, whatever the shard's size.
        The shard computed in the calling process also holds ``K + 1``
        parameter-sized arrays: the parameters, their full-size gradients
        and the ``K - 1`` gradient lists the all-reduce receives from the
        other shards; those are stored once, not doubled for backward.
        Every other family mixes sensors in its forward and cannot be
        stepped in blocks; its shard is the family's model at ``⌈N/K⌉``
        sensors.
        """
        from ..parallel.engine import BLOCK_ROWS

        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        per_shard = -(-int(num_sensors) // int(n_shards))  # ceil(N/K)
        if family != "per_sensor":
            return self.family_gb(family, per_shard)
        dims = self.dims
        block = min(per_shard, max(1, BLOCK_ROWS // max(1, dims.batch)))
        shard_arrays = dims.batch * per_shard * (2 * dims.history + 2 * dims.horizon)
        parameters = _per_sensor_parameters(replace(dims, num_sensors=int(num_sensors)))
        return self._gb(
            _per_sensor_elements(replace(dims, num_sensors=block)) + shard_arrays
        ) + (n_shards + 1) * parameters * self.bytes_per_element / 1024**3

    def plan(self, model_name: str, num_sensors: int) -> CapacityPlan:
        """Memory verdict + shard plan for one registered model at N sensors."""
        from ..baselines.registry import model_family

        if num_sensors < 1:
            raise ValueError(f"num_sensors must be >= 1, got {num_sensors}")
        family = model_family(model_name)
        total_gb = self.family_gb(family, num_sensors)

        def fits(k: int) -> bool:
            step_gb = total_gb if k == 1 else self.shard_gb(family, num_sensors, k)
            return step_gb <= self.budget_gb

        shards = next((k for k in range(1, self.max_shards + 1) if fits(k)), None)
        return CapacityPlan(
            model=model_name.lower(),
            family=family,
            num_sensors=int(num_sensors),
            activation_gb=total_gb,
            bytes_per_sensor=total_gb * 1024**3 / num_sensors,
            fits=total_gb <= self.budget_gb,
            shards_needed=shards,
            sensor_shardable=family == "per_sensor",
        )

    def report(
        self,
        models: Optional[Sequence[str]] = None,
        sensor_counts: Sequence[int] = (10_000, 50_000),
    ) -> Dict[str, object]:
        """Plans for every model × sensor count, JSON-serializable."""
        from ..baselines.registry import MODEL_FAMILIES

        names = sorted(MODEL_FAMILIES) if models is None else list(models)
        return {
            "budget_gb": self.budget_gb,
            "bytes_per_element": self.bytes_per_element,
            "backward_factor": BACKWARD_FACTOR,
            "dims": {
                "batch": self.dims.batch,
                "history": self.dims.history,
                "horizon": self.dims.horizon,
                "hidden": self.dims.hidden,
                "layers": self.dims.layers,
            },
            "sensor_counts": [int(n) for n in sensor_counts],
            "models": {
                name: {
                    str(n): self.plan(name, n).to_dict() for n in sensor_counts
                }
                for name in names
            },
        }
