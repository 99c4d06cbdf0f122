"""SimST-style graph-free per-sensor forecaster (scaling track).

"Do We Really Need Graph Neural Networks for Traffic Forecasting?" argues
that a *per-sensor* model — one set of shared weights applied to every
sensor independently, with spatial context folded into the **inputs**
instead of the architecture — matches spatio-temporal GNNs at a fraction of
their cost.  This module is that baseline for our substrate:

* **Proximity-encoded inputs.**  Each sensor's history window is augmented
  with a neighbor-aggregate channel: a fixed (non-learned) top-``k``
  proximity average of its graph neighbors' windows.  The aggregation is
  the *only* place the sensor graph appears; it is a preprocessing step on
  the input, not a layer, so it is computed once per batch and the rest of
  the forward is embarrassingly parallel across sensors.
* **Learned node embeddings.**  A ``(N, E)`` embedding table is the only
  per-sensor parameter; every other weight is shared, so parameter count
  grows O(N·E) instead of O(N²) and the model scales past graph-bound
  architectures (see :class:`repro.training.memory.CapacityPlanner`).
* **Shared-weight encoder.**  An MLP (or GRU) over the augmented window,
  concatenated with the node embedding, into the usual U-step predictor
  head — scaled ``(B, N, H, F)`` in, scaled ``(B, N, U, F)`` out, the
  repo-wide forecaster contract.

Sensor sharding
---------------
Because sensors only interact through the input-side aggregation, the model
declares ``sensor_shardable = True``: :class:`repro.exec.ShardedExecutor`
hands every worker the raw batch, and each worker calls
:meth:`SimSTForecaster.augment` with its own ``sensors=(start, stop)``
range (the aggregate reads the full network; the output holds only the
worker's rows), then runs that contiguous shard with
:meth:`set_sensor_shard` so the embedding lookup indexes the right rows.
The sharded loss/gradient recombine exactly (see DESIGN.md §15): shared
weights receive the finite-target-weighted mean of shard gradients, and
embedding rows are touched by exactly one shard.

The neighbor structure is stored as top-``k`` ``(indices, weights)`` pairs,
never as a dense ``(N, N)`` operator, so a metro-scale N=10k instance costs
kilobytes of proximity state instead of gigabytes.  It can be derived from
a road network's edge list (``edges=(src, dst, weight)``, what the
registry's ``simst`` builder passes) or passed in directly
(``neighbors=(idx, wt)``), so no dense adjacency need exist at that scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import GRU, MLP, Module, Parameter
from ..tensor import Tensor, ops

__all__ = ["SimSTForecaster", "make_simst", "topk_neighbors", "topk_neighbors_from_edges"]


def topk_neighbors(
    adjacency: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a dense adjacency to top-``k`` proximity ``(indices, weights)``.

    Direction is folded away (``A + Aᵀ``: upstream and downstream sensors
    are both "near"), the diagonal is dropped, and each row keeps its ``k``
    strongest neighbors with weights normalized to sum to 1.  Isolated
    sensors get all-zero weights, so their aggregate channel is zero — the
    shared encoder still sees their own window.

    The result is a stable descending sort of each proximity row, so ties
    break by sensor id: a row short of ``k`` positive proximities fills up
    with the lowest ids whose proximity is zero (its own id included, and
    any pair with ``A[i, j] + A[j, i] == 0``), then with its negative
    proximities, strongest first.  Only the nonzero entries are read after
    one ``np.nonzero`` scan, so the cost is O(nnz log nnz + N·k) and no
    ``(N, N)`` temporary is made.  A non-finite entry raises ``ValueError``.
    :func:`topk_neighbors_from_edges` gives the same result from an edge
    list, with no dense matrix at all.
    """
    dense = np.asarray(adjacency, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {dense.shape}")
    rows, cols = np.nonzero(dense)
    return _topk_from_entries(dense.shape[0], rows, cols, dense[rows, cols], k)


def topk_neighbors_from_edges(
    num_sensors: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`topk_neighbors` of the adjacency with ``A[src, dst] = weight``.

    The edge list of a :class:`repro.data.RoadNetwork` (``network.src``,
    ``network.dst``, ``network.weight``) is the intended input: the result
    equals ``topk_neighbors(network.adjacency, k)`` bit for bit, without
    building the ``(N, N)`` matrix.  Edges may come in any order and may
    carry zero weights; each ``(src, dst)`` pair may appear at most once.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    weight = np.asarray(weight, dtype=np.float64).ravel()
    if not src.shape == dst.shape == weight.shape:
        raise ValueError(f"edge arrays differ in length: {src.size}, {dst.size}, {weight.size}")
    ends = np.concatenate([src, dst])
    if ends.size and (ends.min() < 0 or ends.max() >= num_sensors):
        raise ValueError(f"edge endpoint out of range for {num_sensors} sensors")
    if np.unique(src * num_sensors + dst).size != src.size:
        raise ValueError("an edge (src, dst) is given more than once")
    return _topk_from_entries(num_sensors, src, dst, weight, k)


def _topk_from_entries(
    num_sensors: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The top-``k`` body shared by the dense and edge-list entries.

    ``(rows, cols, values)`` are distinct adjacency entries; any entry left
    out is zero.  Zero values among them change nothing.
    """
    k = max(1, min(k, num_sensors - 1)) if num_sensors > 1 else 1
    width = min(k, num_sensors)  # 0 only for an empty network
    bad = ~np.isfinite(values)
    if bad.any():
        at = int(np.argmax(bad))
        raise ValueError(
            f"adjacency[{rows[at]}, {cols[at]}] is {values[at]}; weights must be finite"
        )

    # proximity A[i, j] + A[j, i] off the diagonal, one entry per pair
    off = rows != cols
    rows, cols, values = rows[off], cols[off], values[off]
    key = np.concatenate([rows * num_sensors + cols, cols * num_sensors + rows])
    values = np.concatenate([values, values])
    order = np.argsort(key)  # each key occurs at most twice: a + b == b + a
    key, values = key[order], values[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
    proximity = np.add.reduceat(values, first) if first.size else values
    key = key[first]
    kept = proximity != 0  # a cancelling pair is a zero, like any absent one
    key, proximity = key[kept], proximity[kept]
    rows, cols = np.divmod(key, num_sensors)  # sorted by (row, col)

    counts = np.bincount(rows, minlength=num_sensors)
    row_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    positives = np.bincount(rows[proximity > 0], minlength=num_sensors)
    from_positives = np.minimum(positives, width)
    from_zeros = np.minimum(width - from_positives, num_sensors - counts)

    indices = np.zeros((num_sensors, width), dtype=np.int64)
    weights = np.zeros((num_sensors, width))
    # nonzero proximities, strongest first: positives lead, negatives trail
    ranked = np.lexsort((cols, -proximity, rows))
    r_rows, r_cols, r_prox = rows[ranked], cols[ranked], proximity[ranked]
    rank = np.arange(len(ranked)) - row_start[r_rows]
    column = np.where(rank < positives[r_rows], rank, rank + from_zeros[r_rows])
    take = column < width
    indices[r_rows[take], column[take]] = r_cols[take]
    weights[r_rows[take], column[take]] = r_prox[take]

    # the m-th lowest id missing from a row's sorted nonzero columns c_t is
    # m + #{t : c_t - t <= m}; one searchsorted answers every row at once
    gaps = rows * num_sensors + cols - (np.arange(len(cols)) - row_start[rows])
    fill_rows = np.repeat(np.arange(num_sensors), from_zeros)
    fill_m = np.arange(len(fill_rows)) - np.repeat(np.cumsum(from_zeros) - from_zeros, from_zeros)
    below = np.searchsorted(gaps, fill_rows * num_sensors + fill_m, side="right")
    indices[fill_rows, from_positives[fill_rows] + fill_m] = fill_m + below - row_start[fill_rows]

    totals = weights.sum(axis=1, keepdims=True)
    weights = weights / np.where(totals > 0, totals, 1.0)
    return indices, weights


#: rows gathered per block by :func:`_neighbor_sum`: at batch 16 and
#: history 12 a block's ``(rows, k, B·H·F)`` buffer is ~0.8 MB
AGGREGATE_BLOCK = 64


def _neighbor_sum(idx: np.ndarray, wt: np.ndarray, by_sensor: np.ndarray) -> np.ndarray:
    """``out[r] = Σ_j wt[r, j] · by_sensor[idx[r, j]]``, summed in ``j`` order from 0.

    The order is that of a CSR row product (``0 + w₀x₀ + w₁x₁ + …``), so
    signed zeros and NaNs come out as they would there.  ``np.take`` runs
    with ``mode="clip"``: the indices were range-checked when the model was
    built, and the default ``"raise"`` buffers the whole output (~3x the
    gather time).
    """
    rows, k = idx.shape
    width = by_sensor.shape[1]
    if width == 1:
        # einsum reduces a lone column with an unrolled, reordered sum;
        # with two columns it walks k in order, one column at a time
        by_sensor = np.broadcast_to(by_sensor, (by_sensor.shape[0], 2))
    out = np.empty((rows, by_sensor.shape[1]))
    buffer = np.empty((min(AGGREGATE_BLOCK, rows), k, by_sensor.shape[1]))
    for lo in range(0, rows, AGGREGATE_BLOCK):
        hi = min(lo + AGGREGATE_BLOCK, rows)
        gathered = buffer[: hi - lo]
        np.take(by_sensor, idx[lo:hi], axis=0, out=gathered, mode="clip")
        np.einsum("rk,rkc->rc", wt[lo:hi], gathered, out=out[lo:hi])
    return out[:, :width]


class SimSTForecaster(Module):
    """Per-sensor MLP/GRU over proximity-augmented windows + node embeddings.

    Parameters
    ----------
    num_sensors, adjacency, history, horizon:
        Network size, (optional) dense adjacency for the proximity
        encoding, and the task shape — positionally compatible with the
        registry's graph-model builder.
    hidden / embedding_dim / predictor_hidden:
        Shared encoder width, per-sensor embedding size, predictor width.
    num_neighbors:
        Top-``k`` kept per sensor by :func:`topk_neighbors`.
    encoder:
        ``"mlp"`` (flattened window) or ``"gru"`` (recurrent over the
        augmented window).
    neighbors:
        Precomputed ``(indices, weights)`` arrays, each ``(N, k)`` —
        bypasses the dense adjacency entirely (the city-scale path).
    edges:
        A directed edge list ``(src, dst, weight)``, reduced with
        :func:`topk_neighbors_from_edges` — the same neighbors as the
        adjacency it describes, without building it.  ``neighbors`` wins
        over ``edges``, which wins over ``adjacency``.
    """

    #: contract flag read by :class:`repro.exec.ShardedExecutor`: sensors
    #: only couple through :meth:`augment`, so the core splits exactly
    sensor_shardable = True

    def __init__(
        self,
        num_sensors: int,
        adjacency: Optional[np.ndarray] = None,
        history: int = 12,
        horizon: int = 12,
        in_features: int = 1,
        hidden: int = 64,
        embedding_dim: int = 16,
        predictor_hidden: int = 128,
        num_neighbors: int = 8,
        encoder: str = "mlp",
        neighbors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        seed: int = 0,
        edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ):
        super().__init__()
        if encoder not in ("mlp", "gru"):
            raise ValueError(f"encoder must be 'mlp' or 'gru', got {encoder!r}")
        rng = np.random.default_rng(seed)
        self.num_sensors = num_sensors
        self.history = history
        self.horizon = horizon
        self.in_features = in_features
        self.hidden = hidden
        self.encoder = encoder
        if neighbors is not None:
            idx, wt = neighbors
            idx = np.asarray(idx, dtype=np.int64)
            wt = np.asarray(wt, dtype=np.float64)
            if idx.shape != wt.shape or idx.ndim != 2 or idx.shape[0] != num_sensors:
                raise ValueError(
                    f"neighbors must be two (N, k) arrays, got {idx.shape} / {wt.shape}"
                )
            if idx.size and (idx.min() < 0 or idx.max() >= num_sensors):
                raise ValueError("neighbor indices out of range")
        elif edges is not None:
            idx, wt = topk_neighbors_from_edges(num_sensors, *edges, num_neighbors)
        elif adjacency is not None:
            idx, wt = topk_neighbors(adjacency, num_neighbors)
        else:  # graph-free degenerate case: zero aggregate channel
            idx = np.zeros((num_sensors, 1), dtype=np.int64)
            wt = np.zeros((num_sensors, 1), dtype=np.float64)
        self._neighbor_idx = idx
        self._neighbor_wt = wt
        self._shard: Optional[Tuple[int, int]] = None

        self.node_embedding = Parameter(
            rng.standard_normal((num_sensors, embedding_dim)) * 0.1
        )
        window_features = 2 * in_features  # raw channel + neighbor aggregate
        if encoder == "gru":
            self.gru = GRU(window_features, hidden, rng=rng)
            encoded = hidden
        else:
            self.mlp = MLP(
                [history * window_features, hidden, hidden],
                activation="relu",
                rng=rng,
            )
            encoded = hidden
        self.head = MLP(
            [encoded + embedding_dim, predictor_hidden, horizon * in_features],
            activation="relu",
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # sensor sharding
    # ------------------------------------------------------------------ #
    def set_sensor_shard(self, start: int, stop: int) -> None:
        """Restrict the embedding lookup to sensors ``[start, stop)``.

        Called on worker copies by the sharded execution path; the forward
        then expects pre-augmented ``(B, stop-start, H, 2F)`` inputs.
        ``clear_sensor_shard`` restores full-network operation.
        """
        if not (0 <= start < stop <= self.num_sensors):
            raise ValueError(
                f"sensor shard [{start}, {stop}) out of range for N={self.num_sensors}"
            )
        self._shard = (int(start), int(stop))

    def clear_sensor_shard(self) -> None:
        self._shard = None

    @property
    def sensor_shard(self) -> Optional[Tuple[int, int]]:
        return self._shard

    def augment(
        self, windows: np.ndarray, sensors: Optional[Tuple[int, int]] = None
    ) -> np.ndarray:
        """Append the proximity-aggregate channel: ``(B, N, H, F) -> (B, N, H, 2F)``.

        Pure NumPy and fully deterministic — the serial forward and every
        sharded worker call the *same* routine, which is what makes the
        sharded step bit-identical in its inputs.  With the windows laid
        out as ``(N, B·H·F)``, each output row is the weighted sum of its
        ``k`` neighbor rows, taken in stored order starting from zero (the
        zero-weight fill entries included, so a NaN neighbor window still
        spreads NaN).  Rows are gathered ``AGGREGATE_BLOCK`` at a time into
        one reused buffer, so no ``(B, N, k, H, F)`` gather is materialised.

        The input is always the full network (aggregation reads neighbor
        rows).  ``sensors=(start, stop)`` returns only those rows,
        ``(B, stop - start, H, 2F)``: a sensor-shard worker augments its
        own range from the raw batch, bit-identical to slicing the full
        result because each output row is computed on its own.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 4 or windows.shape[1] != self.num_sensors:
            raise ValueError(
                f"augment needs the full (B, {self.num_sensors}, H, F) batch, "
                f"got shape {windows.shape}"
            )
        start, stop = (0, self.num_sensors) if sensors is None else sensors
        if not (0 <= start < stop <= self.num_sensors):
            raise ValueError(
                f"sensor range [{start}, {stop}) out of range for N={self.num_sensors}"
            )
        batch, _, history, features = windows.shape
        rows = stop - start
        by_sensor = windows.transpose(1, 0, 2, 3).reshape(self.num_sensors, -1)
        aggregate = _neighbor_sum(
            self._neighbor_idx[start:stop], self._neighbor_wt[start:stop], by_sensor
        ).reshape(rows, batch, history, features)
        out = np.empty((batch, rows, history, 2 * features))
        out[..., :features] = windows[:, start:stop]
        out[..., features:] = aggregate.transpose(1, 0, 2, 3)
        return out

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected (B, N, H, F) input, got shape {x.shape}")
        batch, sensors, history, features = x.shape
        if history != self.history:
            raise ValueError(f"expected history {self.history}, got {history}")
        if features == self.in_features:
            # full-network path: aggregate host-side, then enter the graph.
            # The aggregate is a data-dependent host array, so a compiled
            # trace must not freeze it into the plan.
            ops.notify_compile_unsupported(
                "SimST host-side neighbor aggregation is data-dependent"
            )
            if self._shard is not None:
                raise ValueError(
                    "model holds a sensor shard; feed pre-augmented windows"
                )
            x = Tensor(self.augment(x.data))
        elif features != 2 * self.in_features:
            raise ValueError(
                f"expected {self.in_features} raw or {2 * self.in_features} "
                f"augmented features, got {features}"
            )
        if self._shard is None:
            if sensors != self.num_sensors:
                raise ValueError(
                    f"expected {self.num_sensors} sensors, got {sensors}"
                )
            embedding = self.node_embedding
        else:
            start, stop = self._shard
            if sensors != stop - start:
                raise ValueError(
                    f"shard [{start}, {stop}) expects {stop - start} sensors, "
                    f"got {sensors}"
                )
            embedding = ops.getitem(self.node_embedding, slice(start, stop))

        if self.encoder == "gru":
            _, encoded = self.gru(x)  # (B, Ns, hidden)
        else:
            flat = ops.reshape(x, (batch, sensors, history * x.shape[3]))
            encoded = self.mlp(flat)  # (B, Ns, hidden)
        # broadcast the (Ns, E) embedding over the batch through an add
        carrier = Tensor(np.zeros((batch,) + tuple(embedding.shape)))
        features_cat = ops.concat([encoded, carrier + embedding], axis=-1)
        prediction = self.head(features_cat)
        return ops.reshape(
            prediction, (batch, sensors, self.horizon, self.in_features)
        )


def make_simst(
    num_sensors: int,
    adjacency: Optional[np.ndarray] = None,
    *,
    history: int = 12,
    horizon: int = 12,
    seed: int = 0,
    **overrides,
) -> SimSTForecaster:
    """Factory mirroring the other ``make_*`` variants."""
    return SimSTForecaster(
        num_sensors,
        adjacency,
        history=history,
        horizon=horizon,
        seed=seed,
        **overrides,
    )
