"""repro — reproduction of "Towards Spatio-Temporal Aware Traffic Time
Series Forecasting" (Cirstea et al., ICDE 2022).

Subpackages
-----------
``repro.tensor``
    From-scratch reverse-mode autodiff over NumPy (PyTorch substitute).
``repro.nn``
    Neural-network layer library (modules, attention, RNN, TCN, graph conv).
``repro.optim``
    Adam/SGD, clipping, schedules, early stopping.
``repro.data``
    Synthetic PEMS-like traffic datasets, road networks, windows, scalers.
``repro.core``
    The paper's contribution: ST-aware parameter generation, window
    attention with proxies, sensor-correlation attention, the ST-WA model.
``repro.baselines``
    Every comparison model of the paper's Table IV.
``repro.training``
    Trainer, metrics (MAE/RMSE/MAPE), checkpoints, analytic memory model.
``repro.analysis``
    t-SNE, k-means, text plots (Figure 9 tooling).
``repro.harness``
    One runner per paper table/figure; see ``repro.harness.EXPERIMENTS``.
``repro.obs``
    Observability: op-level profiler, module spans, JSONL metric sinks.
``repro.resilience``
    Fault tolerance: anomaly detection, divergence recovery, fault drills.
``repro.exec``
    The Executor seam: serial / inference / compiled / sensor-sharded
    execution backends selected by ``ExecutorSpec`` (see DESIGN.md
    "Executor").
``repro.compile``
    Trace-once/replay-many compiled execution: captured op streams lowered
    to preallocated instruction programs (``ExecutorSpec(kind="compiled")``).
``repro.parallel``
    Multiprocess sensor-sharded training: worker pool over contiguous
    sensor ranges, one shared arena for weights and batches, gradient
    all-reduce (``ExecutorSpec.sharded(...)``, graph-free SimST only).
``repro.serve``
    Online inference: artifacts, micro-batching, caching, latency SLOs.
``repro.fleet``
    Zero-downtime model lifecycle: versioned artifact registry,
    multi-tenant routing with admission control, hot swap / shadow / A/B
    deployment, drift-triggered retraining.

``repro.serve``, ``repro.fleet``, ``repro.parallel``, and
``repro.harness`` are imported lazily (PEP 562): ``import repro`` does not
pay for — or spawn anything on behalf of — the serving or multiprocessing
planes until first attribute access.

Quickstart
----------
>>> from repro.data import load_dataset, WindowSpec
>>> from repro.core import make_st_wa
>>> from repro.training import Trainer, TrainerConfig
>>> ds = load_dataset("PEMS04", profile="fast")
>>> model = make_st_wa(ds.num_sensors)
>>> trainer = Trainer(model, ds, WindowSpec(12, 12), TrainerConfig(epochs=5))
>>> history = trainer.fit()  # doctest: +SKIP
>>> trainer.evaluate("test")  # doctest: +SKIP
"""

__version__ = "1.0.0"

import importlib

from . import (
    analysis,
    baselines,
    compile,  # noqa: A004 - the compiled execution backend, deliberately named
    core,
    data,
    exec,  # noqa: A004 - the Executor subsystem, deliberately named
    nn,
    obs,
    optim,
    resilience,
    tensor,
    training,
)

#: subpackages resolved on first attribute access (PEP 562): harness pulls
#: in parallel (bench's sharded rows), fleet sits on serve, and
#: serve/parallel touch multiprocessing
_LAZY_SUBPACKAGES = ("fleet", "harness", "parallel", "serve")

__all__ = [
    "tensor",
    "nn",
    "optim",
    "data",
    "core",
    "baselines",
    "training",
    "analysis",
    "compile",
    "exec",
    "fleet",
    "harness",
    "obs",
    "parallel",
    "resilience",
    "serve",
    "__version__",
]


def __getattr__(name: str):
    if name in _LAZY_SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module  # cache: __getattr__ runs once per name
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_SUBPACKAGES))
