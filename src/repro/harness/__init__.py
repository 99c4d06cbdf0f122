"""Experiment harness: one runner per table/figure of the paper.

``EXPERIMENTS`` maps experiment ids to their ``run`` callables; each returns
a :class:`TableResult` whose rows mirror the paper's layout.  Wall time is
controlled by :class:`RunSettings` (scopes: smoke / quick / standard,
constructed explicitly via :meth:`RunSettings.from_scope`).  The ``profile``
module backs ``python -m repro.harness profile <model>`` — an op/module
runtime profile built on :mod:`repro.obs` — and ``bench`` backs
``python -m repro.harness bench``, the benchmark trajectory harness that
writes ``BENCH_<date>.json`` perf snapshots (one row per layer, shape and
executor, and the perf gates).  ``chaos`` backs
``python -m repro.harness chaos`` — fault-injection drills
(:mod:`repro.resilience`) that write ``chaos_report.json`` — and
``capacity`` backs ``python -m repro.harness capacity``, the
:class:`repro.training.CapacityPlanner` report over the registered zoo
(``capacity_report.json``).
"""

from typing import Callable, Dict

from . import (
    attention_scaling,
    bench,
    capacity,
    chaos,
    horizon_report,
    figure9,
    figure10,
    profile,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
    table12,
    table13,
    table14,
)
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset, train_and_score, train_and_score_model

#: experiment id -> runner (every table and figure in the paper's evaluation)
EXPERIMENTS: Dict[str, Callable[..., TableResult]] = {
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "table9": table9.run,
    "table10": table10.run,
    "table11": table11.run,
    "table12": table12.run,
    "table13": table13.run,
    "table14": table14.run,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "attention_scaling": attention_scaling.run,
    "horizon_report": horizon_report.run,
}

__all__ = [
    "EXPERIMENTS",
    "TableResult",
    "fmt",
    "RunSettings",
    "get_dataset",
    "bench",
    "capacity",
    "chaos",
    "profile",
    "train_and_score",
    "train_and_score_model",
]
