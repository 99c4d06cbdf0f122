"""Experiment harness: one runner per table/figure of the paper.

``EXPERIMENTS`` maps experiment ids to their ``run`` callables; each returns
a :class:`TableResult` whose rows mirror the paper's layout.  The paper's
result tables (IV–XIV, plus the normalizing-flow extension) are data in
:data:`TABLES`, all trained and rendered by :func:`run_table`; the figures
and companion analyses keep a module each.  Wall time is
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

from functools import partial
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
)
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset, train_and_score, train_and_score_model
from .tables import TABLES, Row, Table, run_table

#: experiment id -> runner (every table and figure in the paper's evaluation)
EXPERIMENTS: Dict[str, Callable[..., TableResult]] = {
    **{table_id: partial(run_table, table) for table_id, table in TABLES.items()},
    "figure9": figure9.run,
    "figure10": figure10.run,
    "attention_scaling": attention_scaling.run,
    "horizon_report": horizon_report.run,
}

__all__ = [
    "EXPERIMENTS",
    "TABLES",
    "Row",
    "Table",
    "TableResult",
    "fmt",
    "RunSettings",
    "get_dataset",
    "bench",
    "capacity",
    "chaos",
    "profile",
    "run_table",
    "train_and_score",
    "train_and_score_model",
]
