"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures end-to-end
(data simulation + training + evaluation) at the ``smoke`` scope by default
— fast enough for CI while preserving the pipeline and gross orderings.
Set ``REPRO_SCOPE=quick`` (or ``standard``) for more faithful runs, and
``REPRO_BENCH_FULL=1`` to use the paper's full dataset/model grids instead
of the reduced defaults.

Each benchmark saves its reproduced table under ``results/`` so the rows
can be inspected after the run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import RunSettings

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def settings() -> RunSettings:
    # settings are passed explicitly; REPRO_SCOPE is honoured here (and only
    # here) so existing benchmark invocations keep working
    return RunSettings.from_scope(os.environ.get("REPRO_SCOPE", "smoke"))


@pytest.fixture(scope="session")
def full_grid() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, func):
    """Execute ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
