"""Shared fixtures for the test suite.

Besides the dataset fixtures, this file enforces two suite-wide
invariants (see DESIGN.md, "Testing strategy"):

* **Global-state isolation** — the tensor substrate keeps a small amount
  of process-global state (op-trace hook, anomaly check, grad-alloc hook,
  grad/inference mode flags, the active profiler).  An autouse fixture
  asserts every test leaves all of it at the documented clean defaults and
  restores them, so a leak fails the *offending* test instead of poisoning
  whichever test happens to run next.  The legacy ``np.random`` global
  state is snapshotted and restored for the same reason.
* **Per-test time budget** — any single test call longer than
  ``--max-test-seconds`` (default 60) fails the session, keeping the
  tier-1 suite honest about wall time.  Genuinely long scenarios belong
  behind the ``slow`` marker so ``pytest -m "not slow"`` stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticTrafficConfig, TrafficSimulator
from repro.data.datasets import TrafficDataset
from repro.data.scalers import StandardScaler
from repro.data.windows import chronological_split


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tear_after_build():
    """Make a stream store's next live read ingest right after building.

    ``tear_after_build(store, values)`` patches ``store.live`` so the first
    read materializes the current version's window, then ingests ``values``
    before returning it, the way a concurrent ingest between building and
    stamping would.  It returns the list of the built records' versions.
    """

    def install(store, values):
        built = []
        original = store.live

        def live():
            record = original()
            built.append(record.version)
            if len(built) == 1:
                store.ingest(values)
            return record

        store.live = live
        return built

    return install


@pytest.fixture(scope="session")
def tiny_dataset() -> TrafficDataset:
    """A very small but structurally complete traffic dataset (shared)."""
    config = SyntheticTrafficConfig(num_sensors=8, num_days=6, num_corridors=2, seed=7)
    simulator = TrafficSimulator(config)
    flows = simulator.generate()
    train_raw, val_raw, test_raw = chronological_split(flows)
    scaler = StandardScaler().fit(train_raw)
    return TrafficDataset(
        name="TINY",
        profile="test",
        train=scaler.transform(train_raw),
        val=scaler.transform(val_raw),
        test=scaler.transform(test_raw),
        train_raw=train_raw,
        val_raw=val_raw,
        test_raw=test_raw,
        scaler=scaler,
        network=simulator.network,
    )


# --------------------------------------------------------------------- #
# global-state isolation guard
# --------------------------------------------------------------------- #
def _global_state_leaks() -> list:
    """Deviations from the documented clean defaults, as readable labels."""
    from repro.obs import profiler as profiler_module
    from repro.tensor import tensor as tensor_core

    leaks = []
    current = tensor_core.hooks()
    for name in ("trace", "anomaly", "capture", "grad_alloc"):
        if getattr(current, name) is not None:
            leaks.append(f"{name} interceptor still installed (set_hooks)")
    if tensor_core._state.grad_enabled is not True:
        leaks.append("gradients left disabled (no_grad not unwound)")
    if tensor_core._state.inference_mode is not False:
        leaks.append("inference_mode left active")
    if profiler_module._active is not None:
        leaks.append("a profiler is still active (profile() not unwound)")
    return leaks


def _reset_global_state() -> None:
    from repro.obs import profiler as profiler_module
    from repro.tensor import tensor as tensor_core

    tensor_core.set_hooks(trace=None, anomaly=None, capture=None, grad_alloc=None)
    tensor_core._state.grad_enabled = True
    tensor_core._state.inference_mode = False
    profiler_module._active = None


@pytest.fixture(autouse=True)
def _global_state_guard():
    """Fail any test that leaks tensor/profiler global state; then restore."""
    pre_existing = _global_state_leaks()
    if pre_existing:  # never blame this test for an earlier escape
        _reset_global_state()
    legacy_rng_state = np.random.get_state()
    yield
    leaks = _global_state_leaks()
    _reset_global_state()
    np.random.set_state(legacy_rng_state)
    assert not leaks, (
        "test leaked process-global state: " + "; ".join(leaks)
    )


# --------------------------------------------------------------------- #
# per-test time budget
# --------------------------------------------------------------------- #
def pytest_addoption(parser):
    parser.addoption(
        "--max-test-seconds",
        type=float,
        default=60.0,
        help="fail the run if any single test call exceeds this many seconds",
    )


def pytest_configure(config):
    config._overtime_tests = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        budget = item.config.getoption("--max-test-seconds")
        if budget and report.duration > budget:
            item.config._overtime_tests.append((report.nodeid, report.duration))


def pytest_sessionfinish(session, exitstatus):
    overtime = getattr(session.config, "_overtime_tests", [])
    if overtime and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    overtime = getattr(config, "_overtime_tests", [])
    if overtime:
        budget = config.getoption("--max-test-seconds")
        terminalreporter.write_sep("=", f"tests over the {budget:.0f}s budget", red=True)
        for nodeid, duration in sorted(overtime, key=lambda item: -item[1]):
            terminalreporter.write_line(f"{duration:7.1f}s  {nodeid}")
        terminalreporter.write_line(
            "mark genuinely long scenarios with @pytest.mark.slow and keep "
            "them under the budget, or split them"
        )
