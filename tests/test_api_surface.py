"""The public API surface must match the reviewed snapshot.

``tests/api_surface.json`` records every exported ``repro.*`` symbol with
its kind and call signature (see ``tools/api_surface.py``).  Any public
API change — renamed keyword, dropped export, new default — must land as
a reviewed diff to that file, never as silent drift.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "tests" / "api_surface.json"


def _build_surface():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from api_surface import build_surface
    finally:
        sys.path.pop(0)
    return build_surface()


def test_surface_matches_snapshot():
    assert SNAPSHOT.exists(), "missing snapshot; run tools/api_surface.py --update"
    recorded = json.loads(SNAPSHOT.read_text())
    current = _build_surface()
    assert current == recorded, (
        "public API drifted from tests/api_surface.json; if intentional run\n"
        "  PYTHONPATH=src python tools/api_surface.py --update\n"
        "and commit the result"
    )


def test_snapshot_covers_the_executor_subsystem():
    surface = json.loads(SNAPSHOT.read_text())
    exported = surface["repro.exec"]
    for name in ("Executor", "ExecutorSpec", "SerialExecutor", "ShardedExecutor",
                 "StepResult", "make_executor"):
        assert name in exported
    assert "(self, weights" in exported["Executor"]["methods"]["train_step"]
