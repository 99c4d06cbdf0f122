"""Output checks: a measured run only counts when its outputs are right."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

#: loss agreement with the in-process serial reference, per executor kind.
#: Compiled plans are validated to 1e-9 at trace time; sensor sharding only
#: re-associates the masked-Huber mean (measured ~2e-16).
LOSS_RTOL = {"compiled": 1e-9, "sharded": 1e-12}

#: served forecast vs ``ForecasterArtifact.predict`` on the same window
FORECAST_RTOL = 1e-9
FORECAST_ATOL = 1e-9


def compare_losses(measured: Sequence[float], reference: Sequence[float], rtol: float) -> Dict[str, object]:
    """Step-by-step loss agreement over the reference's steps.

    Returns ``ok``, the worst relative difference and the number of steps
    that disagree (a missing or non-finite measured step disagrees).
    """
    bad = 0
    worst = 0.0
    for step, expected in enumerate(reference):
        got = measured[step] if step < len(measured) else float("nan")
        if not (math.isfinite(got) and math.isfinite(expected)):
            bad += 1
            worst = float("inf")
            continue
        rel = abs(got - expected) / max(abs(expected), 1e-300)
        worst = max(worst, rel)
        if rel > rtol:
            bad += 1
    return {"ok": bad == 0 and len(reference) > 0, "bad_steps": bad, "max_rel_diff": worst,
            "steps": len(reference), "rtol": rtol}


def compare_forecasts(served: List[np.ndarray], expected: List[np.ndarray]) -> Dict[str, object]:
    """Served forecasts against the artifact's pure ``predict``, one by one."""
    bad = 0
    worst = 0.0
    for got, want in zip(served, expected, strict=True):
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            bad += 1
            worst = float("inf")
            continue
        diff = float(np.max(np.abs(got - want))) if got.size else 0.0
        worst = max(worst, diff)
        if not np.allclose(got, want, rtol=FORECAST_RTOL, atol=FORECAST_ATOL):
            bad += 1
    return {"ok": bad == 0 and len(expected) > 0, "bad": bad, "max_abs_diff": worst,
            "checked": len(expected)}
