"""Per-horizon-step accuracy breakdown (companion analysis).

Not a numbered table in this paper, but the standard presentation in the
literature it builds on (DCRNN, GWN report 15/30/60-minute columns): error
grows with the forecast step, and the gap between a strong model and a
weak one widens at longer steps.  This runner trains the requested models
once and reports MAE at 15 / 30 / 60 minutes (steps 3, 6, 12 at 5-minute
resolution).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import BuildSpec, build_from_spec
from ..data import BatchIterator, SlidingWindowDataset, WindowSpec
from ..tensor import Tensor, no_grad
from ..training import Trainer, horizon_breakdown
from .reporting import TableResult, fmt
from .runner import NON_TRAINED, RunSettings, get_dataset

DEFAULT_MODELS = ("Persistence", "GRU", "AGCRN", "ST-WA")
REPORT_STEPS = (3, 6, 12)  # 15 min / 30 min / 60 min


def run(
    settings: Optional[RunSettings] = None,
    dataset_name: str = "PEMS04",
    models: Sequence[str] = DEFAULT_MODELS,
    history: int = 12,
    horizon: int = 12,
) -> TableResult:
    """Train each model and report per-step MAE at 15/30/60 minutes."""
    settings = settings or RunSettings.smoke()
    dataset = get_dataset(dataset_name, settings.profile)
    spec = WindowSpec(history, horizon)
    per_model = {}
    for name in models:
        model = build_from_spec(
            name, BuildSpec(dataset=dataset, history=history, horizon=horizon, seed=settings.seed)
        )
        trainer = Trainer(model, dataset, spec, settings.trainer_config())
        if name.lower() not in NON_TRAINED and model.parameters():
            trainer.fit()
        # collect raw-unit predictions for the breakdown
        windows = SlidingWindowDataset(dataset.test, spec, raw=dataset.test_raw)
        iterator = BatchIterator(windows, batch_size=settings.batch_size, shuffle=False, max_batches=settings.eval_batches)
        predictions, targets = [], []
        model.eval()
        with no_grad():
            for x_batch, y_raw in iterator:
                prediction = model(Tensor(x_batch)).numpy()
                predictions.append(dataset.scaler.inverse_transform(prediction))
                targets.append(y_raw)
        breakdown = horizon_breakdown(np.concatenate(predictions), np.concatenate(targets))
        per_model[name] = breakdown

    headers = ["Model"] + [f"{5 * step} min MAE" for step in REPORT_STEPS]
    rows = [
        [name, *[fmt(per_model[name][step]["mae"]) for step in REPORT_STEPS]]
        for name in models
    ]
    monotone = sum(
        1
        for name in models
        if per_model[name][REPORT_STEPS[-1]]["mae"] >= per_model[name][REPORT_STEPS[0]]["mae"]
    )
    return TableResult(
        experiment_id="horizon_report",
        title=f"Per-step accuracy breakdown, {dataset_name} (scope={settings.scope})",
        headers=headers,
        rows=rows,
        notes=[
            "Literature convention (DCRNN/GWN): error grows with the forecast step.",
            f"{monotone}/{len(models)} models show 60-min error >= 15-min error in this run.",
        ],
        extras={"per_model": {m: {s: per_model[m][s]["mae"] for s in REPORT_STEPS} for m in models}},
    )
