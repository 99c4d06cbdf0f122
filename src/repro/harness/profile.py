"""``python -m repro.harness profile <model>`` — where does a step go?

Runs one short training pass (or, for non-trained models, one evaluation
pass) of the requested model under :func:`repro.obs.profile` and reports:

* the top-K primitive ops by wall time, forward and backward separately,
  with call counts, analytic FLOP estimates and output bytes;
* the top-K module spans (qualified submodule names) by forward wall time.

The full, un-truncated breakdown is written to
``<out_dir>/profile_<model>.json`` so later perf PRs can diff it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .. import obs
from ..baselines import BuildSpec, build_from_spec
from ..data import WindowSpec
from ..training import Trainer
from .reporting import PathLike, TableResult, fmt
from .runner import NON_TRAINED, RunSettings, get_dataset


def run(
    model_name: str = "st-wa",
    settings: Optional[RunSettings] = None,
    dataset_name: str = "PEMS04",
    history: int = 12,
    horizon: int = 12,
    top_k: int = 12,
    out_dir: Optional[PathLike] = None,
) -> TableResult:
    """Profile one model for a short training run; optionally dump JSON."""
    settings = settings or RunSettings.from_scope("smoke")
    dataset = get_dataset(dataset_name, settings.profile)
    key = model_name.lower()
    model = build_from_spec(
        key, BuildSpec(dataset=dataset, history=history, horizon=horizon, seed=settings.seed)
    )
    config = settings.trainer_config(
        epochs=min(settings.epochs, 2),
        max_batches_per_epoch=min(settings.max_batches, 3),
        eval_batches=1,
    )
    trainer = Trainer(model, dataset, WindowSpec(history, horizon), config)
    with obs.profile(model=model) as prof:
        if key in NON_TRAINED or not model.parameters():
            trainer.evaluate("val", max_batches=1)
        else:
            trainer.fit()

    headers = ["Kind", "Name", "Phase", "Calls", "Seconds", "MFLOP est", "MB out"]
    rows = []
    for stat in prof.top_ops(top_k):
        rows.append(
            [
                "op",
                stat.name,
                stat.phase,
                str(stat.calls),
                fmt(stat.seconds, 4),
                fmt(stat.flops / 1e6, 1),
                fmt(stat.bytes / 1e6, 2),
            ]
        )
    for span in prof.top_spans(top_k):
        rows.append(["module", span.name, "forward", str(span.calls), fmt(span.seconds, 4), "", ""])

    summary = {
        "model": key,
        "dataset": dataset_name,
        "scope": settings.scope,
        "history": history,
        "horizon": horizon,
        "parameters": int(model.num_parameters()),
    }
    summary.update(prof.summary())

    json_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        json_path = out_path / f"profile_{key}.json"
        json_path.write_text(json.dumps(summary, indent=2) + "\n")

    notes = [
        f"{prof.total_calls} traced op calls, {prof.total_op_seconds:.4f}s in ops "
        f"of {prof.wall_seconds:.4f}s wall, {prof.total_flops / 1e6:.1f} MFLOP est., "
        f"peak array {prof.peak_bytes / 1e6:.2f} MB",
        "module spans measure inclusive forward time (parents contain children)",
    ]
    if json_path is not None:
        notes.append(f"full breakdown written to {json_path}")
    return TableResult(
        experiment_id=f"profile_{key}",
        title=f"Op/module profile of {key} on {dataset_name} (scope={settings.scope})",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"summary": summary},
    )
