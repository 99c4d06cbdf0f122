"""Deadline-aware driver: regenerate as many paper tables as fit a budget.

Runs the experiment queue in priority order at a trimmed quick scope and
stops cleanly when the wall-clock budget is exhausted.  Saved outputs land
in results_quick/ for EXPERIMENTS.md splicing.

    python tools/generate_results.py [budget_minutes]
"""

import sys
import time
from dataclasses import replace

from repro.harness import EXPERIMENTS, TABLES, RunSettings, run_table

BUDGET_MINUTES = float(sys.argv[1]) if len(sys.argv) > 1 else 45.0

settings = RunSettings.quick().with_overrides(epochs=15, max_batches=15)
long_settings = settings.with_overrides(epochs=8)  # H=U=72 runs are heavier
timing_settings = settings.with_overrides(epochs=2)

#: (experiment id, settings, datasets to cut a multi-dataset table down to)
QUEUE = [
    ("table4", settings, ("PEMS04", "PEMS08")),
    ("table7", settings, ("PEMS04",)),
    ("figure10", timing_settings, None),
    ("table6", long_settings, ("PEMS07", "PEMS08")),
    ("attention_scaling", settings, None),
    ("figure9", settings, None),
    ("table11", settings, None),
    ("table10", settings, None),
    ("table12", settings, None),
    ("table9", settings, None),
    ("table14", long_settings, None),
    ("table13", long_settings, None),
    ("horizon_report", settings, None),
    ("table5", settings.with_overrides(epochs=10), None),
]

start = time.time()
for experiment_id, run_settings, datasets in QUEUE:
    elapsed = (time.time() - start) / 60.0
    if elapsed > BUDGET_MINUTES:
        print(f"budget exhausted after {elapsed:.1f} min; stopping before {experiment_id}", flush=True)
        break
    t0 = time.time()
    if datasets:
        result = run_table(replace(TABLES[experiment_id], datasets=datasets), run_settings)
    else:
        result = EXPERIMENTS[experiment_id](settings=run_settings)
    result.save("results_quick")
    print(f"[{experiment_id} done in {time.time() - t0:.1f}s, total {(time.time()-start)/60:.1f} min]", flush=True)
print("driver finished", flush=True)
