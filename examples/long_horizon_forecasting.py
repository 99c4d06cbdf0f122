"""Long-horizon forecasting and the memory story (paper Table VI).

Trains ST-WA at H = U = 72 (6 hours in, 6 hours out) and shows why the
heavyweight baselines cannot follow at the paper's scale: the analytic
memory model puts STFGNN and EnhanceNet past the V100's 16 GB budget on
PEMS07 (N=883) while ST-WA needs under 2 GB.

    python examples/long_horizon_forecasting.py
"""

from __future__ import annotations

from repro.data import WindowSpec, load_dataset
from repro.harness import RunSettings, train_and_score
from repro.harness.tables import paper_scale_memory_gb

MODELS = ("STFGNN", "EnhanceNet", "AGCRN", "ST-WA")
HISTORY = HORIZON = 72


def main() -> None:
    print("Analytic training-memory at the PAPER's scale (PEMS07, N=883, H=U=72):")
    for model in MODELS:
        memory = paper_scale_memory_gb(model, "PEMS07", HISTORY)
        verdict = "OOM on a 16 GB V100" if memory > 16 else "fits"
        print(f"  {model:11s} {memory:6.1f} GB  -> {verdict}")

    print("\nTraining at simulation scale (PEMS08-sim), H=U=72:")
    dataset = load_dataset("PEMS08", profile="fast")
    settings = RunSettings.smoke().with_overrides(epochs=3, max_batches=6)
    print(f"{'model':11s}  {'MAE':>7s}  {'RMSE':>7s}  {'s/epoch':>8s}")
    for model in MODELS:
        metrics = train_and_score(model, dataset, HISTORY, HORIZON, settings)
        print(
            f"{model:11s}  {metrics['mae']:7.2f}  {metrics['rmse']:7.2f}  "
            f"{metrics['seconds_per_epoch']:8.2f}"
        )
    print("\nThe paper's Table VI shows the same pattern: ST-WA handles long")
    print("horizons at large N where STFGNN/EnhanceNet exhaust GPU memory.")


if __name__ == "__main__":
    main()
