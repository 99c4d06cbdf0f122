"""CLI: regenerate any paper table/figure, profile a model, or run the bench.

Usage::

    python -m repro.harness table4 table8 --scope quick
    python -m repro.harness all --scope smoke --out results/
    python -m repro.harness profile st-wa --out results/
    python -m repro.harness bench --scope smoke --check
    python -m repro.harness chaos --fast --out results/
    python -m repro.harness capacity --out results/

``profile <model> [<model> ...]`` runs a short instrumented training pass
and prints the top-K op/module runtime table; the full breakdown lands in
``<out>/profile_<model>.json``.  ``bench`` times the fixed suite of
:mod:`repro.harness.bench` (op microbenchmarks, the ST-WA smoke epoch,
serial vs compiled train steps, the optimizer, and the N=10k SimST step
serial vs sensor-sharded), writes ``<out>/BENCH_<date>.json`` with deltas
vs the previous BENCH file, and with ``--check`` exits nonzero if an
enforced gate fails.  ``chaos`` runs the fault-injection drills
(kill/resume, NaN gradient, sensor dropout — see :mod:`repro.resilience`),
writes ``<out>/chaos_report.json``, and exits nonzero unless every scenario
recovered; ``--fast`` shrinks it to the CI budget.  ``capacity`` evaluates
the :class:`repro.training.CapacityPlanner` over the registered model zoo
at metro sensor counts and writes ``<out>/capacity_report.json``.
Other results are printed and saved as text files under ``--out``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import EXPERIMENTS, RunSettings, bench, capacity, chaos, profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce the paper's tables and figures.")
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            f"experiment ids ({', '.join(sorted(EXPERIMENTS))}), 'all', or "
            "'profile <model> [...]' for an op/module runtime profile"
        ),
    )
    parser.add_argument("--scope", default="smoke", choices=["smoke", "quick", "standard"])
    parser.add_argument("--out", default="results", help="directory for saved table text files")
    parser.add_argument("--top-k", type=int, default=12, help="rows per section in profile tables")
    parser.add_argument(
        "--check",
        action="store_true",
        help="bench only: exit nonzero if an enforced gate fails (see repro.harness.bench)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="chaos only: shrink the run to the CI budget (fewer epochs)",
    )
    parser.add_argument(
        "--model", default="st-wa", help="chaos only: model to run against (default st-wa)"
    )
    args = parser.parse_args(argv)

    settings = RunSettings.from_scope(args.scope)
    out_dir = Path(args.out)

    if args.experiments[0] == "bench":
        if len(args.experiments) > 1:
            parser.error("bench takes no experiment arguments")
        start = time.perf_counter()
        result = bench.run(settings=settings, out_dir=out_dir, check=args.check)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[bench done in {elapsed:.1f}s]\n", flush=True)
        result.save(out_dir)
        return 1 if result.extras.get("regressed") else 0

    if args.experiments[0] == "chaos":
        if len(args.experiments) > 1:
            parser.error("chaos takes no experiment arguments")
        start = time.perf_counter()
        result, report = chaos.run(
            settings=settings, out_dir=out_dir, fast=args.fast, model_name=args.model
        )
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[chaos done in {elapsed:.1f}s]\n", flush=True)
        result.save(out_dir)
        return 0 if report["all_recovered"] else 1

    if args.experiments[0] == "capacity":
        if len(args.experiments) > 1:
            parser.error("capacity takes no experiment arguments")
        start = time.perf_counter()
        result, report = capacity.run(settings=settings, out_dir=out_dir)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[capacity done in {elapsed:.1f}s]\n", flush=True)
        result.save(out_dir)
        return 0

    if args.experiments[0] == "profile":
        models = args.experiments[1:]
        if not models:
            parser.error("profile requires at least one model name, e.g. 'profile st-wa'")
        for model_name in models:
            start = time.perf_counter()
            result = profile.run(
                model_name=model_name, settings=settings, top_k=args.top_k, out_dir=out_dir
            )
            elapsed = time.perf_counter() - start
            print(result.to_text())
            print(f"[profile {model_name} done in {elapsed:.1f}s]\n", flush=True)
            result.save(out_dir)
        return 0

    requested = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    for experiment_id in requested:
        start = time.perf_counter()
        result = EXPERIMENTS[experiment_id](settings=settings)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[{experiment_id} done in {elapsed:.1f}s]\n", flush=True)
        result.save(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
