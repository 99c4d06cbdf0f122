"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it describes the run (workload, noise controls, checks).  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, and the spans are
written to ``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: OpenBLAS's spinning second
# thread otherwise burns the core the batcher thread and the workers need.
# Forked and spawned children inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pb_measure  # noqa: E402

#: fresh-interpreter imports timed per run for ``setup_s``, before set-up
#: and after the timed phase, on top of the run's own import.  The host's
#: speed drifts over seconds, so samples taken ~30 s apart straddle it.
#: ``setup_s`` counts CPU seconds, not wall seconds: on a shared host, wall
#: time in set-up follows steal and waits for a core (ten-run spreads of
#: 0.26-0.32), while the CPU time of the same work spread 0.06-0.13.
#: Set-up is nearly all CPU work (imports, simulation, worker spawn,
#: traces), so CPU time still shows work moved into it.
IMPORT_REPS_BEFORE, IMPORT_REPS_AFTER = 3, 4

#: workload -> (module that runs it, pinned to one core)
#: Single-caller workloads are pinned: on a 2-vCPU VM a wake-up
#: handed to the other, idle vCPU (batcher thread, future waiter) can lag
#: by milliseconds, which made serving p90 swing 2x between runs.  The
#: sharded workload needs both cores for its workers.
RUNNERS = {
    "train-online": ("pb_train", True),
    "train-simst-sharded": ("pb_train", False),
    "serve-fleet": ("pb_serve", True),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_program(module_name: str):
    """Import the workload module (and with it ``repro``) from ``src/``."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {source}")
    sys.path.insert(0, str(source))
    return importlib.import_module(module_name)


def _import_cpu_seconds(module_name: str, reps: int):
    """CPU seconds from interpreter start to the workload module imported,
    in ``reps`` fresh interpreters."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
        f"import {module_name}; print(time.process_time())"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout.split()[-1])
        for _ in range(reps)
    ]


def _metric_block(spec_metrics, values):
    block = {}
    for metric in spec_metrics:
        value = values.get(metric["name"], 0.0)
        block[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return block


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module_name, pinned = RUNNERS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    if pinned:
        os.sched_setaffinity(0, {cpus[-1]})
    try:
        module = _load_program(module_name)
    except ImportError as error:
        print(f"perfbench: cannot load the program: {error}", file=sys.stderr)
        return 2
    own_import_s = time.process_time()
    tracer = None
    if args.trace:
        import pb_trace

        tracer = pb_trace.Tracer()
    imports = [own_import_s]
    if not args.trace:
        imports += _import_cpu_seconds(module_name, IMPORT_REPS_BEFORE)
    ticks_before = pb_measure.host_cpu_ticks()
    result = module.run(args.workload, args.seed, args.seconds, tracer)
    left_over = pb_measure.reap_children()
    ticks_after = pb_measure.host_cpu_ticks()
    steal = ticks_after["steal"] - ticks_before["steal"]
    total = max(1, ticks_after["total"] - ticks_before["total"])

    info = dict(result["info"])
    info.update({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "blas_threads": BLAS_THREADS, "nproc": len(cpus),
                 "cpus_used": sorted(os.sched_getaffinity(0)),
                 "host_steal_pct": 100.0 * steal / total,
                 "children_terminated": left_over})
    metrics = dict(result["metrics"])
    if result.get("setup_cpu_s") and not args.trace:
        imports += _import_cpu_seconds(module_name, IMPORT_REPS_AFTER)
        info["import_cpu_s"] = imports
        info["setup_cpu_s"] = result["setup_cpu_s"]
        metrics["setup_s"] = statistics.median(imports) + statistics.median(result["setup_cpu_s"])
    if tracer is not None:
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(out.with_suffix(".jsonl"))
        summary = {"info": info, "attribution": result.get("attribution"),
                   "layers": result.get("layers")}
        out.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
        info["attribution"] = result.get("attribution")
        block = _metric_block(spec["per_layer"], result.get("layers") or {})
    else:
        block = _metric_block(spec["end_to_end"], metrics)
    correct = bool(result["correct"]) and left_over == 0 and all(
        math.isfinite(m["value"]) for m in block.values()
    )
    print(json.dumps({"run": info}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": block,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
