"""The paper's result tables (IV–XIV) as data, and the one runner for them.

Each :class:`Table` names its dataset(s), H and U, the variants it trains
(one :class:`Row` each: a label, a registry name, ``BuildSpec.overrides``
and ``TrainerConfig`` overrides), how it is laid out, its cost rows or
columns, and the paper's claim as notes.  :func:`run_table` trains every
variant at the given :class:`RunSettings` and renders the
:class:`TableResult`.  To run part of a table, cut the data down::

    run_table(replace(TABLES["table9"], rows=TABLES["table9"].rows[:2]), settings)

Layouts:

* ``grid``    — per dataset, one MAE/MAPE/RMSE row each; one column per variant;
* ``columns`` — one row per metric, then per cost; one column per variant;
* ``rows``    — one row per variant; one column per metric, then per cost.

Costs are ``(label, kind)`` pairs: ``memory`` is the analytic training
activation memory at the simulated N (:mod:`repro.training.memory`),
``seconds`` the warm s/epoch, ``params`` the parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..baselines import BuildSpec, build_from_spec, model_family
from ..data import TrafficDataset
from ..data.datasets import dataset_spec
from ..training.memory import V100_BUDGET_GB, ModelDims, activation_gb
from .reporting import TableResult, fmt
from .runner import RunSettings, get_dataset, train_and_score_model

METRICS = ("mae", "mape", "rmse")
ALL_DATASETS = ("PEMS03", "PEMS04", "PEMS07", "PEMS08")


@dataclass(frozen=True)
class Row:
    """One trained variant of a table."""

    label: str
    model: str  # registry name (case-insensitive)
    overrides: Mapping[str, object] = field(default_factory=dict)  # BuildSpec.overrides
    trainer: Mapping[str, object] = field(default_factory=dict)  # TrainerConfig fields
    history: Optional[int] = None  # this variant's H when it differs from the table's


@dataclass(frozen=True)
class Table:
    """One paper table: what to train and how to print it."""

    id: str
    title: str  # formatted with {dataset}, {H} and {U}
    rows: Tuple[Row, ...]
    datasets: Tuple[str, ...] = ("PEMS04",)
    history: int = 12
    horizon: int = 12
    layout: str = "columns"  # grid | columns | rows
    corner: str = "Metric"  # top-left header cell (columns and rows layouts)
    costs: Tuple[Tuple[str, str], ...] = ()
    notes: Tuple[str, ...] = ()
    tally: Optional[Callable[["Table", Dict], str]] = None  # a note computed from the results
    star_best: bool = False  # grid: mark the best model per row with "*"
    oom_gb: Optional[float] = None  # grid: a variant over this paper-scale memory is "OOM"


def paper_scale_memory_gb(model: str, dataset_name: str, history: int, batch: int = 64) -> float:
    """Estimated training-step activation memory at the paper's N (GB)."""
    dims = ModelDims(
        batch=batch,
        num_sensors=dataset_spec(dataset_name).paper_sensors,
        history=history,
        horizon=history,
    )
    return activation_gb(model_family(model), dims)


def build_row(table: Table, row: Row, dataset: TrafficDataset, seed: int = 0):
    """The untrained model of ``row`` (what :func:`run_table` trains)."""
    spec = BuildSpec(
        dataset=dataset,
        history=row.history or table.history,
        horizon=table.horizon,
        seed=seed,
        overrides=row.overrides,
    )
    return build_from_spec(row.model, spec)


def is_oom(table: Table, row: Row, dataset_name: str) -> bool:
    """Whether ``row`` exceeds the table's paper-scale memory budget."""
    if table.oom_gb is None:
        return False
    return paper_scale_memory_gb(row.model, dataset_name, table.history) > table.oom_gb


def run_table(table: Table, settings: Optional[RunSettings] = None) -> TableResult:
    """Train every variant of ``table`` on every dataset and render it."""
    settings = settings or RunSettings.smoke()
    results: Dict[Tuple[str, str], Optional[Dict[str, float]]] = {}
    for name in table.datasets:
        dataset = get_dataset(name, settings.profile)
        for row in table.rows:
            if is_oom(table, row, name):
                results[name, row.label] = None
                continue
            model = build_row(table, row, dataset, settings.seed)
            history = row.history or table.history
            results[name, row.label] = train_and_score_model(
                model, dataset, history, table.horizon, settings, name=row.model, **row.trainer
            )
    headers, lines = _LAYOUTS[table.layout](table, results, settings)
    notes = list(table.notes)
    if table.tally is not None:
        notes.append(table.tally(table, results))
    title = table.title.format(dataset=table.datasets[0], H=table.history, U=table.horizon)
    return TableResult(
        experiment_id=table.id,
        title=f"{title} (scope={settings.scope})",
        headers=headers,
        rows=lines,
        notes=notes,
    )


def _cost(kind: str, table: Table, row: Row, result: Dict[str, float], settings: RunSettings) -> str:
    if kind == "memory":
        dataset = get_dataset(table.datasets[0], settings.profile)
        dims = ModelDims(num_sensors=dataset.num_sensors, history=table.history)
        return fmt(activation_gb(model_family(row.model), dims), 4)
    if kind == "seconds":
        return fmt(result["seconds_per_epoch_warm"])
    return str(int(result["parameters"]))


def _grid(table: Table, results: Dict, settings: RunSettings):
    headers = ["Dataset", "Metric", *[row.label for row in table.rows]]
    lines = []
    for name in table.datasets:
        for metric in METRICS:
            values = [results[name, row.label] for row in table.rows]
            best = min((v[metric] for v in values if v is not None), default=None)
            line = [name if metric == "mae" else "", metric.upper()]
            for value in values:
                cell = "OOM" if value is None else fmt(value[metric])
                if table.star_best and value is not None and value[metric] == best:
                    cell += "*"
                line.append(cell)
            lines.append(line)
    return headers, lines


def _columns(table: Table, results: Dict, settings: RunSettings):
    name = table.datasets[0]
    headers = [table.corner, *[row.label for row in table.rows]]
    lines = [
        [metric.upper(), *[fmt(results[name, row.label][metric]) for row in table.rows]]
        for metric in METRICS
    ]
    for label, kind in table.costs:
        cells = [_cost(kind, table, row, results[name, row.label], settings) for row in table.rows]
        lines.append([label, *cells])
    return headers, lines


def _rows(table: Table, results: Dict, settings: RunSettings):
    name = table.datasets[0]
    cost_labels = [label for label, _ in table.costs]
    headers = [table.corner, *[metric.upper() for metric in METRICS], *cost_labels]
    lines = []
    for row in table.rows:
        result = results[name, row.label]
        costs = [_cost(kind, table, row, result, settings) for _, kind in table.costs]
        lines.append([row.label, *[fmt(result[metric]) for metric in METRICS], *costs])
    return headers, lines


_LAYOUTS = {"grid": _grid, "columns": _columns, "rows": _rows}


def _st_wa_wins(table: Table, results: Dict) -> str:
    wins = total = 0
    for name in table.datasets:
        for metric in METRICS:
            values = {label: r[metric] for (n, label), r in results.items() if n == name}
            total += 1
            wins += "ST-WA" in values and values["ST-WA"] == min(values.values())
    return f"ST-WA best on {wins}/{total} dataset-metric pairs in this run."


def _oom_pairs(table: Table, results: Dict) -> str:
    pairs = [
        f"{row.label}@{name} ({paper_scale_memory_gb(row.model, name, table.history):.1f} GB)"
        for name in table.datasets
        for row in table.rows
        if results[name, row.label] is None
    ]
    return "OOM pairs this run: " + (", ".join(pairs) if pairs else "none")


def _st_chains(table: Table, results: Dict) -> str:
    chains = monotone = 0
    for name in table.datasets:
        for base in ("GRU", "ATT"):
            if (name, base) in results and (name, f"{base}+ST") in results:
                chains += 1
                monotone += results[name, f"{base}+ST"]["mae"] <= results[name, base]["mae"]
    return f"+ST beat its base model in {monotone}/{chains} family-dataset chains this run."


def _models(*names: str) -> Tuple[Row, ...]:
    return tuple(Row(name, name) for name in names)


def _st_wa(label: str, **overrides) -> Row:
    return Row(label, "ST-WA", overrides=overrides)


_TOP3_AND_ST_WA = ("STFGNN", "EnhanceNet", "AGCRN", "ST-WA")

TABLES: Dict[str, Table] = {
    table.id: table
    for table in (
        # Table IV: 12 models x 4 datasets; paper: ST-WA best on 10/12 pairs.
        Table(
            "table4",
            "Overall accuracy, H={H}, U={U}",
            _models(
                "LongFormer", "DCRNN", "STGCN", "STG2Seq", "GWN", "STSGCN",
                "ASTGNN", "STFGNN", "EnhanceNet", "AGCRN", "meta-LSTM", "ST-WA",
            ),
            datasets=ALL_DATASETS,
            layout="grid",
            star_best=True,
            notes=("* marks the best model per row (paper: ST-WA best on 10/12).",),
            tally=_st_wa_wins,
        ),
        # Table V: H in {12, 36, 120} at U=12, columns grouped per H.
        Table(
            "table5",
            "Impact of H on {dataset}, U={U}",
            tuple(
                Row(f"{name} (H={h})", name, history=h)
                for h in (12, 36, 120)
                for name in _TOP3_AND_ST_WA
            ),
            notes=("Paper: ST-WA improves with longer H while baselines stagnate or degrade.",),
        ),
        # Table VI: H=U=72; "OOM" comes from the analytic memory model at
        # the paper's sensor counts against a V100's 16 GB (DESIGN.md).
        Table(
            "table6",
            "Overall accuracy, H={H}, U={U}",
            _models(*_TOP3_AND_ST_WA),
            datasets=ALL_DATASETS,
            history=72,
            horizon=72,
            layout="grid",
            oom_gb=V100_BUDGET_GB,
            notes=(
                f"OOM = analytic activation memory at paper-scale N exceeds {V100_BUDGET_GB:.0f} GB "
                "(paper: STFGNN and EnhanceNet OOM on PEMS07).",
            ),
            tally=_oom_pairs,
        ),
        # Table VII: spatial (+S) and spatio-temporal (+ST) parameter
        # generation grafted onto a plain GRU and a plain attention model.
        Table(
            "table7",
            "Enhanced GRU and ATT, H={H}, U={U}",
            _models("GRU", "GRU+S", "GRU+ST", "ATT", "ATT+S", "ATT+ST"),
            datasets=ALL_DATASETS,
            layout="grid",
            notes=("Paper: +S improves over the base model and +ST improves further.",),
            tally=_st_chains,
        ),
        # Table VIII: the ablation ladder with its cost rows.
        Table(
            "table8",
            "Ablation study on {dataset}",
            _models("SA", "WA-1", "WA", "S-WA", "ST-WA"),
            corner="",
            costs=(
                ("Memory (GB, analytic)", "memory"),
                ("Training (s/epoch)", "seconds"),
                ("# Para", "params"),
            ),
            notes=(
                "Paper shape: SA worst accuracy and heaviest; WA-1 < WA < S-WA <= ST-WA accuracy;",
                "ST-WA best accuracy at moderate extra runtime.",
            ),
        ),
        # Table IX: per-layer window sizes; S=12 is the single-layer model.
        Table(
            "table9",
            "Effect of window sizes, {dataset}",
            tuple(
                _st_wa("S=" + ",".join(map(str, sizes)), window_sizes=sizes)
                for sizes in ((3, 2, 2), (2, 3, 2), (2, 2, 3), (4, 3), (6, 2), (12,))
            ),
            notes=("Paper: 3-layer variants within noise of each other; single layer (S=12) worst.",),
        ),
        # Table X: the KL term's weight alpha of Eq. 20.  "With" trains at
        # alpha = 0.1, not TrainerConfig's 0.02 that every other ST-WA row
        # uses, so its MAE differs from Tables VIII/XI's ST-WA.  A grid over
        # alpha is an open item in ROADMAP.md.
        Table(
            "table10",
            "Effect of the regularization term, {dataset}",
            (
                Row("With", "ST-WA", trainer={"kl_weight": 0.1}),
                Row("Without", "ST-WA", trainer={"kl_weight": 0.0}),
            ),
            notes=("Paper: removing the KL regularizer loses accuracy (19.06 -> 19.23 MAE).",),
        ),
        # Table XI: z and z_t collapse to their means and the KL term goes.
        Table(
            "table11",
            "Effect of stochastic latent variables, {dataset}",
            (Row("ST-WA", "ST-WA"), Row("Deterministic ST-WA", "ST-WA-det")),
            layout="rows",
            corner="",
            notes=("Paper: stochastic beats deterministic (19.06 vs 19.32 MAE).",),
        ),
        # Table XII: latent size k; too small underfits, too large overfits.
        Table(
            "table12",
            "Effect of latent size k, {dataset}",
            tuple(_st_wa(str(k), latent_dim=k) for k in (4, 8, 16, 32)),
            layout="rows",
            corner="k",
            notes=("Paper: k=16 best; k=4 underfits, k=32 overfits.",),
        ),
        # Table XIII: number of proxies p at the long-horizon setting.
        Table(
            "table13",
            "Effect of number of proxies, {dataset}, H=U={H}",
            tuple(_st_wa(str(p), num_proxies=p) for p in (1, 2, 3)),
            history=72,
            horizon=72,
            layout="rows",
            corner="p",
            costs=(("Training (s/epoch)", "seconds"), ("# Para", "params")),
            notes=("Paper: accuracy improves with p while time and parameters grow.",),
        ),
        # Table XIV: the learned weighted proxy aggregator vs a uniform mean.
        Table(
            "table14",
            "Effect of aggregation functions, {dataset}, H=U={H}",
            (Row("Mean Aggregator", "ST-WA-mean"), Row("Our Aggregator", "ST-WA")),
            history=72,
            horizon=72,
            layout="rows",
            corner="",
            notes=("Paper: the learned weighted aggregator clearly beats the mean (23.54 vs 24.65 MAE).",),
        ),
        # The paper's future work (Section VI): planar-flow latents.
        Table(
            "flow_extension",
            "Gaussian vs normalizing-flow latents",
            (Row("ST-WA (Gaussian)", "ST-WA"), Row("ST-WA (planar flows)", "ST-WA-flow")),
            layout="rows",
            corner="",
            costs=(("s/epoch", "seconds"), ("# Para", "params")),
            notes=("Implements the paper's future-work direction (Section VI).",),
        ),
    )
}
