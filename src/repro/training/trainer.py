"""Training loop: Adam + Huber(+KL) + early stopping (paper Section V-A).

The paper trains with Adam at lr=1e-3, batch size 64, up to 200 epochs with
early stopping (patience 15).  The :class:`Trainer` reproduces that loop on
our substrate and additionally records per-epoch wall time (for the runtime
figures) and supports a ``max_batches_per_epoch`` cap so the fast CI profile
finishes in seconds.

Observability: when ``TrainerConfig.sink`` is set, the loop emits a
structured event stream (``train_begin`` / ``batch`` / ``epoch`` /
``recovery`` / ``train_end`` dicts carrying loss, grad-norm, lr and wall
seconds) through the :class:`repro.obs.MetricsSink`; DESIGN.md documents the
schema.  Sinks are wrapped in :class:`repro.obs.SafeSink` so a failing sink
degrades to dropping events instead of killing the run.  With no sink
configured nothing is built or emitted.

Resilience (see DESIGN.md "Resilience"): the loop is epoch-transactional.
At every epoch boundary the full training state — weights, best-so-far
weights, optimizer moments, early-stopping state, and all RNG streams — is
snapshotted in memory and (with ``checkpoint_dir`` set) persisted atomically
to disk, so:

* ``fit(resume_from=...)`` continues an interrupted run **bit-exactly** —
  the resumed trajectory is indistinguishable from an uninterrupted one.
* With a :class:`repro.resilience.RecoveryPolicy`, any
  :class:`FloatingPointError` raised during an epoch (NaN loss, a
  :func:`repro.tensor.detect_anomaly` hit, non-finite gradient norm, or a
  trailing-median loss explosion) rolls the run back to the last good
  boundary, backs the learning rate off, and retries — bounded by
  ``max_retries`` consecutive failures.

Execution (see DESIGN.md "Executor"): the loop never runs a model forward
itself — every step goes through a :class:`repro.exec.Executor` selected
by ``TrainerConfig(executor=ExecutorSpec(...))``.  The default is the
in-process :class:`repro.exec.SerialExecutor`;
``ExecutorSpec.sharded(n_workers=N)`` splits every mini-batch of a
sensor-shardable model (SimST) into N contiguous sensor ranges, computes
one in this process and the rest in worker processes
(:mod:`repro.parallel`), and tree-reduces the shard gradients, so
optimizer state, checkpoints, recovery, and RNG streams all stay
in-process and the features above compose with sharding unchanged.
Batches are assembled in this process for every executor.  The sharded loss
trajectory matches serial training to float64 reduction accuracy at any
shard count.  Evaluation and prediction route through a scaler-less
:class:`repro.exec.SerialExecutor` (the same graph-free fast path the
serving plane uses); validation inside ``fit`` on a sensor-sharded
executor runs on its worker pool instead.

Scaling convention: models operate in z-scored space; the loss compares
against scaled targets while reported metrics are computed in raw units via
the dataset's scaler.  Targets containing NaN (dead sensors) are handled by
the masked Huber loss and masked metrics automatically.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..data.datasets import TrafficDataset
from ..data.windows import BatchIterator, SlidingWindowDataset, WindowSpec
from ..exec import ExecutorSpec, SerialExecutor, make_executor
from ..nn import Module
from ..obs import MetricsSink, NullSink, SafeSink
from ..optim import Adam, EarlyStopping, clip_grad_norm
from ..resilience.recovery import LossExplosionError, RecoveryPolicy
from ..tensor import NumericalAnomalyError
from ..tensor.rng import module_generators
from . import checkpoint as checkpoint_module
from . import metrics as metrics_module

PathLike = Union[str, Path]


@dataclass
class TrainerConfig:
    """Knobs of the training loop (paper defaults, scaled-down epochs)."""

    lr: float = 1e-3
    epochs: int = 200
    batch_size: int = 64
    patience: int = 15
    grad_clip: float = 5.0
    huber_delta: float = 1.0
    kl_weight: float = 0.02
    min_delta: float = 0.0  # minimum val-MAE improvement to reset patience
    max_batches_per_epoch: Optional[int] = None
    eval_batches: Optional[int] = None
    seed: int = 0
    verbose: bool = False
    sink: Optional[MetricsSink] = None  # structured event stream (JSONL etc.)
    # --- resilience ---------------------------------------------------- #
    checkpoint_dir: Optional[PathLike] = None  # persist full state per epoch
    checkpoint_every: int = 1  # epochs between on-disk checkpoints
    keep_last: int = 3  # retention for per-epoch checkpoints (<=0 keeps all)
    keep_best: bool = True  # also maintain best.npz (best-val weights)
    detect_anomaly: bool = False  # per-op NaN/Inf screening (slow; debugging)
    recovery: Optional[RecoveryPolicy] = None  # rollback/retry on divergence
    batch_hook: Optional[object] = None  # after_backward/after_batch (resilience.faults)
    # --- execution backend (repro.exec; see DESIGN.md "Executor") ------- #
    executor: Optional[ExecutorSpec] = None  # None -> serial in-process


@dataclass
class TrainingHistory:
    """Per-epoch record produced by :meth:`Trainer.fit`."""

    train_loss: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)  # mean pre-clip norm per epoch
    best_epoch: int = -1
    stopped_early: bool = False
    recoveries: int = 0  # rollback/retry cycles taken by the recovery policy

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def seconds_per_epoch(self) -> float:
        """Mean wall seconds over *all* epochs, including the cold first one."""
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0

    @property
    def seconds_per_epoch_warm(self) -> float:
        """Mean wall seconds skipping epoch 0.

        The first epoch pays one-off costs (dataset windows materializing,
        allocator and CPU-cache warmup) that inflate the average the runtime
        harnesses report; skip it whenever more than one epoch ran.
        """
        if len(self.epoch_seconds) > 1:
            return float(np.mean(self.epoch_seconds[1:]))
        return self.seconds_per_epoch


class Trainer:
    """Train a forecaster on a :class:`TrafficDataset`.

    The model must map scaled ``(B, N, H, F)`` tensors to scaled
    ``(B, N, U, F)`` tensors; if it exposes ``kl_divergence()`` the KL
    regularizer is added with weight ``config.kl_weight`` (Eq. 20).
    """

    def __init__(
        self,
        model: Module,
        dataset: TrafficDataset,
        spec: WindowSpec,
        config: Optional[TrainerConfig] = None,
    ):
        self.model = model
        self.dataset = dataset
        self.spec = spec
        self.config = config or TrainerConfig()
        hook = self.config.batch_hook
        if hook is not None and not (
            hasattr(hook, "after_backward") or hasattr(hook, "after_batch")
        ):
            raise TypeError(
                f"TrainerConfig.batch_hook must have an after_backward or an "
                f"after_batch method; {type(hook).__name__} has neither, so it "
                "would never be called"
            )
        # explicit None check: an empty ListSink is falsy via __len__.
        # User-provided sinks are isolated behind SafeSink so an emit
        # failure (full disk, closed handle) can never kill training.
        self.sink: MetricsSink = (
            NullSink() if self.config.sink is None else SafeSink(self.config.sink)
        )
        self._observed = self.config.sink is not None  # skip event building when off
        # non-learned baselines (persistence, fitted VAR) have no parameters
        parameters = model.parameters()
        self.optimizer = Adam(parameters, lr=self.config.lr) if parameters else None
        self._rng = np.random.default_rng(self.config.seed)
        self._recent_losses: deque = deque(maxlen=25)
        self.executor_spec = self._resolve_executor_spec(self.config)
        self.executor = make_executor(
            model,
            self.executor_spec,
            huber_delta=self.config.huber_delta,
            kl_weight=self.config.kl_weight,
        )
        # evaluation/prediction share the serving plane's graph-free fast
        # path; inputs are already in scaled model space, so no scaler.
        # Resource-free, so it can stay open for the trainer's lifetime.
        self._infer = SerialExecutor(model).open()
        # what evaluate() predicts through: the in-process executor, or a
        # sensor-sharded pool while fit() has it open
        self._evaluator = self._infer
        self._windows = {
            "train": SlidingWindowDataset(dataset.train, spec, raw=dataset.train_raw),
            "val": SlidingWindowDataset(dataset.val, spec, raw=dataset.val_raw),
            "test": SlidingWindowDataset(dataset.test, spec, raw=dataset.test_raw),
        }

    @staticmethod
    def _resolve_executor_spec(cfg: TrainerConfig) -> ExecutorSpec:
        """Map the config onto an :class:`ExecutorSpec`."""
        spec = cfg.executor
        if spec is None:
            return ExecutorSpec.serial(detect_anomaly=cfg.detect_anomaly)
        if cfg.detect_anomaly and not spec.detect_anomaly:
            spec = spec.with_overrides(detect_anomaly=True)
        return spec

    # ------------------------------------------------------------------ #
    def fit(self, resume_from: Optional[PathLike] = None) -> TrainingHistory:
        """Run the training loop; restores the best-validation weights.

        ``resume_from`` names a full-state checkpoint written by a previous
        run with ``checkpoint_dir`` set (see
        :func:`repro.training.latest_checkpoint`); training continues from
        the epoch after it, bit-exactly reproducing the uninterrupted run.
        """
        cfg = self.config
        history = TrainingHistory()
        if self.optimizer is None:
            return history  # nothing to train
        stopper = EarlyStopping(patience=cfg.patience, min_delta=cfg.min_delta)
        best_state = self.model.state_dict()
        start_epoch = 0
        if resume_from is not None:
            best_state, start_epoch = self._restore_checkpoint(resume_from, history, stopper)
        self.executor.open()  # workers spawn here for the sharded backend
        if getattr(self.executor, "shard_axis", None) == "sensor":
            # validation runs on the pool: block by block in the workers
            # instead of one full-network forward in this process
            self._evaluator = self.executor
        iterator = self._train_iterator()
        if self._observed:
            self.sink.emit(
                {
                    "event": "train_begin",
                    "model": type(self.model).__name__,
                    "parameters": self.model.num_parameters(),
                    "epochs": cfg.epochs,
                    "batch_size": cfg.batch_size,
                    "lr": cfg.lr,
                    "seed": cfg.seed,
                    "start_epoch": start_epoch,
                    "executor": self.executor_spec.kind,
                    "n_workers": self.executor_spec.n_workers,
                    "time": time.time(),
                }
            )
        policy = cfg.recovery
        self._recent_losses = deque(maxlen=policy.window if policy else 25)
        attempts = 0
        # in-memory rollback point: the state at the last good epoch boundary
        snapshot = self._capture_state(history, stopper, best_state, start_epoch - 1)
        epoch = start_epoch
        try:
            while epoch < cfg.epochs:
                try:
                    val_mae, should_stop = self._run_epoch(epoch, iterator, history, stopper)
                except FloatingPointError as error:
                    if policy is None or attempts >= policy.max_retries:
                        raise
                    attempts += 1
                    lr_before = self.optimizer.lr
                    best_state = self._restore_state(snapshot, history, stopper)
                    self.optimizer.lr = policy.backed_off_lr(lr_before)
                    self._recent_losses.clear()
                    history.recoveries += 1
                    if self._observed:
                        self.sink.emit(
                            {
                                "event": "recovery",
                                "epoch": epoch,
                                "attempt": attempts,
                                "error": type(error).__name__,
                                "message": str(error).splitlines()[0],
                                "rollback_epoch": snapshot["epoch"],
                                "lr": self.optimizer.lr,
                                "time": time.time(),
                            }
                        )
                    if cfg.verbose:
                        print(
                            f"recovery: {type(error).__name__} at epoch {epoch}; "
                            f"rolled back to epoch {snapshot['epoch']}, lr -> "
                            f"{self.optimizer.lr:.2e} (attempt {attempts}/{policy.max_retries})"
                        )
                    continue
                attempts = 0  # a clean epoch resets the retry budget
                if stopper.improved_last_update:
                    best_state = self.model.state_dict()
                if cfg.checkpoint_dir is not None and (epoch + 1) % max(1, cfg.checkpoint_every) == 0:
                    self._save_checkpoint(epoch, history, stopper, best_state, val_mae)
                snapshot = self._capture_state(history, stopper, best_state, epoch)
                if should_stop:
                    history.stopped_early = True
                    break
                epoch += 1
        finally:
            self._evaluator = self._infer
            self.executor.close()
        history.best_epoch = stopper.best_epoch
        self.model.load_state_dict(best_state)
        if self._observed:
            self.sink.emit(
                {
                    "event": "train_end",
                    "epochs_run": history.epochs_run,
                    "best_epoch": history.best_epoch,
                    "stopped_early": history.stopped_early,
                    "recoveries": history.recoveries,
                    "seconds_per_epoch": history.seconds_per_epoch,
                    "seconds_per_epoch_warm": history.seconds_per_epoch_warm,
                    "time": time.time(),
                }
            )
        return history

    def _run_epoch(
        self,
        epoch: int,
        iterator: BatchIterator,
        history: TrainingHistory,
        stopper: EarlyStopping,
    ) -> Tuple[float, bool]:
        """One full epoch + validation; returns ``(val_mae, should_stop)``."""
        cfg = self.config
        policy = cfg.recovery
        start = time.perf_counter()
        self.model.train()
        losses = []
        norms = []
        for batch_index, (x_batch, y_raw) in enumerate(iterator):
            loss, grad_norm = self._train_step(x_batch, y_raw, epoch, batch_index)
            if policy is not None:
                recent = self._recent_losses
                if len(recent) >= policy.min_history:
                    median = float(np.median(recent))
                    if loss > policy.explosion_factor * max(median, 1e-8):
                        raise LossExplosionError(loss, median, policy.explosion_factor)
                recent.append(loss)
            losses.append(loss)
            norms.append(grad_norm)
            if self._observed:
                self.sink.emit(
                    {
                        "event": "batch",
                        "epoch": epoch,
                        "batch": batch_index,
                        "loss": loss,
                        "grad_norm": grad_norm,
                        "time": time.time(),
                    }
                )
        history.train_loss.append(float(np.mean(losses)))
        history.epoch_seconds.append(time.perf_counter() - start)
        history.grad_norms.append(float(np.mean(norms)))

        val = self.evaluate("val", max_batches=cfg.eval_batches)
        history.val_mae.append(float(val["mae"]))
        should_stop = stopper.update(val["mae"], epoch)
        if self._observed:
            self.sink.emit(
                {
                    "event": "epoch",
                    "epoch": epoch,
                    "train_loss": history.train_loss[-1],
                    "val_mae": float(val["mae"]),
                    "grad_norm": history.grad_norms[-1],
                    "lr": self.optimizer.lr,
                    "seconds": history.epoch_seconds[-1],
                    "time": time.time(),
                }
            )
        if cfg.verbose:
            print(
                f"epoch {epoch:3d} loss={history.train_loss[-1]:.4f} "
                f"val_mae={val['mae']:.3f} ({history.epoch_seconds[-1]:.2f}s)"
            )
        return float(val["mae"]), should_stop

    def _train_step(self, x_batch: np.ndarray, y_raw: np.ndarray, epoch: int, batch_index: int) -> tuple:
        """One optimizer step; returns ``(loss, pre-clip grad norm)``.

        The forward/backward itself is the executor's job (serial or
        sharded — the trainer cannot tell); clipping, fault hooks, and the
        optimizer step stay here so optimizer state never leaves the
        parent process.
        """
        scaled_target = self.dataset.scaler.transform(y_raw)
        result = self.executor.train_step(None, (x_batch, scaled_target))
        return result.loss, self._apply_gradients(epoch, batch_index)

    def _apply_gradients(self, epoch: int, batch_index: int) -> float:
        """Fault hooks, clipping, non-finite guard, optimizer step."""
        cfg = self.config
        hook = cfg.batch_hook
        if hook is not None:
            after_backward = getattr(hook, "after_backward", None)
            if after_backward is not None:
                after_backward(self, epoch, batch_index)
        max_norm = cfg.grad_clip if cfg.grad_clip else float("inf")
        grad_norm = clip_grad_norm(self.optimizer.parameters, max_norm)
        if not np.isfinite(grad_norm):
            # clip_grad_norm skipped scaling and returned the raw norm;
            # stepping would poison the Adam moments — surface it instead
            raise NumericalAnomalyError(
                "clip_grad_norm", "backward", "nan" if np.isnan(grad_norm) else "inf"
            )
        self.optimizer.step()
        if hook is not None:
            after_batch = getattr(hook, "after_batch", None)
            if after_batch is not None:
                after_batch(self, epoch, batch_index)
        return grad_norm

    def _train_iterator(self):
        """The training-batch source the executor provides."""
        cfg = self.config
        return self.executor.make_batch_iterator(
            self._windows["train"],
            batch_size=cfg.batch_size,
            shuffle=True,
            rng=self._rng,
            max_batches=cfg.max_batches_per_epoch,
        )

    # ------------------------------------------------------------------ #
    # resilience: state capture / restore / persistence
    # ------------------------------------------------------------------ #
    def _rng_generators(self) -> Dict[str, np.random.Generator]:
        """Every RNG stream training consumes, keyed by qualified name.

        Modules hold their generators as instance attributes (dropout masks,
        latent sampling); discovering them generically keeps checkpointing
        model-agnostic.
        """
        return module_generators(self.model)

    def _rng_states(self) -> Dict:
        return {
            "trainer": self._rng.bit_generator.state,
            "modules": {
                key: gen.bit_generator.state for key, gen in self._rng_generators().items()
            },
        }

    def _set_rng_states(self, states: Dict) -> None:
        self._rng.bit_generator.state = states["trainer"]
        generators = self._rng_generators()
        for key, state in states.get("modules", {}).items():
            if key in generators:
                generators[key].bit_generator.state = state

    @staticmethod
    def _history_state(history: TrainingHistory) -> Dict:
        return {
            "train_loss": list(history.train_loss),
            "val_mae": list(history.val_mae),
            "epoch_seconds": list(history.epoch_seconds),
            "grad_norms": list(history.grad_norms),
            "best_epoch": history.best_epoch,
            "stopped_early": history.stopped_early,
            "recoveries": history.recoveries,
        }

    @staticmethod
    def _load_history(history: TrainingHistory, state: Dict) -> None:
        history.train_loss[:] = [float(v) for v in state["train_loss"]]
        history.val_mae[:] = [float(v) for v in state["val_mae"]]
        history.epoch_seconds[:] = [float(v) for v in state["epoch_seconds"]]
        history.grad_norms[:] = [float(v) for v in state["grad_norms"]]
        history.best_epoch = int(state["best_epoch"])
        history.stopped_early = bool(state["stopped_early"])
        history.recoveries = int(state.get("recoveries", 0))

    def _capture_state(
        self,
        history: TrainingHistory,
        stopper: EarlyStopping,
        best_state: Dict[str, np.ndarray],
        epoch: int,
    ) -> Dict:
        """In-memory snapshot of the epoch boundary (rollback point)."""
        return {
            "epoch": epoch,
            "model": self.model.state_dict(),
            "best": dict(best_state),
            "optimizer": self.optimizer.state_dict(),
            "stopper": stopper.state_dict(),
            "rng": self._rng_states(),
            "history": self._history_state(history),
        }

    def _restore_state(
        self, snapshot: Dict, history: TrainingHistory, stopper: EarlyStopping
    ) -> Dict[str, np.ndarray]:
        """Roll every mutable piece of the run back to ``snapshot``."""
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optimizer"])
        stopper.load_state_dict(snapshot["stopper"])
        self._set_rng_states(snapshot["rng"])
        self._load_history(history, snapshot["history"])
        return dict(snapshot["best"])

    def _save_checkpoint(
        self,
        epoch: int,
        history: TrainingHistory,
        stopper: EarlyStopping,
        best_state: Dict[str, np.ndarray],
        val_mae: float,
    ) -> Path:
        directory = Path(self.config.checkpoint_dir)
        state = {
            "epoch": epoch,
            "stopper": stopper.state_dict(),
            "rng": self._rng_states(),
            "history": self._history_state(history),
        }
        path = checkpoint_module.save_training_checkpoint(
            directory / f"ckpt_epoch_{epoch:04d}.npz",
            model_state=self.model.state_dict(),
            best_state=best_state,
            optimizer_state=self.optimizer.state_dict(),
            state=state,
        )
        checkpoint_module.prune_checkpoints(directory, self.config.keep_last)
        if self.config.keep_best and stopper.improved_last_update:
            checkpoint_module.save_state_dict(
                best_state,
                directory / "best.npz",
                metadata={"epoch": epoch, "val_mae": float(val_mae)},
            )
        return path

    def _restore_checkpoint(
        self, path: PathLike, history: TrainingHistory, stopper: EarlyStopping
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Load a full-state checkpoint; returns ``(best_state, start_epoch)``."""
        ckpt = checkpoint_module.load_training_checkpoint(path)
        self.model.load_state_dict(ckpt.model_state)
        if ckpt.optimizer_state is not None:
            self.optimizer.load_state_dict(ckpt.optimizer_state)
        stopper.load_state_dict(ckpt.state["stopper"])
        self._set_rng_states(ckpt.state["rng"])
        self._load_history(history, ckpt.state["history"])
        return ckpt.best_state, ckpt.epoch + 1

    # ------------------------------------------------------------------ #
    def evaluate(self, split: str = "test", max_batches: Optional[int] = None) -> Dict[str, float]:
        """Raw-unit MAE/RMSE/MAPE over ``split`` (NaN targets are masked).

        Predicts through the in-process :class:`repro.exec.SerialExecutor`,
        except while :meth:`fit` has a sensor-sharded executor open: then the
        forecasts come from its worker pool.
        """
        if split not in self._windows:
            raise KeyError(f"split must be one of {sorted(self._windows)}")
        predictions, targets = [], []
        iterator = BatchIterator(
            self._windows[split],
            batch_size=self.config.batch_size,
            shuffle=False,
            max_batches=max_batches,
        )
        for x_batch, y_raw in iterator:
            prediction = self._evaluator.predict(None, x_batch)
            predictions.append(self.dataset.scaler.inverse_transform(prediction))
            targets.append(y_raw)
        prediction = np.concatenate(predictions)
        target = np.concatenate(targets)
        return metrics_module.evaluate_all(prediction, target)

    def predict(self, x_batch: np.ndarray) -> np.ndarray:
        """Forecast raw-unit values for a scaled input batch (eval mode).

        Runs through the trainer's in-process :class:`repro.exec.SerialExecutor`
        (graph-free forward, dropout and latent sampling off); the model's
        previous train/eval mode is restored afterward.
        """
        scaled = self._infer.predict(None, x_batch)
        return self.dataset.scaler.inverse_transform(scaled)
