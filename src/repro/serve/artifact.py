"""Serving artifacts: a trained checkpoint turned into a pure predict fn.

A :class:`ForecasterArtifact` is the deployable unit of this repo: model
weights frozen (``requires_grad=False``), modules in eval mode (dropout and
latent sampling off), the training-split scaler baked in, and a single
``predict(window) -> horizon`` function that runs the forward pass under
:class:`repro.tensor.inference_mode` — raw units in, raw units out, no
graph construction, no gradient buffers, no op tracing.

Two sources:

* :func:`save_artifact` / :func:`load_artifact` — a self-describing ``.npz``
  (weights + model name + task shape + scaler statistics + the dataset
  identity needed to rebuild the architecture through the model registry).
* :meth:`ForecasterArtifact.from_training_checkpoint` — promote a live
  schema-v2 training checkpoint (:mod:`repro.training.checkpoint`) straight
  to a serving artifact, preferring the best-validation weights.

Foreign, truncated, or version-skewed archives raise
:class:`repro.training.CheckpointError` with the found vs. expected schema,
never a bare ``KeyError``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..data.datasets import TrafficDataset, load_dataset
from ..data.scalers import MinMaxScaler, StandardScaler
from ..exec import SerialExecutor
from ..nn import Module
from ..training.checkpoint import (
    CheckpointError,
    load_training_checkpoint,
    read_archive,
    write_archive,
)

PathLike = Union[str, Path]

#: bump when the serving-artifact archive layout changes
ARTIFACT_VERSION = 1


def _scaler_to_meta(scaler) -> Dict:
    if isinstance(scaler, StandardScaler):
        return {"kind": "standard", "mean": scaler.mean, "std": scaler.std}
    if isinstance(scaler, MinMaxScaler):
        return {"kind": "minmax", "low": scaler.low, "high": scaler.high}
    raise TypeError(f"unsupported scaler type {type(scaler).__name__}")


def _scaler_from_meta(meta: Dict):
    kind = meta.get("kind")
    if kind == "standard":
        scaler = StandardScaler()
        scaler.mean, scaler.std = float(meta["mean"]), float(meta["std"])
        return scaler
    if kind == "minmax":
        scaler = MinMaxScaler()
        scaler.low, scaler.high = float(meta["low"]), float(meta["high"])
        return scaler
    raise CheckpointError(f"artifact carries unknown scaler kind {kind!r}")


def _weights_digest(state: Dict[str, np.ndarray]) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()


def save_artifact(
    path: PathLike,
    model: Module,
    *,
    model_name: str,
    history: int,
    horizon: int,
    scaler,
    dataset_name: Optional[str] = None,
    dataset_profile: Optional[str] = None,
    overrides: Optional[Dict] = None,
    seed: int = 0,
    extra: Optional[Dict] = None,
) -> Path:
    """Write a self-describing serving artifact for ``model`` to ``path``.

    ``dataset_name``/``dataset_profile`` let :func:`load_artifact` rebuild
    the architecture without the caller supplying a dataset (the simulated
    datasets are deterministic by name+profile); omit them for models whose
    shape the registry can build from ``overrides`` alone.
    """
    metadata = {
        "artifact_version": ARTIFACT_VERSION,
        "model_name": model_name,
        "history": int(history),
        "horizon": int(horizon),
        "seed": int(seed),
        "overrides": dict(overrides or {}),
        "scaler": _scaler_to_meta(scaler),
        "dataset_name": dataset_name,
        "dataset_profile": dataset_profile,
        "extra": dict(extra or {}),
    }
    return write_archive(path, model.state_dict(), metadata)


def _build_model(metadata: Dict, dataset: Optional[TrafficDataset]) -> Module:
    from ..baselines import BuildSpec, build_from_spec  # deferred: heavy import

    if dataset is None:
        name, profile = metadata.get("dataset_name"), metadata.get("dataset_profile")
        if not name or not profile:
            raise CheckpointError(
                "artifact does not name its dataset; pass dataset= (or model=) to load it"
            )
        dataset = load_dataset(name, profile=profile)
    spec = BuildSpec(
        dataset=dataset,
        history=int(metadata["history"]),
        horizon=int(metadata["horizon"]),
        seed=int(metadata.get("seed", 0)),
        overrides=dict(metadata.get("overrides", {})),
    )
    return build_from_spec(metadata["model_name"], spec)


def load_artifact(
    path: PathLike,
    model: Optional[Module] = None,
    dataset: Optional[TrafficDataset] = None,
) -> "ForecasterArtifact":
    """Load an artifact written by :func:`save_artifact`.

    ``model`` (optional) skips registry reconstruction — the weights are
    loaded into it directly.  ``dataset`` (optional) supplies the network
    the registry builder needs, instead of regenerating it from the
    archive's dataset identity.
    """
    arrays, metadata = read_archive(path)
    version = metadata.get("artifact_version")
    if version != ARTIFACT_VERSION:
        raise CheckpointError(
            f"{path} is not a serving artifact "
            f"(artifact_version {version!r}, expected {ARTIFACT_VERSION})"
        )
    for key in ("model_name", "history", "horizon", "scaler"):
        if key not in metadata:
            raise CheckpointError(f"{path} is missing required artifact field {key!r}")
    if model is None:
        model = _build_model(metadata, dataset)
    try:
        model.load_state_dict(arrays)
    except (KeyError, ValueError) as error:
        raise CheckpointError(
            f"{path} weights do not fit model {metadata['model_name']!r}: {error}"
        ) from error
    return ForecasterArtifact(
        model,
        scaler=_scaler_from_meta(metadata["scaler"]),
        model_name=str(metadata["model_name"]),
        history=int(metadata["history"]),
        horizon=int(metadata["horizon"]),
        metadata=metadata,
    )


class ForecasterArtifact:
    """A frozen, eval-mode forecaster with a pure ``predict`` function.

    Construction freezes every parameter (gradients can never accumulate
    on a serving replica) and switches all modules to eval mode.  The
    instance is stateless across calls — safe to share behind the
    micro-batcher, which serializes forward passes anyway.
    """

    def __init__(
        self,
        model: Module,
        *,
        scaler,
        model_name: str,
        history: int,
        horizon: int,
        metadata: Optional[Dict] = None,
    ):
        self.model = model
        self.scaler = scaler
        self.model_name = model_name
        self.history = int(history)
        self.horizon = int(horizon)
        self.metadata = dict(metadata or {})
        self.freeze()
        #: the execution seam (repro.exec): scaler + shape handling + the
        #: inference_mode forward live there, shared with every other
        #: prediction surface.  Resource-free, so it stays open for life.
        self.executor = SerialExecutor(
            self.model, scaler=self.scaler, history=self.history
        ).open()
        #: stable identity for cache keys: architecture + exact weights
        self.model_id = f"{model_name}:{_weights_digest(model.state_dict())}"

    @property
    def registry_version(self) -> Optional[int]:
        """Fleet-registry version this artifact was loaded as, or None.

        :meth:`repro.fleet.ModelRegistry.load` stamps
        ``metadata["registry"] = {"model_id", "version"}``; artifacts that
        never went through a registry have no version.
        """
        registry = self.metadata.get("registry") or {}
        version = registry.get("version")
        return None if version is None else int(version)

    def freeze(self) -> "ForecasterArtifact":
        """Eval mode + ``requires_grad=False`` on every parameter."""
        self.model.eval()
        for parameter in self.model.parameters():
            parameter.requires_grad = False
            parameter.grad = None
        return self

    # ------------------------------------------------------------------ #
    @classmethod
    def from_training_checkpoint(
        cls,
        path: PathLike,
        model: Module,
        *,
        scaler,
        model_name: str,
        history: int,
        horizon: int,
        use_best: bool = True,
    ) -> "ForecasterArtifact":
        """Promote a schema-v2 training checkpoint to a serving artifact.

        ``use_best`` picks the best-validation weights recorded in the
        checkpoint (falling back to the last epoch's weights when the best
        snapshot is absent).
        """
        ckpt = load_training_checkpoint(path)
        state = ckpt.best_state if (use_best and ckpt.best_state) else ckpt.model_state
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise CheckpointError(
                f"{path} weights do not fit model {model_name!r}: {error}"
            ) from error
        return cls(
            model,
            scaler=scaler,
            model_name=model_name,
            history=history,
            horizon=horizon,
            metadata={"source_checkpoint": str(path), "source_epoch": ckpt.epoch},
        )

    # ------------------------------------------------------------------ #
    def predict(self, window: np.ndarray) -> np.ndarray:
        """Forecast ``horizon`` raw-unit steps from a raw-unit history window.

        ``window`` is ``(N, H, F)`` for one network snapshot or
        ``(B, N, H, F)`` for a batch; the result keeps the input's rank
        (``(N, U, F)`` / ``(B, N, U, F)``).  Delegates to the artifact's
        :class:`repro.exec.SerialExecutor`: scaling in, graph-free
        forward under :class:`repro.tensor.inference_mode`, inverse scaling
        out.
        """
        return self.executor.predict(None, window)

    def save(self, path: PathLike, **kwargs) -> Path:
        """Persist this artifact via :func:`save_artifact`."""
        meta = self.metadata
        return save_artifact(
            path,
            self.model,
            model_name=self.model_name,
            history=self.history,
            horizon=self.horizon,
            scaler=self.scaler,
            dataset_name=kwargs.pop("dataset_name", meta.get("dataset_name")),
            dataset_profile=kwargs.pop("dataset_profile", meta.get("dataset_profile")),
            overrides=kwargs.pop("overrides", meta.get("overrides")),
            seed=kwargs.pop("seed", int(meta.get("seed", 0))),
            **kwargs,
        )

    def __repr__(self) -> str:
        return (
            f"ForecasterArtifact({self.model_id}, H={self.history}, U={self.horizon}, "
            f"params={self.model.num_parameters()})"
        )
