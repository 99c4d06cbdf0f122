"""Zero-downtime model lifecycle above the serving plane.

``repro.fleet`` turns the single-artifact :class:`repro.serve.ServingEngine`
into an operated fleet of per-city models:

* :class:`ModelRegistry` — on-disk versioned artifact store with atomic
  manifest updates (tmp + ``os.replace``), per-tenant version history,
  ``promote``/``rollback``, and corruption-diagnosing loads
  (:class:`RegistryError`).
* :class:`FleetRouter` — N live engines routed by ``model_id`` with
  per-tenant admission control (overload sheds with ``source="shed"``),
  atomic hot swaps that drain the old engine, primary/shadow mirroring
  with divergence metrics, and deterministic weighted A/B serving.
* :class:`DriftDetector` / :class:`DriftPolicy` — rolling one-step-ahead
  residual error vs. a promotion-time baseline, fed by the router from
  the live stream.
* :class:`FleetManager` / :class:`RetrainPolicy` — the lifecycle loop:
  deploy from the registry, and on drift fine-tune the live weights via
  the ordinary :class:`repro.training.Trainer`, validate on held-back
  windows, publish, promote, and hot-swap.

``tests/test_fleet.py`` drills the whole lifecycle — admission shedding,
a hot swap under concurrent traffic with zero dropped requests, a shadow
deployment producing divergence metrics, and the drift-tripped
retrain→validate→swap loop on a level-shifted stream; see DESIGN.md
"Fleet lifecycle".
"""

from .drift import DriftDetector, DriftPolicy
from .lifecycle import FleetManager, RetrainPolicy, holdout_mae
from .registry import MANIFEST_SCHEMA, ModelRegistry, RegistryError
from .router import (
    FleetConfig,
    FleetResult,
    FleetRouter,
    UnknownModelError,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "ModelRegistry",
    "RegistryError",
    "DriftDetector",
    "DriftPolicy",
    "FleetConfig",
    "FleetResult",
    "FleetRouter",
    "UnknownModelError",
    "FleetManager",
    "RetrainPolicy",
    "holdout_mae",
]
