"""Deterministic RNG stream splitting for multi-process training.

Data-parallel workers (:mod:`repro.parallel`) each hold a private copy of
the model, and every stochastic module (dropout masks, latent sampling)
holds its own :class:`numpy.random.Generator`.  If the worker copies kept
the parent's generators they would all draw *identical* noise — worker 0's
dropout mask would equal worker 1's — which silently correlates the shards.

This module derives statistically independent, reproducible streams with
:class:`numpy.random.SeedSequence`:

* :func:`spawn_streams` — ``n`` child generators from one base seed.  The
  same ``(seed, n)`` always yields the same streams, and child ``i`` is the
  same generator regardless of how many siblings were spawned *after* it.
* :func:`worker_seed_sequence` / :func:`reseed_module_generators` — re-seed
  every generator a model copy holds from a key derived from the base seed,
  the worker id and the *qualified attribute name* of the generator.  Two
  workers never share a stream; the same worker id always reproduces the
  same stream, whatever the total worker count.

Determinism contract (documented in DESIGN.md "Parallel training"): for
models that draw no randomness in their training forward pass the parallel
loss trajectory is independent of worker count and matches serial training
to float64 reduction accuracy.  For stochastic models a run is reproducible
for a fixed ``(seed, n_workers)``; changing the worker count changes which
stream draws each shard's noise, exactly like changing the batch order.
"""

from __future__ import annotations

from typing import Dict, List
from zlib import crc32

import numpy as np

__all__ = [
    "module_generators",
    "spawn_streams",
    "worker_seed_sequence",
    "reseed_module_generators",
]


def spawn_streams(seed: int, n: int) -> List[np.random.Generator]:
    """``n`` independent, reproducible generators derived from ``seed``.

    Uses ``SeedSequence(seed).spawn(n)``: streams are statistically
    independent of each other *and* of ``default_rng(seed)`` itself, and
    stream ``i`` does not depend on ``n``.
    """
    if n < 1:
        raise ValueError(f"need at least one stream, got n={n}")
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


def worker_seed_sequence(seed: int, worker_id: int, key: str = "") -> np.random.SeedSequence:
    """The seed sequence owning stream ``key`` of worker ``worker_id``.

    ``key`` is hashed (crc32 — stable across processes and Python runs,
    unlike :func:`hash`) into the spawn key so distinct module attributes
    get distinct streams without coordinating a global counter.
    """
    if worker_id < 0:
        raise ValueError(f"worker_id must be non-negative, got {worker_id}")
    entropy = [int(seed) & 0xFFFFFFFF, worker_id]
    if key:
        entropy.append(crc32(key.encode("utf-8")))
    return np.random.SeedSequence(entropy)


def module_generators(model) -> Dict[str, np.random.Generator]:
    """Every :class:`numpy.random.Generator` attribute ``model``'s modules
    hold, keyed by qualified name (``"encoder.rng"``; a root attribute is
    its bare name), in ``named_modules()`` order."""
    found: Dict[str, np.random.Generator] = {}
    for name, module in model.named_modules():
        for attr, value in vars(module).items():
            if isinstance(value, np.random.Generator):
                found[f"{name}.{attr}" if name else attr] = value
    return found


def reseed_module_generators(model, seed: int, worker_id: int) -> Dict[str, np.random.Generator]:
    """Replace every generator attribute of ``model`` with a worker stream.

    Swaps each generator :func:`module_generators` finds (the Trainer's
    checkpoint RNG discovery) for a fresh stream keyed on
    ``(seed, worker_id, qualified name)``.  Returns the new generators by
    qualified name.
    """
    modules = dict(model.named_modules())
    replaced: Dict[str, np.random.Generator] = {}
    for qualified in module_generators(model):
        name, _, attr = qualified.rpartition(".")
        stream = np.random.default_rng(worker_seed_sequence(seed, worker_id, qualified))
        setattr(modules[name], attr, stream)
        replaced[qualified] = stream
    return replaced
