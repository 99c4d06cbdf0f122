"""Discovery of the random generators a model's modules hold.

Stochastic modules (dropout masks, latent sampling) each hold their own
:class:`numpy.random.Generator`.  :func:`module_generators` finds them by
qualified attribute name: the Trainer checkpoints and restores their
states through it, and :class:`repro.exec.ShardedExecutor` refuses a model
that holds any (its caller's shard would draw from the caller's own
streams).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["module_generators"]


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
