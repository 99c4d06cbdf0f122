"""From-scratch reverse-mode autodiff substrate (PyTorch substitute).

Public surface:

* :class:`Tensor`, :func:`as_tensor`, :func:`zeros`, :func:`ones`,
  :class:`no_grad` — core array-with-gradient type.
* :mod:`repro.tensor.ops` — differentiable primitives, one rule record
  each, behind one dispatch point.
* :class:`Hooks`, :func:`hooks`, :func:`set_hooks` — the one interceptor
  state (op trace, anomaly screen, compile capture, grad allocations).
* :mod:`repro.tensor.functional` — losses (Huber, Eq. 21), Gaussian KL,
  reparameterization, attention helpers.
* :mod:`repro.tensor.gradcheck` — finite-difference validation used by the
  test suite.
"""

from . import functional, gradcheck, ops, rng
from .anomaly import (
    AnomalyDetector,
    NumericalAnomalyError,
    detect_anomaly,
    is_anomaly_detection_enabled,
)
from .functional import (
    gaussian_kl,
    huber_loss,
    mae_loss,
    masked_huber_loss,
    mse_loss,
    reparameterize,
    scaled_dot_product_attention,
)
from .tensor import (
    Hooks,
    Tensor,
    as_tensor,
    hooks,
    inference_mode,
    is_grad_enabled,
    is_inference_mode_enabled,
    no_grad,
    ones,
    set_hooks,
    unbroadcast,
    zeros,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "zeros",
    "ones",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode_enabled",
    "unbroadcast",
    "Hooks",
    "hooks",
    "set_hooks",
    "ops",
    "functional",
    "gradcheck",
    "rng",
    "huber_loss",
    "masked_huber_loss",
    "mse_loss",
    "mae_loss",
    "detect_anomaly",
    "AnomalyDetector",
    "NumericalAnomalyError",
    "is_anomaly_detection_enabled",
    "gaussian_kl",
    "reparameterize",
    "scaled_dot_product_attention",
]
