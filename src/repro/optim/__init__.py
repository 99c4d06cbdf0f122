"""Optimizers, gradient clipping, all-reduce, LR schedules, early stopping."""

from .allreduce import all_reduce_gradients, tree_reduce
from .optimizers import SGD, Adam, Optimizer, clip_grad_norm, grad_segment
from .schedulers import ConstantLR, CosineAnnealingLR, EarlyStopping, LRScheduler, StepLR

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "grad_segment",
    "tree_reduce",
    "all_reduce_gradients",
    "LRScheduler",
    "ConstantLR",
    "StepLR",
    "CosineAnnealingLR",
    "EarlyStopping",
]
