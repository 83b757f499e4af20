"""Optimizers and training utilities."""

from .optimizer import Adam, Optimizer, clip_grad_norm, grad_norm

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "grad_norm",
]
