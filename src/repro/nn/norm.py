"""Normalization layers."""

from __future__ import annotations

from ..autodiff import Tensor, mean, sqrt, variance
from . import init
from .module import Module, Parameter


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, normalized_size: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((normalized_size,)))
        self.beta = Parameter(init.zeros((normalized_size,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = mean(x, axis=-1, keepdims=True)
        var = variance(x, axis=-1, keepdims=True)
        normalized = (x - mu) / sqrt(var + self.eps)
        return normalized * self.gamma + self.beta


class ChannelNorm2d(Module):
    """Normalize the channel axis of a (B, C, N, T) tensor.

    This plays the role of Graph WaveNet's BatchNorm2d between ST-block
    layers: it stabilizes the scale of latent representations while staying
    batch-size independent (important for the tiny batches used on CPU).
    """

    def __init__(self, channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((channels,)))
        self.beta = Parameter(init.zeros((channels,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = mean(x, axis=1, keepdims=True)
        var = variance(x, axis=1, keepdims=True)
        normalized = (x - mu) / sqrt(var + self.eps)
        shape = (1, -1, 1, 1)
        return normalized * self.gamma.reshape(shape) + self.beta.reshape(shape)
