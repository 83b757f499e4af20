"""Autoformer (Wu et al., NeurIPS 2021), compact reproduction.

Signature mechanisms kept: **series decomposition** into trend and seasonal
parts via moving average, and **auto-correlation** replacing dot-product
attention — period-based dependencies are discovered by scoring time lags
with series autocorrelation and aggregating the top-k *rolled* series with
softmax weights.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad, softmax, stack
from ..nn.linear import Linear
from ..nn.module import Module, ModuleList
from ..nn.norm import LayerNorm
from ..utils.seeding import derive_rng
from .base import BaselineForecaster


def moving_average_trend(x: Tensor, kernel: int) -> Tensor:
    """Moving average along axis 1 of (B, T, D), edge-padded — the trend."""
    from ..autodiff import pad as pad_op

    if kernel <= 1:
        return x
    left = (kernel - 1) // 2
    right = kernel - 1 - left
    padded = pad_op(x, ((0, 0), (left, right), (0, 0)))
    terms = [padded[:, k : k + x.shape[1], :] for k in range(kernel)]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total / float(kernel)


def series_decomposition(x: Tensor, kernel: int = 5) -> tuple[Tensor, Tensor]:
    """Split into (seasonal, trend)."""
    trend = moving_average_trend(x, kernel)
    return x - trend, trend


class AutoCorrelationBlock(Module):
    """Aggregate top-k lag-rolled values weighted by autocorrelation scores."""

    def __init__(self, dim: int, top_k: int, rng) -> None:
        super().__init__()
        self.top_k = top_k
        self.value_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        batch, steps, dim = x.shape
        k = min(self.top_k, max(steps - 1, 1))
        # Score lags on detached data (lag selection is discrete anyway).
        with no_grad():
            data = x.numpy()
            centered = data - data.mean(axis=1, keepdims=True)
            scores = np.empty(steps - 1, dtype=np.float64)
            for lag in range(1, steps):
                rolled = np.roll(centered, lag, axis=1)
                scores[lag - 1] = float((centered * rolled).mean())
        top_lags = np.argsort(-scores)[:k] + 1
        weights = softmax(Tensor(scores[top_lags - 1].astype(np.float32)), axis=0)
        values = self.value_proj(x)
        rolled_values = []
        index = np.arange(steps)
        for lag in top_lags:
            rolled_values.append(values[:, (index - lag) % steps, :])
        stacked = stack(rolled_values, axis=0)  # (k, B, T, D)
        weighted = stacked * weights.reshape(-1, 1, 1, 1)
        return self.out_proj(weighted.sum(axis=0))


class DecompositionLayer(Module):
    """Autoformer encoder layer: auto-correlation + progressive decomposition."""

    def __init__(self, dim: int, top_k: int, kernel: int, rng) -> None:
        super().__init__()
        self.kernel = kernel
        self.correlation = AutoCorrelationBlock(dim, top_k, rng)
        self.norm = LayerNorm(dim)
        self.ff1 = Linear(dim, 2 * dim, rng=rng)
        self.ff2 = Linear(2 * dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        seasonal, _ = series_decomposition(x + self.correlation(x), self.kernel)
        ff = self.ff2(self.ff1(self.norm(seasonal)).relu())
        seasonal2, _ = series_decomposition(seasonal + ff, self.kernel)
        return seasonal2


class Autoformer(BaselineForecaster):
    """Compact Autoformer: decomposition + auto-correlation encoder."""

    name = "Autoformer"

    def __init__(
        self,
        n_nodes: int,
        n_features: int,
        horizon: int,
        hidden_dim: int = 16,
        layers: int = 2,
        top_k_lags: int = 3,
        decomposition_kernel: int = 5,
        seed: int = 0,
    ) -> None:
        super().__init__(n_nodes, n_features, horizon)
        rng = derive_rng(seed, "autoformer")
        self.kernel = decomposition_kernel
        self.input_proj = Linear(n_features, hidden_dim, rng=rng)
        self.layers = ModuleList(
            DecompositionLayer(hidden_dim, top_k_lags, decomposition_kernel, rng)
            for _ in range(layers)
        )
        self.seasonal_head = Linear(hidden_dim, horizon * n_features, rng=rng)
        self.trend_head = Linear(n_features, horizon * n_features, rng=rng)

    def forward(self, x) -> Tensor:
        x = self._check_input(x)
        batch, steps, n_nodes, features = x.shape
        # Treat each series independently: (B * N, P, F).
        series = x.transpose(0, 2, 1, 3).reshape(batch * n_nodes, steps, features)
        seasonal_init, trend_init = series_decomposition(series, self.kernel)
        latent = self.input_proj(seasonal_init)
        for layer in self.layers:
            latent = layer(latent)
        seasonal_out = self.seasonal_head(latent[:, -1, :])
        trend_out = self.trend_head(trend_init[:, -1, :])
        projected = seasonal_out + trend_out  # (B * N, horizon * F)
        return (
            projected.reshape(batch, n_nodes, self.horizon, self.n_features)
            .transpose(0, 2, 1, 3)
        )
