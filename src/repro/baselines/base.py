"""Shared interface for manually designed baseline forecasters.

Every baseline consumes history ``(B, P, N, F)`` and emits forecasts
``(B, horizon, N, F)`` — the same contract as
:class:`~repro.core.model.CTSForecaster` — so the experiment harness treats
searched and manual models identically.
"""

from __future__ import annotations

from ..autodiff import Tensor, as_tensor
from ..nn.module import Module


class BaselineForecaster(Module):
    """Base class fixing the I/O contract of all baselines."""

    name: str = "baseline"

    def __init__(self, n_nodes: int, n_features: int, horizon: int) -> None:
        super().__init__()
        self.n_nodes = n_nodes
        self.n_features = n_features
        self.horizon = horizon

    def _check_input(self, x) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 4 or x.shape[2] != self.n_nodes or x.shape[3] != self.n_features:
            raise ValueError(
                f"{self.name} expected (B, P, {self.n_nodes}, {self.n_features}), "
                f"got {x.shape}"
            )
        return x


def head_reshape(projected: Tensor, horizon: int, n_features: int) -> Tensor:
    """Reshape a (B, horizon * F, N, 1) head output to (B, horizon, N, F)."""
    batch, _, n_nodes, _ = projected.shape
    return (
        projected.reshape(batch, horizon, n_features, n_nodes)
        .transpose(0, 1, 3, 2)
    )


def adaptive_adjacency_from_embeddings(e1: Tensor, e2: Tensor) -> Tensor:
    """softmax(relu(E1 @ E2)) — the self-adaptive graph shared by baselines."""
    from ..autodiff import matmul, relu, softmax

    return softmax(relu(matmul(e1, e2)), axis=-1)
