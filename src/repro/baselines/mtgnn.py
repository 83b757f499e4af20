"""MTGNN (Wu et al., KDD 2020), compact reproduction.

Signature mechanisms kept: a *self-adaptive* graph learned from node
embeddings, **mix-hop graph propagation** (information of several propagation
depths combined with a learned retention of the input), and **dilated
inception** temporal convolution (parallel causal convolutions with different
kernel sizes, concatenated).
"""

from __future__ import annotations

from ..autodiff import Tensor, concat
from ..nn import init
from ..nn.conv import CausalConv2d, PointwiseConv2d
from ..nn.module import Module, ModuleList, Parameter
from ..nn.norm import ChannelNorm2d
from ..operators.dgcn import graph_propagate
from ..utils.seeding import derive_rng
from .base import BaselineForecaster, adaptive_adjacency_from_embeddings, head_reshape


class MixHopPropagation(Module):
    """MTGNN's mix-hop layer: h_k = beta * x + (1 - beta) * A h_{k-1}."""

    def __init__(self, channels: int, depth: int, beta: float, rng) -> None:
        super().__init__()
        self.depth = depth
        self.beta = beta
        self.mix = PointwiseConv2d(channels * (depth + 1), channels, rng=rng)

    def forward(self, x: Tensor, adjacency: Tensor) -> Tensor:
        hops = [x]
        hidden = x
        for _ in range(self.depth):
            hidden = x * self.beta + graph_propagate(hidden, adjacency) * (1.0 - self.beta)
            hops.append(hidden)
        return self.mix(concat(hops, axis=1))


class DilatedInception(Module):
    """Parallel dilated causal convolutions with kernel sizes 2 and 3."""

    def __init__(self, channels: int, dilation: int, rng) -> None:
        super().__init__()
        half = channels // 2
        self.conv_k2 = CausalConv2d(channels, half, kernel_size=2, dilation=dilation, rng=rng)
        self.conv_k3 = CausalConv2d(channels, channels - half, kernel_size=3, dilation=dilation, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return concat([self.conv_k2(x), self.conv_k3(x)], axis=1)


class MTGNN(BaselineForecaster):
    """Compact MTGNN: [dilated inception -> gate -> mix-hop GCN] x L."""

    name = "MTGNN"

    def __init__(
        self,
        n_nodes: int,
        n_features: int,
        horizon: int,
        hidden_dim: int = 16,
        layers: int = 2,
        gcn_depth: int = 2,
        beta: float = 0.05,
        node_embed_dim: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(n_nodes, n_features, horizon)
        rng = derive_rng(seed, "mtgnn")
        self.input_proj = PointwiseConv2d(n_features, hidden_dim, rng=rng)
        self.e1 = Parameter(init.normal(rng, (n_nodes, node_embed_dim), std=0.5))
        self.e2 = Parameter(init.normal(rng, (node_embed_dim, n_nodes), std=0.5))
        self.temporal = ModuleList(
            DilatedInception(hidden_dim, dilation=2**i, rng=rng) for i in range(layers)
        )
        self.gates = ModuleList(
            DilatedInception(hidden_dim, dilation=2**i, rng=rng) for i in range(layers)
        )
        self.spatial = ModuleList(
            MixHopPropagation(hidden_dim, gcn_depth, beta, rng) for _ in range(layers)
        )
        self.norms = ModuleList(ChannelNorm2d(hidden_dim) for _ in range(layers))
        self.out_head = PointwiseConv2d(hidden_dim, horizon * n_features, rng=rng)

    def forward(self, x) -> Tensor:
        x = self._check_input(x)
        latent = self.input_proj(x.transpose(0, 3, 2, 1))  # (B, H, N, P)
        adjacency = adaptive_adjacency_from_embeddings(self.e1, self.e2)
        for temporal, gate, spatial, norm in zip(
            self.temporal, self.gates, self.spatial, self.norms
        ):
            filtered = temporal(latent).tanh() * gate(latent).sigmoid()
            latent = norm(latent + spatial(filtered, adjacency))
        summary = latent[:, :, :, -1:].relu()
        return head_reshape(self.out_head(summary), self.horizon, self.n_features)
