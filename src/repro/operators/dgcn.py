"""Diffusion Graph Convolution Network (DGCN), the static S-operator.

Follows DCRNN / Graph WaveNet: latent features diffuse ``K`` steps over the
predefined transition matrices plus a *self-adaptive* adjacency matrix
``softmax(relu(E1 E2^T))`` learned from node embeddings, and the concatenated
diffusion orders are mixed back to the hidden width by a 1x1 convolution.
"""

from __future__ import annotations

from ..autodiff import Tensor, concat, matmul, relu, softmax
from ..autodiff.fused import reference_kernels
from ..nn import init
from ..nn.conv import PointwiseConv2d
from ..nn.dropout import Dropout
from ..nn.module import Parameter
from .base import OperatorContext, STOperator


def graph_propagate(x: Tensor, support: Tensor) -> Tensor:
    """One diffusion step: ``out[:, :, n, :] = sum_m support[n, m] x[:, :, m, :]``."""
    if reference_kernels():
        # Pre-optimization formulation: rotate the node axis last, multiply
        # by the transposed support, rotate back.
        moved = x.transpose(0, 1, 3, 2)  # (B, H, T, N)
        propagated = matmul(moved, support.transpose())
        return propagated.transpose(0, 1, 3, 2)
    # (N, N) @ (B, H, N, T) broadcasts over the batch dims and contracts the
    # node axis in place — same contraction, no transpose round trip.
    return matmul(support, x)


class DGCN(STOperator):
    """Diffusion graph convolution with a self-adaptive adjacency matrix."""

    name = "dgcn"

    def __init__(
        self,
        context: OperatorContext,
        diffusion_steps: int = 2,
        embedding_dim: int = 8,
    ) -> None:
        super().__init__(context)
        self.diffusion_steps = diffusion_steps
        self.supports = [Tensor(s) for s in context.supports]
        rng = context.rng
        self.source_embedding = Parameter(
            init.normal(rng, (context.n_nodes, embedding_dim), std=0.5)
        )
        self.target_embedding = Parameter(
            init.normal(rng, (embedding_dim, context.n_nodes), std=0.5)
        )
        n_matrices = (len(self.supports) + 1) * diffusion_steps + 1
        self.mix = PointwiseConv2d(
            context.hidden_dim * n_matrices, context.hidden_dim, rng=rng
        )
        self.dropout = Dropout(context.dropout_rate, seed=int(rng.integers(2**31)))

    def adaptive_adjacency(self) -> Tensor:
        """The learned transition matrix ``softmax(relu(E1 E2^T))``."""
        return softmax(relu(matmul(self.source_embedding, self.target_embedding)), axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        outputs = [x]
        matrices = list(self.supports) + [self.adaptive_adjacency()]
        for support in matrices:
            hidden = x
            for _ in range(self.diffusion_steps):
                hidden = graph_propagate(hidden, support)
                outputs.append(hidden)
        stacked = concat(outputs, axis=1)  # channel axis
        return self.dropout(self.mix(stacked))
