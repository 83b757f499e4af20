"""Gated Dilated Causal Convolution (GDCC), the short-term T-operator.

The gating mechanism of WaveNet / Graph WaveNet:
``out = tanh(conv_f(x)) ⊙ sigmoid(conv_g(x))``
with dilated causal convolutions along the time axis, so the operator
captures short-term temporal dependencies without leaking the future.
"""

from __future__ import annotations

from ..autodiff import Tensor
from ..autodiff.fused import fused_kernels_enabled, gated_tanh_sigmoid
from ..nn.conv import CausalConv2d
from ..nn.dropout import Dropout
from .base import OperatorContext, STOperator


class GDCC(STOperator):
    """Gated dilated causal convolution over (B, H, N, T) latents."""

    name = "gdcc"

    def __init__(
        self, context: OperatorContext, kernel_size: int = 2, dilation: int = 1
    ) -> None:
        super().__init__(context)
        h = context.hidden_dim
        self.filter_conv = CausalConv2d(
            h, h, kernel_size=kernel_size, dilation=dilation, rng=context.rng
        )
        self.gate_conv = CausalConv2d(
            h, h, kernel_size=kernel_size, dilation=dilation, rng=context.rng
        )
        self.dropout = Dropout(
            context.dropout_rate, seed=int(context.rng.integers(2**31))
        )

    def forward(self, x: Tensor) -> Tensor:
        if fused_kernels_enabled():
            gated = gated_tanh_sigmoid(self.filter_conv(x), self.gate_conv(x))
            return self.dropout(gated)
        # Unfused chain: bitwise-identical; kept for anomaly-mode per-op
        # provenance, and the "before" of the train-step benchmark
        # (docs/performance.md).
        filtered = self.filter_conv(x).tanh()
        gate = self.gate_conv(x).sigmoid()
        return self.dropout(filtered * gate)
