"""The pre-optimization kernels: test oracles and the benchmarks' "before".

The program runs one kernel set: im2col convolutions (``repro.nn.conv``),
the direct ``(N, N) @ (B, H, N, T)`` graph propagation
(``repro.operators.dgcn``) and the fused elementwise chains
(``repro.autodiff.fused``).  The kernels here are the originals they
replaced, composed from autodiff primitives:

* :func:`conv2d_1xk` and :func:`conv1d` — a Python loop of one channel-mix
  matmul per dilated tap,
* :func:`mix_channels` — the 1x1 conv as transpose → matmul → transpose,
* :func:`graph_propagate` — the node axis rotated last, multiplied by the
  transposed support, rotated back.

The equivalence tests in ``tests/test_perf_kernels.py`` call them directly.
:func:`reference_kernels` rebinds the program's names to them for a block,
together with the unfused ``tanh``/``sigmoid``/``mul`` gate and the
``sub``/``absolute``/``mean`` loss chain, so that
``benchmarks/bench_train_step.py`` times the same model on both kernel sets.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.nn.conv
import repro.nn.loss
import repro.operators.dgcn
import repro.operators.gdcc
from repro.autodiff import Tensor, matmul, pad


def mix_channels(x: Tensor, weight: Tensor) -> Tensor:
    """Apply a (C_out, C_in) channel mix to ``x`` of shape (B, C_in, N, T)."""
    moved = x.transpose(0, 2, 3, 1)  # (B, N, T, C_in)
    mixed = matmul(moved, weight.transpose())  # (B, N, T, C_out)
    return mixed.transpose(0, 3, 1, 2)


def conv2d_1xk(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    causal: bool = True,
) -> Tensor:
    """Per-tap loop form of :func:`repro.nn.conv.conv2d_1xk`."""
    kernel = weight.shape[-1]
    receptive = (kernel - 1) * dilation
    if causal:
        x = pad(x, ((0, 0), (0, 0), (0, 0), (receptive, 0)))
    time = x.shape[-1] - receptive
    out = None
    for k in range(kernel):
        start = k * dilation
        window = x[:, :, :, start : start + time]
        term = mix_channels(window, weight[:, :, k])
        out = term if out is None else out + term
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    padding: str = "same",
) -> Tensor:
    """Per-tap loop form of :func:`repro.nn.conv.conv1d`."""
    kernel = weight.shape[-1]
    receptive = (kernel - 1) * dilation
    left = receptive if padding == "causal" else receptive // 2
    x = pad(x, ((0, 0), (0, 0), (left, receptive - left)))
    time = x.shape[-1] - receptive
    out = None
    for k in range(kernel):
        start = k * dilation
        window = x[:, :, start : start + time]  # (B, C_in, T)
        moved = window.transpose(0, 2, 1)  # (B, T, C_in)
        term = matmul(moved, weight[:, :, k].transpose()).transpose(0, 2, 1)
        out = term if out is None else out + term
    if bias is not None:
        out = out + bias.reshape(1, -1, 1)
    return out


def graph_propagate(x: Tensor, support: Tensor) -> Tensor:
    """Transpose-based form of :func:`repro.operators.dgcn.graph_propagate`."""
    moved = x.transpose(0, 1, 3, 2)  # (B, H, T, N)
    propagated = matmul(moved, support.transpose())
    return propagated.transpose(0, 1, 3, 2)


def _unfused() -> bool:
    return False


# (module, name, oracle): the program names :func:`reference_kernels` rebinds.
# ``fused_kernels_enabled`` is rebound where it is imported, so the GDCC gate
# and the MAE loss take their unfused chains.
SWAPS = (
    (repro.nn.conv, "conv2d_1xk", conv2d_1xk),
    (repro.nn.conv, "channel_mix", mix_channels),
    (repro.operators.dgcn, "graph_propagate", graph_propagate),
    (repro.operators.gdcc, "fused_kernels_enabled", _unfused),
    (repro.nn.loss, "fused_kernels_enabled", _unfused),
)


@contextmanager
def reference_kernels():
    """Run the block on the reference kernels; the program's own names are
    restored on exit, also when the block raises."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in SWAPS]
    try:
        for module, name, oracle in SWAPS:
            setattr(module, name, oracle)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
