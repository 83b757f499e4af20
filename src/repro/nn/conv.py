"""Convolution layers.

CTS forecasting models in this library follow the Graph WaveNet tensor layout
``(batch, channels, num_nodes, time)``.  Temporal convolutions therefore use
kernels of shape ``(1, K)`` with dilation along the time axis and *causal*
left-padding so that position ``t`` never sees the future.

Two kernel implementations coexist (see ``docs/performance.md``):

* the **im2col path** (default): :func:`im2col_conv` gathers the dilated
  taps with ``np.lib.stride_tricks.sliding_window_view`` into one
  ``(B, C·K, S)`` matrix and runs a *single* gemm per conv — with a col2im
  scatter for the input gradient — instead of a Python loop of ``K``
  per-tap matmuls; :func:`channel_mix` is the 1x1 special case (no gather
  at all, just a reshaped gemm),
* the **reference path**: the original per-tap loop composed from autodiff
  primitives, selected by ``$REPRO_REFERENCE_KERNELS``.  It is the oracle
  the equivalence tests compare against and the honest "before" measured by
  ``benchmarks/bench_train_step.py``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..autodiff import Tensor, matmul, pad
from ..autodiff.fused import reference_kernels
from ..autodiff.tensor import _needs_grad, as_tensor, make_op
from . import init
from .module import Module, Parameter


# ---------------------------------------------------------------------------
# im2col primitives (single-gemm forward, col2im-scatter backward)
# ---------------------------------------------------------------------------


def im2col_conv(
    x, weight, dilation: int = 1, left: int = 0, right: int = 0
) -> Tensor:
    """Convolve ``x (B, C_in, *spatial, T)`` with ``weight (C_out, C_in, K)``
    along the trailing time axis, zero-padding ``left``/``right`` steps.

    Forward: dilated taps are gathered through a zero-copy
    ``sliding_window_view`` into an im2col matrix ``(B, C_in·K, S·T_out)``
    (one vectorized copy) and contracted with the ``(C_out, C_in·K)``
    reshaped weight in a single gemm.  Backward: the weight gradient is one
    ``tensordot`` against the retained im2col matrix; the input gradient is
    one gemm followed by a col2im scatter-add over the ``K`` taps.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    kernel = wd.shape[-1]
    receptive = (kernel - 1) * dilation
    if left or right:
        padded = xd.shape[:-1] + (xd.shape[-1] + left + right,)
        xp = np.empty(padded, xd.dtype)
        if left:
            xp[..., :left] = 0
        if right:
            xp[..., padded[-1] - right :] = 0
        xp[..., left : padded[-1] - right] = xd
    else:
        xp = xd
    batch, cin = xp.shape[0], xp.shape[1]
    spatial = xp.shape[2:-1]  # () for 1-D convs, (N,) for the CTS layout
    tpad = xp.shape[-1]
    tout = tpad - receptive
    cout = wd.shape[0]
    dtype = np.result_type(xd, wd)
    flat = int(np.prod(spatial, dtype=np.int64)) * tout

    # (B, C, *spatial, T_out, K) strided view of the dilated taps — no copy.
    taps = sliding_window_view(xp, receptive + 1, axis=-1)[..., ::dilation]
    cols = np.empty((batch, cin * kernel, flat), dtype)
    np.copyto(
        cols.reshape((batch, cin, kernel) + spatial + (tout,)),
        np.moveaxis(taps, -1, 2),
    )
    w2 = wd.reshape(cout, cin * kernel)
    out = np.matmul(w2, cols).reshape((batch, cout) + spatial + (tout,))

    def backward(grad):
        g3 = grad.reshape(batch, cout, flat)
        gx = gw = None
        if _needs_grad(weight):
            # Batched gemm + reduce beats tensordot here: tensordot must
            # materialize transposed copies of both operands before its
            # single gemm, and the im2col matrix is the largest array in
            # the layer.
            gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
            gw = gw.reshape(wd.shape)
        if _needs_grad(x):
            gcols = np.matmul(w2.transpose(), g3)
            g5 = gcols.reshape((batch, cin, kernel) + spatial + (tout,))
            gxp = np.zeros((batch, cin) + spatial + (tpad,), gcols.dtype)
            for k in range(kernel):
                start = k * dilation
                gxp[..., start : start + tout] += g5[:, :, k]
            gx = gxp[..., left : tpad - right] if (left or right) else gxp
        return gx, gw

    return make_op(out, (x, weight), backward)


def channel_mix(x, weight) -> Tensor:
    """1x1 convolution ``(C_out, C_in)`` over ``x (B, C_in, *spatial)``.

    The im2col degenerate case: no tap gather, just one gemm against the
    channel axis through a free reshape — replacing the reference path's
    transpose → matmul → transpose round trip.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    batch, cin = xd.shape[0], xd.shape[1]
    spatial = xd.shape[2:]
    flat = int(np.prod(spatial, dtype=np.int64))
    cout = wd.shape[0]
    x3 = xd.reshape(batch, cin, flat)
    out = np.matmul(wd, x3).reshape((batch, cout) + spatial)

    def backward(grad):
        g3 = grad.reshape(batch, cout, flat)
        gx = gw = None
        if _needs_grad(weight):
            gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)
        if _needs_grad(x):
            gx = np.matmul(wd.transpose(), g3).reshape(xd.shape)
        return gx, gw

    return make_op(out, (x, weight), backward)


# ---------------------------------------------------------------------------
# Reference kernels: the original per-tap autodiff-primitive composition
# ---------------------------------------------------------------------------


def _mix_channels(x: Tensor, weight: Tensor) -> Tensor:
    """Apply a (C_out, C_in) channel mix to ``x`` of shape (B, C_in, N, T)."""
    moved = x.transpose(0, 2, 3, 1)  # (B, N, T, C_in)
    mixed = matmul(moved, weight.transpose())  # (B, N, T, C_out)
    return mixed.transpose(0, 3, 1, 2)


def _conv2d_1xk_reference(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    causal: bool,
) -> Tensor:
    kernel = weight.shape[-1]
    receptive = (kernel - 1) * dilation
    if causal:
        x = pad(x, ((0, 0), (0, 0), (0, 0), (receptive, 0)))
    time = x.shape[-1] - receptive
    out = None
    for k in range(kernel):
        start = k * dilation
        window = x[:, :, :, start : start + time]
        term = _mix_channels(window, weight[:, :, k])
        out = term if out is None else out + term
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _conv1d_reference(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    left: int,
    right: int,
) -> Tensor:
    kernel = weight.shape[-1]
    receptive = (kernel - 1) * dilation
    x = pad(x, ((0, 0), (0, 0), (left, right)))
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


# ---------------------------------------------------------------------------
# Public functional convolutions
# ---------------------------------------------------------------------------


def conv2d_1xk(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    causal: bool = True,
) -> Tensor:
    """Convolve ``x`` (B, C_in, N, T) with ``weight`` (C_out, C_in, K) along T.

    With ``causal=True`` the output at time ``t`` depends only on inputs at
    times ``<= t`` and the output length equals the input length.
    """
    if reference_kernels():
        return _conv2d_1xk_reference(x, weight, bias, dilation, causal)
    weight = as_tensor(weight)
    receptive = (weight.shape[-1] - 1) * dilation
    out = im2col_conv(x, weight, dilation, left=receptive if causal else 0)
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
    """Convolve ``x`` (B, C_in, T) with ``weight`` (C_out, C_in, K) along T.

    ``padding`` is ``"same"`` (centered zero padding) or ``"causal"``.
    """
    weight = as_tensor(weight)
    kernel = weight.shape[-1]
    receptive = (kernel - 1) * dilation
    if padding == "causal":
        left, right = receptive, 0
    elif padding == "same":
        left = receptive // 2
        right = receptive - left
    else:
        raise ValueError(f"unknown padding mode: {padding!r}")
    if reference_kernels():
        return _conv1d_reference(x, weight, bias, dilation, left, right)
    out = im2col_conv(x, weight, dilation, left=left, right=right)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1)
    return out


# ---------------------------------------------------------------------------
# Layer modules
# ---------------------------------------------------------------------------


class CausalConv2d(Module):
    """Dilated causal temporal convolution over (B, C, N, T) tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 2,
        dilation: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = init.resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.weight = Parameter(
            init.xavier_uniform(rng, (out_channels, in_channels, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d_1xk(x, self.weight, self.bias, dilation=self.dilation)


class PointwiseConv2d(Module):
    """1x1 convolution: a per-position channel mix over (B, C, N, T)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = init.resolve_rng(rng)
        self.weight = Parameter(init.xavier_uniform(rng, (out_channels, in_channels)))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if reference_kernels():
            out = _mix_channels(x, self.weight)
        else:
            out = channel_mix(x, self.weight)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out


class Conv1d(Module):
    """Dilated 1-D convolution over (B, C, T) tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        dilation: int = 1,
        padding: str = "same",
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = init.resolve_rng(rng)
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(
            init.xavier_uniform(rng, (out_channels, in_channels, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, self.dilation, self.padding)
