"""Loss functions.

The CTS forecasting models train with MAE (the paper's training objective);
the comparators train with binary cross-entropy on pairwise labels.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, absolute, as_tensor, mean
from ..autodiff.fused import fused_kernels_enabled, mean_absolute_error
from ..autodiff.tensor import make_op


def mae_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error, the paper's forecasting training objective."""
    target = as_tensor(target)
    if fused_kernels_enabled():
        return mean_absolute_error(prediction, target)
    # Unfused chain: bitwise-identical; kept for anomaly-mode provenance and
    # the $REPRO_REFERENCE_KERNELS benchmark baseline.
    return mean(absolute(prediction - target))


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error."""
    target = as_tensor(target)
    diff = prediction - target
    return mean(diff * diff)


def masked_mae_loss(prediction: Tensor, target, mask: np.ndarray) -> Tensor:
    """MAE over *observed* target positions only.

    ``mask`` is a boolean observation array broadcastable to the target
    (``True`` = score this position).  An all-masked target yields a zero
    loss (the denominator clamps at 1).
    """
    target_data = np.asarray(as_tensor(target).data)
    mask = np.broadcast_to(np.asarray(mask), target_data.shape)
    weights = mask.astype(np.float32)
    denom = max(float(weights.sum()), 1.0)
    weighted = absolute(prediction - target) * Tensor(weights)
    return weighted.sum() / denom


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Binary cross-entropy on raw logits, in the log-sigmoid formulation.

    Computes ``mean(max(x, 0) - x*y + log1p(exp(-|x|)))``, which is exact
    and finite for every finite logit: ``exp(-|x|)`` never overflows and
    ``log1p`` never sees zero, unlike the clipped ``log(sigmoid(x))`` form
    this replaces (which saturated — zero gradient — beyond the clip range
    and biased the loss near it).  The gradient is the textbook
    ``sigmoid(x) - y``.
    """
    logits = as_tensor(logits)
    labels = as_tensor(labels)
    x, y = logits.data, labels.data
    out = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def bce_backward(grad):
        positive = x >= 0
        e = np.exp(np.where(positive, -x, x))
        sig = np.where(positive, 1.0 / (1.0 + e), e / (1.0 + e))
        return grad * (sig - y), grad * (-x)

    return mean(make_op(out, (logits, labels), bce_backward))
