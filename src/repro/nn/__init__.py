"""Neural-network layer library built on :mod:`repro.autodiff`."""

from .module import Module, ModuleList, Parameter
from .linear import Linear, MLP
from .conv import CausalConv2d, Conv1d, PointwiseConv2d, conv1d, conv2d_1xk
from .norm import ChannelNorm2d, LayerNorm
from .dropout import Dropout
from .attention import (
    MultiHeadAttention,
    ProbSparseAttention,
    scaled_dot_product_attention,
)
from .loss import (
    bce_with_logits,
    mae_loss,
    masked_mae_loss,
    mse_loss,
)
from . import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "MLP",
    "CausalConv2d",
    "Conv1d",
    "PointwiseConv2d",
    "conv1d",
    "conv2d_1xk",
    "ChannelNorm2d",
    "LayerNorm",
    "Dropout",
    "MultiHeadAttention",
    "ProbSparseAttention",
    "scaled_dot_product_attention",
    "bce_with_logits",
    "mae_loss",
    "masked_mae_loss",
    "mse_loss",
    "init",
]
