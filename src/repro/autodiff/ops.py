"""Differentiable operations on :class:`~repro.autodiff.tensor.Tensor`.

Every function takes tensors (or array-likes) and returns a new tensor whose
backward closure propagates gradients to its inputs.  Importing this module
also attaches the Python arithmetic operators to ``Tensor`` so expressions
read naturally (``a @ b + c``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, _needs_grad, as_tensor, make_op, unbroadcast

# ---------------------------------------------------------------------------
# Elementwise arithmetic
#
# Binary ops coerce their operands with ``_operands``, so a Python scalar
# takes the other operand's dtype (see ``as_tensor``).  Backward closures
# skip the gradient of an operand that needs none (a constant: a scalar, a
# mask, a diffusion support), returning ``None`` for it instead of paying a
# full-size product and reduction that the graph walk would discard.
# ---------------------------------------------------------------------------


def _operands(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        return a, as_tensor(b, like=a)
    b = as_tensor(b)
    return as_tensor(a, like=b), b


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data + b.data

    def backward(grad):
        return (
            unbroadcast(grad, a.shape) if _needs_grad(a) else None,
            unbroadcast(grad, b.shape) if _needs_grad(b) else None,
        )

    return make_op(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data - b.data

    def backward(grad):
        return (
            unbroadcast(grad, a.shape) if _needs_grad(a) else None,
            unbroadcast(-grad, b.shape) if _needs_grad(b) else None,
        )

    return make_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data * b.data

    def backward(grad):
        ga = gb = None
        if _needs_grad(a):
            ga = unbroadcast(grad * b.data, a.shape)
        if _needs_grad(b):
            gb = unbroadcast(grad * a.data, b.shape)
        return ga, gb

    return make_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data / b.data

    def backward(grad):
        ga = gb = None
        if _needs_grad(a):
            ga = unbroadcast(grad / b.data, a.shape)
        if _needs_grad(b):
            gb = unbroadcast((-grad * a.data) / (b.data * b.data), b.shape)
        return ga, gb

    return make_op(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return make_op(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a Python-scalar exponent."""
    a = as_tensor(a)
    out = a.data**exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return make_op(out, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / np.maximum(out, 1e-12),)

    return make_op(out, (a,), backward)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return make_op(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(grad):
        return (grad * out,)

    return make_op(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return make_op(out, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out * out),)

    return make_op(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Stable formulation: exp of a non-positive argument on both branches.
    # Selecting the numerator before the (single) divide is bitwise-equal to
    # the textbook where(pos, 1/(1+e), e/(1+e)) but runs one full-size
    # divide instead of two.
    positive = a.data >= 0
    e = np.exp(np.where(positive, -a.data, a.data))
    numerator = np.where(positive, 1.0, e)
    np.add(e, 1.0, out=e)  # the shared denominator, reusing e's buffer
    out = numerator / e

    def backward(grad):
        return (grad * out * (1.0 - out),)

    return make_op(out, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = np.where(mask, a.data, 0.0)

    def backward(grad):
        return (grad * mask,)

    return make_op(out, (a,), backward)


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    a = as_tensor(a)
    c = np.sqrt(2.0 / np.pi).astype(a.dtype)
    inner = c * (a.data + 0.044715 * a.data**3)
    t = np.tanh(inner)
    out = 0.5 * a.data * (1.0 + t)

    def backward(grad):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * a.data**2)
        return (grad * (0.5 * (1.0 + t) + 0.5 * a.data * dt),)

    return make_op(out, (a,), backward)


def clip(a, low: float, high: float) -> Tensor:
    a = as_tensor(a)
    out = np.clip(a.data, low, high)
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad):
        return (grad * mask,)

    return make_op(out, (a,), backward)


def maximum(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def backward(grad):
        return (
            unbroadcast(grad * mask, a.shape),
            unbroadcast(grad * ~mask, b.shape),
        )

    return make_op(out, (a, b), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select from ``a`` where ``condition`` (a plain boolean array) else ``b``."""
    a, b = _operands(a, b)
    cond = np.asarray(condition, dtype=bool)
    out = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * cond, a.shape),
            unbroadcast(grad * ~cond, b.shape),
        )

    return make_op(out, (a, b), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    axes = _normalize_axis(axis, a.ndim)

    def backward(grad):
        g = grad
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(g, a.shape).copy(),)

    return make_op(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    axes = _normalize_axis(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1

    def backward(grad):
        g = grad / count
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(g, a.shape).copy(),)

    return make_op(out, (a,), backward)


def amax(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max reduction along a single axis; gradient flows to first argmax."""
    a = as_tensor(a)
    out = a.data.max(axis=axis, keepdims=keepdims)
    out_kd = a.data.max(axis=axis, keepdims=True)
    mask = a.data == out_kd
    # Split gradient equally among ties to stay a valid subgradient.
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(grad):
        g = grad if keepdims else np.expand_dims(grad, axis)
        return (g * mask / counts,)

    return make_op(out, (a,), backward)


def variance(a, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance built from differentiable primitives."""
    m = mean(a, axis=axis, keepdims=True)
    centered = sub(a, m)
    return mean(mul(centered, centered), axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# Linear algebra and shape manipulation
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix multiplication with numpy broadcasting rules."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.matmul(a.data, b.data)

    def backward(grad):
        if a.ndim == 1 and b.ndim == 1:
            return grad * b.data, grad * a.data
        a_data = a.data if a.ndim > 1 else a.data[None, :]
        b_data = b.data if b.ndim > 1 else b.data[:, None]
        g = grad
        if a.ndim == 1:
            g = np.expand_dims(g, -2)
        if b.ndim == 1:
            g = np.expand_dims(g, -1)
        ga = gb = None
        if _needs_grad(a):
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            if a.ndim == 1:
                ga = np.squeeze(ga, -2)
            ga = unbroadcast(ga, a.shape)
        if _needs_grad(b):
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            if b.ndim == 1:
                gb = np.squeeze(gb, -1)
            gb = unbroadcast(gb, b.shape)
        return ga, gb

    return make_op(out, (a, b), backward)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return make_op(out, (a,), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    out = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad):
        return (grad.transpose(inverse),)

    return make_op(out, (a,), backward)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, axis1, axis2)

    def backward(grad):
        return (np.swapaxes(grad, axis1, axis2),)

    return make_op(out, (a,), backward)


def expand_dims(a, axis: int) -> Tensor:
    a = as_tensor(a)
    out = np.expand_dims(a.data, axis)

    def backward(grad):
        return (np.squeeze(grad, axis=axis),)

    return make_op(out, (a,), backward)


def squeeze(a, axis: int) -> Tensor:
    a = as_tensor(a)
    out = np.squeeze(a.data, axis=axis)

    def backward(grad):
        return (np.expand_dims(grad, axis),)

    return make_op(out, (a,), backward)


def getitem(a, index) -> Tensor:
    """Differentiable indexing/slicing (basic and integer-array indexing)."""
    a = as_tensor(a)
    out = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return make_op(out, (a,), backward)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    """Broadcast ``a`` to ``shape`` following numpy rules — lazily.

    The O(1) replacement for ``concat([row] * batch, axis=0)`` style row
    duplication: the output wraps a read-only strided *view*, so the
    expanded array is never materialized (consumers — ufuncs, matmul,
    concatenate — read through the strides; the MyGrad broadcasting idiom).
    Forward values are bitwise-identical to the materialized formulation,
    and the gradient is the sum over the broadcast axes.  Ops never write
    into their inputs, so the read-only view is safe; callers that need a
    writable array should ``.copy()`` the data explicitly.
    """
    a = as_tensor(a)
    out = np.broadcast_to(a.data, tuple(shape))

    def backward(grad):
        return (unbroadcast(grad, a.shape),)

    return make_op(out, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        grads = []
        for i in range(len(tensors)):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(sl)])
        return grads

    return make_op(out, tuple(tensors), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return list(np.moveaxis(grad, axis, 0))

    return make_op(out, tuple(tensors), backward)


def pad(a, pad_width, value: float = 0.0) -> Tensor:
    """Constant-pad ``a``; ``pad_width`` follows ``np.pad`` conventions."""
    a = as_tensor(a)
    out = np.pad(a.data, pad_width, mode="constant", constant_values=value)
    norm = np.broadcast_to(np.asarray(pad_width, dtype=int), (a.ndim, 2))

    def backward(grad):
        sl = tuple(
            slice(before, grad.shape[i] - after)
            for i, (before, after) in enumerate(norm)
        )
        return (grad[sl],)

    return make_op(out, (a,), backward)


def embedding(weight, indices) -> Tensor:
    """Look up rows of ``weight`` (V, D) by an integer array ``indices``."""
    weight = as_tensor(weight)
    idx = np.asarray(indices, dtype=np.int64)
    out = weight.data[idx]

    def backward(grad):
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, grad)
        return (full,)

    return make_op(out, (weight,), backward)


# ---------------------------------------------------------------------------
# Composite neural-network functions
# ---------------------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax with a guarded denominator.

    After subtracting the row max, the exponentials include ``exp(0) = 1``,
    so the denominator is >= 1 for any finite input and the ``maximum``
    guard is a bitwise no-op there; it only engages for pathological rows
    (for example all ``-inf`` under masking), turning a 0/0 NaN into zeros.
    """
    a = as_tensor(a)
    # errstate: at float32 extremes the shift itself can overflow to -inf,
    # which exp() maps to the intended 0 — a well-defined path, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        denom = np.maximum(e.sum(axis=axis, keepdims=True), np.finfo(e.dtype).tiny)
        out = e / denom

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return make_op(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Log-softmax via the shifted log-sum-exp, with a guarded log argument.

    As in :func:`softmax`, the post-shift sum is >= 1 for finite inputs, so
    the guard changes nothing there and only prevents ``log(0)`` on fully
    degenerate rows.
    """
    a = as_tensor(a)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        sumexp = np.maximum(
            np.exp(shifted).sum(axis=axis, keepdims=True), np.finfo(shifted.dtype).tiny
        )
        logsumexp = np.log(sumexp)
        out = shifted - logsumexp
        soft = np.exp(out)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return make_op(out, (a,), backward)


def dropout_mask(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Apply inverted dropout using ``rng``; caller decides train/eval."""
    a = as_tensor(a)
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep).astype(a.dtype) / keep

    def backward(grad):
        return (grad * mask,)

    return make_op(a.data * mask, (a,), backward)


# ---------------------------------------------------------------------------
# Operator attachment
# ---------------------------------------------------------------------------


def _attach_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: power(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and not isinstance(shape[0], int) else shape
    )
    Tensor.transpose = lambda self, *axes: transpose(self, axes if axes else None)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.tanh = lambda self: tanh(self)
    Tensor.sigmoid = lambda self: sigmoid(self)
    Tensor.relu = lambda self: relu(self)
    Tensor.sqrt = lambda self: sqrt(self)
    Tensor.abs = lambda self: absolute(self)


_attach_operators()
