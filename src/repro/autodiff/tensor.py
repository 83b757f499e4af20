"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, the single data structure the
whole neural substrate is built on.  A ``Tensor`` wraps a numpy array and
records, for every differentiable operation, a backward closure and the parent
tensors it was computed from.  Calling :meth:`Tensor.backward` on a scalar
result walks the recorded graph in reverse topological order and accumulates
gradients into every tensor created with ``requires_grad=True``.

The design mirrors PyTorch's eager autograd at a much smaller scale:

* broadcasting follows numpy semantics; gradients are "un-broadcast" by
  summing over broadcast axes (see :func:`unbroadcast`),
* gradients accumulate (``+=``) so a tensor used twice receives the sum of
  both contributions,
* ``no_grad`` provides a context manager that disables graph recording, used
  by evaluation loops and inference paths.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..obs.profile import profiling_enabled, record_op
from .anomaly import anomaly_enabled, op_name_of, raise_non_finite

DEFAULT_DTYPE = np.float32

# Exact Python scalar types (``type(v) in``, not ``isinstance``: np.float64
# subclasses float but is a strong numpy type that must keep its dtype).
_PYTHON_SCALARS = (int, float)

_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction."""
    previous = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    If an operation broadcast an operand of ``shape`` up to ``grad.shape``,
    the operand's gradient is the sum of ``grad`` over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if type(data) in _PYTHON_SCALARS:
            # np.asarray would make a Python scalar a float64 0-d array.
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        array = np.asarray(data)
        if array.dtype not in (np.float32, np.float64):
            array = array.astype(DEFAULT_DTYPE)
        self.data = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._op: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Autograd
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The walk consumes the graph: once a node has handed its gradient to
        its parents, its backward closure and parent links are dropped, so
        what the closure alone captured is freed during the walk, and the
        rest of the graph when the walk returns instead of when the caller
        drops the loss.  A second ``backward()`` through a consumed node
        raises :class:`RuntimeError`.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Gradients flowing to a tensor used several times accumulate with
        # ``+``.  The first contribution is stored by reference (the closure
        # may have handed us a view of another gradient, so it is not ours to
        # mutate); the second allocates the sum once and marks the entry
        # *owned*; contributions beyond that add in place into the owned
        # buffer — no further allocation for residual-style fan-out.
        owned: set[int] = set()
        profiled = profiling_enabled()
        check = anomaly_enabled()
        for node in order:
            backward = node._backward
            parents = node._parents
            if backward is not None:
                node._backward = _consumed
                node._parents = ()
            node_grad = grads.pop(id(node), None)
            owned.discard(id(node))
            if node_grad is None:
                continue
            if node.requires_grad and backward is None:
                # A leaf: accumulate into .grad (in place once it exists —
                # the initial ``.copy()`` makes the buffer the tensor's own).
                if node.grad is None:
                    node.grad = node_grad.copy()
                elif (
                    node.grad.shape == node_grad.shape
                    and node.grad.dtype == node_grad.dtype
                    and node.grad.flags.writeable
                ):
                    np.add(node.grad, node_grad, out=node.grad)
                else:
                    node.grad = node.grad + node_grad
            if backward is not None:
                parent_grads = backward(node_grad)
                if profiled:
                    record_op(node._op or op_name_of(backward), "backward")
                if parent_grads is None:
                    continue
                for parent, pgrad in zip(parents, parent_grads):
                    if pgrad is None or not _needs_grad(parent):
                        continue
                    if check and not np.isfinite(pgrad).all():
                        raise_non_finite(
                            node._op or op_name_of(backward),
                            "backward",
                            pgrad,
                            parents,
                        )
                    key = id(parent)
                    if key in grads:
                        existing = grads[key]
                        if (
                            key in owned
                            and existing.shape == pgrad.shape
                            and existing.dtype == pgrad.dtype
                        ):
                            np.add(existing, pgrad, out=existing)
                        else:
                            grads[key] = existing + pgrad
                            owned.add(key)
                    else:
                        grads[key] = pgrad

    # Arithmetic operators are attached in repro.autodiff.ops to keep this
    # module focused on the graph machinery.


def _consumed(grad: np.ndarray) -> None:
    """The backward closure of a node an earlier ``backward()`` walked."""
    raise RuntimeError(
        "backward() reached a graph node that an earlier backward() already "
        "consumed; rebuild the graph with a new forward pass"
    )


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None or bool(t._parents)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in reverse topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Coerce ``value`` (array-like, scalar, or Tensor) into a Tensor.

    A Python ``int``/``float`` takes the dtype of ``like`` when given — the
    other operand of a binary op — the way NumPy 2 (NEP 50) treats Python
    scalars as *weak*: ``x32 + 1e-5`` stays float32, ``x64 + 1e-5`` float64.
    A 0-d array is a strong type, so wrapping the scalar at its own float64
    would silently promote the whole graph.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None and type(value) in _PYTHON_SCALARS:
        return Tensor(np.asarray(value, dtype=like.dtype))
    return Tensor(value)


def make_op(
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Iterable[np.ndarray | None]],
) -> Tensor:
    """Create a non-leaf tensor recording ``backward`` if grad is enabled.

    Under :func:`~repro.autodiff.anomaly.detect_anomaly`, the output is
    checked for non-finite values before the graph node is created, and the
    op name is stamped on the node so backward-pass anomalies can name it.
    """
    check = anomaly_enabled()
    if check and not np.isfinite(out_data).all():
        raise_non_finite(op_name_of(backward), "forward", out_data, tuple(parents))
    profiled = profiling_enabled()
    if profiled:
        record_op(op_name_of(backward), "forward")
    track = _grad_enabled() and any(_needs_grad(p) for p in parents)
    if not track:
        return Tensor(out_data)
    out = Tensor(out_data, _parents=tuple(parents), _backward=backward)
    if check or profiled:
        out._op = op_name_of(backward)
    return out
