"""Gradient-descent optimizers.

The paper trains forecasting models and comparators with Adam (lr 1e-3,
weight decay 5e-4 / 1e-4); it is reproduced here, along with the
gradient-norm clipper.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter


class Optimizer:
    """Base class holding a parameter list and the zero-grad hook."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Copy the optimizer's internal state for checkpointing."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict` (bitwise, shape-checked)."""
        if state:
            raise ValueError(f"{type(self).__name__} expects an empty state dict")


def _copy_slot_arrays(slots: list[np.ndarray]) -> list[np.ndarray]:
    return [array.copy() for array in slots]


def _restore_slot_arrays(
    target: list[np.ndarray], saved: list[np.ndarray], name: str
) -> None:
    if len(saved) != len(target):
        raise ValueError(
            f"optimizer state mismatch: {len(saved)} saved {name} buffers "
            f"for {len(target)} parameters"
        )
    for slot, array in zip(target, saved):
        value = np.asarray(array)
        if value.shape != slot.shape:
            raise ValueError(
                f"optimizer state shape mismatch in {name}: "
                f"expected {slot.shape}, got {value.shape}"
            )
        slot[...] = value


class Adam(Optimizer):
    """Adam with decoupled-style weight decay (paper's optimizer)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step
        bias2 = 1.0 - beta2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "step": self._step,
            "m": _copy_slot_arrays(self._m),
            "v": _copy_slot_arrays(self._v),
        }

    def load_state_dict(self, state: dict) -> None:
        _restore_slot_arrays(self._m, state["m"], "m")
        _restore_slot_arrays(self._v, state["v"], "v")
        self._step = int(state["step"])


def grad_norm(parameters: Iterable[Parameter]) -> float:
    """Global L2 norm of all gradients (non-finite if any grad is).

    Overflow in the squared sum is deliberate and silenced: callers (the
    trainer's health monitor, :func:`clip_grad_norm`) detect divergence by
    checking the returned value, not by numpy warnings.
    """
    params = [p for p in parameters if p.grad is not None]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(np.sum([float((p.grad**2).sum()) for p in params])))


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients in place; return the norm.

    Non-finite and zero norms are returned untouched *without* scaling: a
    NaN/Inf norm would otherwise poison every gradient with NaN (or zero
    them via ``max_norm / inf``), and a zero norm would divide by zero.
    Callers that want to react to a bad norm check the returned value.
    """
    params = [p for p in parameters if p.grad is not None]
    total = grad_norm(params)
    if np.isfinite(total) and total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total
