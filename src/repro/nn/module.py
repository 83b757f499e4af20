"""Module system for the neural substrate.

:class:`Module` mirrors the relevant parts of ``torch.nn.Module``: parameter
registration by attribute assignment, recursive traversal, train/eval modes,
and state-dict (de)serialization.  :class:`Parameter` is a ``Tensor`` with
``requires_grad=True`` that modules recognise during traversal.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from ..autodiff import Tensor
from ..autodiff.anomaly import anomaly_enabled, current_module_path, module_scope
from ..obs.profile import profiling_enabled, record_forward


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, recursing into children."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (a proxy for model capacity)."""
        return int(np.sum([p.size for p in self.parameters()], dtype=np.int64))

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict`; strict name/shape check."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if profiling_enabled():
            # Same module_scope stamping as anomaly mode, so a profiled
            # forward is attributed to its full path (AHC/GIN/Linear).  The
            # timing never feeds back into computation.
            with module_scope(type(self).__name__):
                path = current_module_path()
                started = time.perf_counter()
                try:
                    return self.forward(*args, **kwargs)
                finally:
                    record_forward(path, time.perf_counter() - started)
        if anomaly_enabled():
            # Record the module chain so a NonFiniteError can name the
            # creating module path, not just the raw op.
            with module_scope(type(self).__name__):
                return self.forward(*args, **kwargs)
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold submodules in a list, registering each for traversal."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Add ``module`` to the list and register it for traversal."""
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
