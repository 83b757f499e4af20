"""Anomaly detection for the autodiff engine: NaN/Inf provenance.

Long proxy-evaluation campaigns deliberately train pathological candidates
(huge learning rates, deep dilated stacks), so the first non-finite value in
a forward or backward pass must be attributable to the op that created it —
otherwise the NaN only surfaces epochs later as a corrupted score.  This
module is the from-scratch engine's ``torch.autograd.detect_anomaly``:

* :func:`detect_anomaly` — a context manager that turns on per-op finite
  checks in :func:`~repro.autodiff.tensor.make_op` (forward) and
  :meth:`~repro.autodiff.tensor.Tensor.backward` (gradients),
* :class:`NonFiniteError` — raised on the first non-finite value, carrying
  the originating op name, the pass (forward/backward), the enclosing module
  path, and input statistics,
* :func:`module_scope` — pushed by :class:`~repro.nn.module.Module` calls so
  errors name the module chain (for example ``CTSForecaster/STBlock/Linear``).

The checks are opt-in: when disabled (the default) the only cost is one
thread-local flag read per op, which keeps overhead well under 5%.
``$REPRO_ANOMALY`` seeds the process default; proxy evaluations carry the
calling thread's mode to whichever backend runs them (serial, timeout
thread, or pool worker of any start method).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from ..settings import Settings

_state = threading.local()
_process_default = Settings.read("anomaly")


def anomaly_enabled() -> bool:
    """Whether per-op non-finite checks are active on this thread."""
    return getattr(_state, "enabled", _process_default)


def set_anomaly_default(enabled: bool) -> None:
    """Set the process-default mode (what threads without an explicit
    :func:`detect_anomaly` context observe).  Used by the CLI's
    ``--anomaly-mode``; proxy evaluations hand the mode on to their
    backend."""
    global _process_default
    _process_default = bool(enabled)


@contextlib.contextmanager
def detect_anomaly(enabled: bool = True):
    """Enable (or force-disable) non-finite checks for the enclosed region."""
    previous = getattr(_state, "enabled", None)
    _state.enabled = bool(enabled)
    try:
        yield
    finally:
        if previous is None:
            del _state.enabled
        else:
            _state.enabled = previous


# ---------------------------------------------------------------------------
# Module scoping: who created the op
# ---------------------------------------------------------------------------


def _scope_stack() -> list[str]:
    stack = getattr(_state, "scope", None)
    if stack is None:
        stack = []
        _state.scope = stack
    return stack


@contextlib.contextmanager
def module_scope(name: str):
    """Record ``name`` as the enclosing module for ops created inside."""
    stack = _scope_stack()
    stack.append(name)
    try:
        yield
    finally:
        stack.pop()


def current_module_path() -> str:
    """The active module chain, for example ``"AHC/GIN/Linear"``."""
    return "/".join(_scope_stack())


# ---------------------------------------------------------------------------
# The typed error and its provenance payload
# ---------------------------------------------------------------------------


class NonFiniteError(FloatingPointError):
    """A non-finite value appeared in a tracked autodiff operation.

    Attributes:
        op: name of the originating operation (``"exp"``, ``"matmul"``, ...).
        phase: ``"forward"`` or ``"backward"``.
        module_path: the ``/``-joined module chain active when the op ran.
        input_stats: one summary dict per op input (shape, finite min/max/
            mean, and the non-finite element count).
    """

    def __init__(
        self,
        message: str,
        op: str = "<unknown>",
        phase: str = "forward",
        module_path: str = "",
        input_stats: list[dict] | None = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.module_path = module_path
        self.input_stats = input_stats or []


def array_stats(array: np.ndarray) -> dict:
    """A compact numeric summary of ``array`` for provenance messages."""
    array = np.asarray(array)
    finite = np.isfinite(array)
    n_bad = int(array.size - finite.sum())
    stats: dict = {"shape": tuple(array.shape), "non_finite": n_bad}
    if finite.any():
        with np.errstate(over="ignore", invalid="ignore"):
            good = array[finite]
            stats.update(
                min=float(good.min()), max=float(good.max()), mean=float(good.mean())
            )
    return stats


def _format_stats(input_stats: list[dict]) -> str:
    parts = []
    for i, stats in enumerate(input_stats):
        desc = f"input[{i}] shape={stats['shape']}"
        if "min" in stats:
            desc += f" min={stats['min']:.3g} max={stats['max']:.3g}"
        if stats.get("non_finite"):
            desc += f" non_finite={stats['non_finite']}"
        parts.append(desc)
    return "; ".join(parts)


def raise_non_finite(
    op: str, phase: str, out_data: np.ndarray, parents: tuple
) -> None:
    """Build and raise a :class:`NonFiniteError` with full provenance."""
    input_stats = [array_stats(p.data) for p in parents]
    module_path = current_module_path()
    where = f" in module {module_path!r}" if module_path else ""
    out_summary = array_stats(out_data)
    raise NonFiniteError(
        f"non-finite values in {phase} pass of op {op!r}{where}: "
        f"{out_summary['non_finite']}/{int(np.asarray(out_data).size)} bad "
        f"elements ({_format_stats(input_stats)})",
        op=op,
        phase=phase,
        module_path=module_path,
        input_stats=input_stats,
    )


def op_name_of(backward) -> str:
    """Derive the public op name from a backward closure's qualname.

    Backward closures are defined inside their op function, so the qualname
    looks like ``"exp.<locals>.backward"`` — the leading component is the op.
    """
    qualname = getattr(backward, "__qualname__", "")
    return qualname.split(".", 1)[0] if qualname else "<unknown>"
