"""Opt-in profiling hooks: per-module forward timing, autodiff op counts.

Answering "which module eats the forward pass" or "how many ``matmul``
backwards does one proxy evaluation run" requires hooks *inside*
:meth:`repro.nn.module.Module.__call__` and
:func:`repro.autodiff.tensor.make_op` — the two choke points every forward
and every recorded op already flow through.  Both already branch on the
anomaly-mode flag; profiling reuses the same pattern (one thread-local flag
read when disabled) and the same ``module_scope`` stamping, so a profiled
forward is attributed to its full module path
(``CTSForecaster/STBlock/Linear``), exactly like an anomaly report.

Measurements land in the ambient :mod:`~repro.obs.metrics` registry:

* ``profile.forward.<path>.calls`` / ``.seconds`` — per-module-path forward
  count and cumulative wall time,
* ``profile.ops.<op>.forward`` / ``.backward`` — per-op invocation counts.

Profiling observes timing and counts but never feeds them back into
computation, so enabling it cannot change any score; the only cost is
overhead (one clock read and two counter bumps per module call — expect
roughly 5–15% on module-dense models, see ``docs/observability.md``).
``$REPRO_PROFILE`` seeds the process default, mirroring ``$REPRO_ANOMALY``;
proxy evaluations carry the calling thread's mode to their backend.
"""

from __future__ import annotations

import contextlib
import threading

from ..settings import Settings
from .metrics import get_registry

_state = threading.local()
_process_default = Settings.read("profile")


def profiling_enabled() -> bool:
    """Whether profiling hooks are active on this thread."""
    return getattr(_state, "enabled", _process_default)


def set_profiling_default(enabled: bool) -> None:
    """Set the process-default mode (what threads without an explicit
    :func:`profile` context observe)."""
    global _process_default
    _process_default = bool(enabled)


@contextlib.contextmanager
def profile(enabled: bool = True):
    """Enable (or force-disable) profiling hooks for the enclosed region."""
    previous = getattr(_state, "enabled", None)
    _state.enabled = bool(enabled)
    try:
        yield
    finally:
        if previous is None:
            del _state.enabled
        else:
            _state.enabled = previous


def record_forward(module_path: str, seconds: float) -> None:
    """Account one module forward under its ``module_scope`` path."""
    registry = get_registry()
    registry.counter(f"profile.forward.{module_path}.calls").inc()
    registry.counter(f"profile.forward.{module_path}.seconds").inc(seconds)


def record_op(op: str, phase: str) -> None:
    """Account one autodiff op invocation (``phase``: forward/backward)."""
    get_registry().counter(f"profile.ops.{op}.{phase}").inc()
