"""Run a unit of work off the caller's thread under the caller's context.

Anomaly mode, profiling, the ambient tracer and the ambient metrics
registry are all thread-local, so work handed to another thread (a timeout
thread, a final-training thread) or to a pool process would run without
them.  The hand-off has three steps:

1. :meth:`CallerModes.current` reads the modes on the caller's thread; the
   value is small and picklable, so it rides in a pool payload too;
2. :func:`captured` runs the work under those modes, with an in-memory span
   collector (when the caller traces) and a fresh metrics scope, and yields
   a :class:`Capture` holding what the work recorded;
3. :func:`relay` folds the spans and metric deltas back in, on the
   caller's thread: spans are grafted under the caller's current span (or a
   given parent) and stamped with its correlation id, and the metrics are
   merged into its ambient registry.

Span records and metric snapshots are plain data, so a pool worker returns
them through its result plumbing and the parent relays them the same way.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from ..autodiff.anomaly import anomaly_enabled, detect_anomaly
from .metrics import MetricsRegistry, get_registry, metrics_scope
from .profile import profile, profiling_enabled
from .trace import Tracer, current_span_id, get_tracer, tracer_scope, tracing_enabled


@dataclass(frozen=True)
class CallerModes:
    """The thread-local modes a unit of work inherits from its caller."""

    trace: bool
    anomaly: bool
    profiling: bool

    @classmethod
    def current(cls) -> "CallerModes":
        """The modes of the calling thread."""
        return cls(tracing_enabled(), anomaly_enabled(), profiling_enabled())


@dataclass
class Capture:
    """What one unit of work recorded: span records and metric deltas."""

    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    collector: Tracer | None = None


def relay(
    spans: list[dict],
    metrics: dict,
    parent_id: str | None = None,
    root_attrs: dict | None = None,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold a capture's spans and metric deltas into this thread's telemetry.

    Root spans nest under ``parent_id``, else the caller's current span;
    metrics merge into ``registry``, else the caller's ambient one.
    """
    if metrics:
        (registry if registry is not None else get_registry()).merge(metrics)
    tracer = get_tracer()
    if spans and tracer is not None:
        if parent_id is None:
            parent_id = current_span_id()
        tracer.relay(spans, parent_id, root_attrs)


@contextlib.contextmanager
def captured(modes: CallerModes):
    """Run the enclosed block under ``modes``, recording into a :class:`Capture`.

    The capture's ``metrics`` are filled in when the block exits, even on
    error; its ``collector`` is the span collector, or ``None`` when the
    caller does not trace, in which case tracing is off inside the block
    even where a process-default tracer exists.
    """
    capture = Capture()
    if modes.trace:
        capture.collector = Tracer(capture.spans.append)
    with (
        detect_anomaly(modes.anomaly),
        profile(modes.profiling),
        tracer_scope(capture.collector),
        metrics_scope() as registry,
    ):
        try:
            yield capture
        finally:
            capture.metrics = registry.snapshot()
