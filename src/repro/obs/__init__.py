"""Unified telemetry: structured tracing, metrics, profiling, heartbeats.

``repro.obs`` is the dependency-free observability layer the rest of the
pipeline reports into (it imports nothing from the rest of ``repro``, so
every layer — autodiff, nn, core, runtime, comparator, search — may import
it without cycles).  Four pieces:

* :mod:`~repro.obs.trace` — nested monotonic-clock spans as versioned
  JSONL, with worker-span relay for process-pool evaluation,
* :mod:`~repro.obs.metrics` — named counters/gauges/histograms with parent
  propagation and one snapshot API (``EvalStats``, ``RankingStats``, and
  the health monitor render from it),
* :mod:`~repro.obs.profile` — opt-in per-module forward timing and
  autodiff op counts, reusing the anomaly mode's ``module_scope`` stamping,
* :mod:`~repro.obs.heartbeat` — rate-limited progress lines for long runs.

Contract: telemetry observes, it never feeds computation.  Disabled, the
hot paths are bitwise-inert; enabled, all scores stay bitwise-identical.
See ``docs/observability.md``.
"""

from __future__ import annotations

from .export import (
    prometheus_name,
    render_dashboard,
    render_prometheus,
)
from .heartbeat import (
    Heartbeat,
    configure_heartbeat,
    heartbeat,
    latency_summary,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_bound,
    get_registry,
    global_registry,
    metrics_scope,
    render_metrics,
)
from .profile import (
    profile,
    profiling_enabled,
    record_forward,
    record_op,
    set_profiling_default,
)
from .report import (
    StageStats,
    Trace,
    build_tree,
    candidate_timeline,
    filter_spans,
    load_trace,
    render_report,
    render_rollup,
    render_timeline,
    render_tree,
    stage_rollup,
)
from .trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    SpanBuffer,
    SpanHandle,
    Tracer,
    buffered_tracer,
    configure_tracing,
    correlation_scope,
    current_correlation,
    current_span_id,
    default_span_buffer,
    file_tracer,
    get_tracer,
    span,
    tracer_scope,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanBuffer",
    "SpanHandle",
    "StageStats",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "Tracer",
    "bucket_index",
    "bucket_upper_bound",
    "buffered_tracer",
    "build_tree",
    "candidate_timeline",
    "configure_heartbeat",
    "configure_tracing",
    "correlation_scope",
    "current_correlation",
    "current_span_id",
    "default_span_buffer",
    "file_tracer",
    "filter_spans",
    "get_registry",
    "get_tracer",
    "global_registry",
    "heartbeat",
    "latency_summary",
    "load_trace",
    "metrics_scope",
    "profile",
    "profiling_enabled",
    "prometheus_name",
    "record_forward",
    "record_op",
    "render_dashboard",
    "render_metrics",
    "render_prometheus",
    "render_report",
    "render_rollup",
    "render_timeline",
    "render_tree",
    "set_profiling_default",
    "span",
    "stage_rollup",
    "tracer_scope",
    "tracing_enabled",
]
