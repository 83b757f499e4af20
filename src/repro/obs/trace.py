"""Structured tracing: nested, monotonic-clock spans emitted as JSONL.

A *span* is one timed region of the pipeline — ``search``, ``generation``,
``rank``, ``eval-batch``, ``eval`` — with a name, a duration measured on the
monotonic clock (``time.perf_counter``), a wall-clock start for cross-process
ordering, free-form JSON-safe attributes, and a parent id that nests it into
the run's span tree.  Spans are written one JSON object per line to a
per-run trace file whose first record carries the schema version
(:data:`TRACE_SCHEMA_VERSION`), so a trace written today stays parseable by
tomorrow's ``repro trace report``.

Process-pool workers cannot write to the parent's trace file, and their
monotonic clocks are not comparable to the parent's.  Instead a worker runs
its unit of work under an in-memory :class:`Tracer` (see
:func:`tracer_scope`), returns the collected span records through the
existing result plumbing, and the parent *relays* them —
:meth:`Tracer.relay` grafts the worker's root spans onto the parent's
current span (the evaluation batch), so parallel evaluations appear in the
parent trace exactly where serial ones would.

The central invariant (enforced by ``benchmarks/bench_trace_overhead.py``
and ``tests/test_trace_roundtrip.py``): with tracing disabled the hot paths
are bitwise-inert — :func:`span` costs one ``None`` check — and with it
enabled every score is bitwise-identical to an untraced run, because timing
is observed but never fed back into computation.

Service-mode additions: a *correlation id* (the HTTP request id or queued
job id) made ambient with :func:`correlation_scope` is stamped as ``corr``
on every span emitted inside the scope — including worker-collected spans
at relay time — so ``GET /jobs/<id>/trace`` and
``repro trace report --job`` can isolate one job's spans from the shared
stream.  :class:`SpanBuffer` keeps a bounded in-memory window of recent
records for those endpoints and the ``/dash`` status page.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import os
import threading
import time
from typing import Callable, IO

TRACE_SCHEMA_VERSION = 1

_TRACER_IDS = itertools.count()


class SpanHandle:
    """The mutable in-flight span yielded by :meth:`Tracer.span`."""

    __slots__ = ("id", "name", "attrs")

    def __init__(self, span_id: str, name: str, attrs: dict) -> None:
        self.id = span_id
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)


class _NullSpan:
    """What :func:`span` yields when tracing is disabled: attrs go nowhere."""

    __slots__ = ()
    id = None
    name = ""

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Emit span records to a sink callable (file line or in-memory list).

    Span ids are ``"<pid>.<tracer>.<seq>"`` — unique within a run even when
    worker-collected spans are relayed into the parent's file, and carrying
    no randomness (ids are bookkeeping, never computation).
    """

    def __init__(self, sink: Callable[[dict], None]) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._prefix = f"{os.getpid()}.{next(_TRACER_IDS)}"
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> list[SpanHandle]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_span_id(self) -> str | None:
        stack = self._stack()
        return stack[-1].id if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Open a nested span; closes (and emits) on exit, even on error."""
        handle = SpanHandle(f"{self._prefix}.{next(self._seq)}", name, dict(attrs))
        stack = self._stack()
        parent = stack[-1].id if stack else None
        stack.append(handle)
        wall0 = time.time()
        t0 = time.perf_counter()
        try:
            yield handle
        except BaseException as exc:
            handle.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            record = {
                "v": TRACE_SCHEMA_VERSION,
                "kind": "span",
                "id": handle.id,
                "parent": parent,
                "name": name,
                "wall0": wall0,
                "dur": duration,
                "pid": os.getpid(),
                "attrs": handle.attrs,
            }
            corr = current_correlation()
            if corr is not None:
                record["corr"] = corr
            self.emit(record)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, record: dict) -> None:
        with self._lock:
            self._sink(record)

    def relay(
        self,
        records: list[dict],
        parent_id: str | None = None,
        root_attrs: dict | None = None,
    ) -> None:
        """Re-emit span records collected elsewhere (a pool worker).

        Root spans (``parent is None``) are grafted under ``parent_id`` and
        annotated with ``root_attrs`` — the attempt number and evaluation
        fingerprint only the parent knows.  Child spans keep their worker-
        local parent links, so the worker's subtree survives intact.

        Workers do not know which job their unit of work belongs to, so the
        ambient correlation id (the relaying thread runs inside the job's
        :func:`correlation_scope`) is stamped onto every relayed span that
        does not already carry one.
        """
        corr = current_correlation()
        for record in records:
            if record.get("kind") == "span":
                is_root = record.get("parent") is None
                if is_root or (corr is not None and "corr" not in record):
                    record = dict(record)
                if is_root:
                    record["parent"] = parent_id
                    if root_attrs:
                        record["attrs"] = {**record.get("attrs", {}), **root_attrs}
                if corr is not None and "corr" not in record:
                    record["corr"] = corr
            self.emit(record)

    def close(self) -> None:
        """Flush/close the sink when it owns a file handle."""
        closer = getattr(self._sink, "close", None)
        if closer is not None:
            closer()


class _FileSink:
    """Append JSON lines to ``path``; JSON-unsafe attrs degrade to strings."""

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle: IO[str] = open(path, "a", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def file_tracer(path: str | os.PathLike) -> Tracer:
    """A tracer writing to ``path``, prefixed with a versioned meta record."""
    tracer = Tracer(_FileSink(os.fspath(path)))
    tracer.emit(
        {
            "v": TRACE_SCHEMA_VERSION,
            "kind": "trace",
            "schema": TRACE_SCHEMA_VERSION,
            "created": time.time(),
            "pid": os.getpid(),
        }
    )
    return tracer


# ---------------------------------------------------------------------------
# Ambient tracer: process default plus thread-local scopes
# ---------------------------------------------------------------------------

_default_tracer: Tracer | None = None
_tls = threading.local()


def _scope_stack() -> list[Tracer | None]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def get_tracer() -> Tracer | None:
    """The ambient tracer: innermost :func:`tracer_scope`, else the default.

    A scope may push ``None`` to force tracing *off* for a region.
    """
    stack = _scope_stack()
    return stack[-1] if stack else _default_tracer


def tracing_enabled() -> bool:
    return get_tracer() is not None


def configure_tracing(path: str | os.PathLike | None) -> Tracer | None:
    """Install (or, with ``None``, remove) the process-default file tracer."""
    global _default_tracer
    if _default_tracer is not None:
        _default_tracer.close()
    _default_tracer = file_tracer(path) if path is not None else None
    return _default_tracer


@contextlib.contextmanager
def tracer_scope(tracer: Tracer | None):
    """Make ``tracer`` ambient on this thread (``None`` = force-disabled).

    Pool workers push an in-memory collector here so spans created anywhere
    below (the trainer, the health monitor) land in the relay payload.
    """
    stack = _scope_stack()
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()


@contextlib.contextmanager
def span(name: str, **attrs):
    """Open a span on the ambient tracer; a no-op when tracing is disabled.

    The disabled path is one ``None`` check plus yielding a shared null
    handle, which keeps instrumented hot paths bitwise-inert and within the
    <2% overhead budget asserted by ``benchmarks/bench_trace_overhead.py``.
    """
    tracer = get_tracer()
    if tracer is None:
        yield NULL_SPAN
        return
    with tracer.span(name, **attrs) as handle:
        yield handle


def current_span_id() -> str | None:
    tracer = get_tracer()
    return tracer.current_span_id() if tracer is not None else None


# ---------------------------------------------------------------------------
# Correlation ids: tie every span in a request/job to one stamped id
# ---------------------------------------------------------------------------

_corr_tls = threading.local()


def _corr_stack() -> list[str]:
    stack = getattr(_corr_tls, "stack", None)
    if stack is None:
        stack = []
        _corr_tls.stack = stack
    return stack


def current_correlation() -> str | None:
    """The innermost ambient correlation id on this thread, if any."""
    stack = _corr_stack()
    return stack[-1] if stack else None


@contextlib.contextmanager
def correlation_scope(correlation_id: str):
    """Stamp ``correlation_id`` as ``corr`` on every span of this thread.

    The service uses the job id for daemon-executed work (stable across
    requeue, so a recovered job keeps its correlation) and a per-request id
    for synchronous HTTP handlers.  Scopes nest; the innermost wins.
    """
    stack = _corr_stack()
    stack.append(str(correlation_id))
    try:
        yield
    finally:
        stack.pop()


# ---------------------------------------------------------------------------
# Span buffer: a bounded in-memory window of recent records
# ---------------------------------------------------------------------------


class SpanBuffer:
    """Keep the last ``maxlen`` span records for live queries.

    Usable directly as a :class:`Tracer` sink (it is callable), or teed next
    to a file sink via :func:`buffered_tracer`.  Backs ``GET
    /jobs/<id>/trace`` (filter by correlation id) and the dashboard's
    recent-traces panel; bounded so a long-lived service cannot grow without
    limit.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._records: collections.deque[dict] = collections.deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def __call__(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(
        self, correlation: str | None = None, limit: int | None = None
    ) -> list[dict]:
        """Buffered span records, oldest first; optionally one correlation's."""
        with self._lock:
            records = list(self._records)
        if correlation is not None:
            records = [r for r in records if r.get("corr") == str(correlation)]
        if limit is not None and len(records) > limit:
            records = records[-limit:]
        return records

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


_default_span_buffer: SpanBuffer | None = None
_default_span_buffer_lock = threading.Lock()


def default_span_buffer() -> SpanBuffer:
    """The process-wide span buffer, created on first use."""
    global _default_span_buffer
    with _default_span_buffer_lock:
        if _default_span_buffer is None:
            _default_span_buffer = SpanBuffer()
        return _default_span_buffer


def buffered_tracer(buffer: SpanBuffer, base: Tracer | None = None) -> Tracer:
    """A tracer teeing every record into ``buffer`` and, optionally, ``base``.

    The service scopes this tracer around request handling and job execution
    (see :func:`tracer_scope`), so live endpoints see service spans without
    installing a process-default tracer — batch CLI runs and tests keep
    their existing disabled-by-default behavior.
    """
    if base is None:
        return Tracer(buffer)

    def sink(record: dict) -> None:
        buffer(record)
        base.emit(record)

    return Tracer(sink)
