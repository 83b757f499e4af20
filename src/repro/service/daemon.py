"""The worker daemon: claims registry jobs and executes them.

A daemon is a polling loop over the sqlite registry: atomically claim the
oldest pending job (``UPDATE … RETURNING`` under ``BEGIN IMMEDIATE``, so
two daemons can share one registry without double-claiming), re-validate
its payload, execute it through :func:`~repro.service.jobs.execute_job`,
and record the outcome:

* success — result body stored content-addressed under the job's
  fingerprint, job transitioned ``running → done``;
* an ordinary ``Exception`` — job transitioned ``running → failed`` with
  the error text (a later ``requeue`` retries it);
* a ``BaseException`` (``KeyboardInterrupt``, ``SystemExit`` — i.e. the
  process dying mid-job) — deliberately *not* caught: the job stays
  ``running`` and orphan recovery requeues it.  Combined with the
  engine's content-addressed checkpoints, the retried run resumes
  bitwise-identically instead of starting over.

Liveness and recovery: while a job runs, a heartbeat thread refreshes its
``updated`` stamp every ``heartbeat_interval`` seconds.  Orphan recovery —
run once at :meth:`Daemon.start` and periodically while the queue is idle
— requeues only ``running`` jobs whose heartbeat went quiet for
``recover_stale_after`` seconds, so a daemon restarting against a registry
shared with *live* workers in another process never steals their in-flight
jobs (unscoped :meth:`~repro.service.db.ServiceDB.recover_orphans` would
requeue them, the job would execute twice, and the first worker's
``running → done`` transition would then lose its race).

The loop itself is crash-proof against ordinary failures: any
``Exception`` escaping a claim/execute cycle (registry contention, a lost
transition race) is logged and the loop keeps polling — only
``BaseException`` kills the worker, preserving the crash-resume contract.

The daemon runs fine as a plain thread (tests, ``repro serve`` single
process) or as the only occupant of a process (``repro serve --no-api``).
"""

from __future__ import annotations

import logging
import threading
import time
import uuid

from ..obs import (
    SpanBuffer,
    buffered_tracer,
    correlation_scope,
    default_span_buffer,
    get_registry,
    get_tracer,
    tracer_scope,
)
from ..settings import Settings
from .db import IllegalTransitionError, ServiceDB, UnknownJobError
from .engine import Engine
from .jobs import execute_job
from .protocol import JobRequest, RuntimeOverrides, parse_runtime

logger = logging.getLogger(__name__)

def _request_from_row(job: dict) -> JobRequest:
    """Rebuild the validated request from a stored job row."""
    payload = job["payload"]
    return JobRequest(
        kind=job["kind"],
        task_spec=payload["task"],
        options=payload.get("options", {}),
        runtime=(
            parse_runtime(payload.get("runtime"))
            if payload.get("runtime")
            else RuntimeOverrides()
        ),
        tenant=payload.get("tenant", "anonymous"),
    )


class Daemon:
    """One worker loop bound to a registry and an engine.

    Args:
        db: the shared job registry.
        engine: the engine executing claimed jobs.
        poll_interval: idle sleep between empty claims, seconds.
        owner: claim tag written into job rows; defaults to a unique
            ``worker-<hex>`` so concurrent daemons are distinguishable.
        heartbeat_interval: how often the in-flight job's ``updated``
            stamp is refreshed, seconds.
        recover_stale_after: how long a ``running`` job's heartbeat must
            be quiet before recovery treats it as orphaned; defaults to
            ``10 × heartbeat_interval``.
    """

    def __init__(
        self,
        db: ServiceDB,
        engine: Engine,
        poll_interval: float = 0.05,
        owner: str | None = None,
        heartbeat_interval: float = 1.0,
        recover_stale_after: float | None = None,
        span_buffer: SpanBuffer | None = None,
    ) -> None:
        self.db = db
        self.engine = engine
        self.poll_interval = poll_interval
        self.owner = owner or f"worker-{uuid.uuid4().hex[:8]}"
        # Every job runs under a tracer that tees into the (shared) span
        # buffer — backing /jobs/<id>/trace — and into whatever file tracer
        # was ambient when the daemon was built, so --trace still captures
        # service runs.  Scoped per-execution; never installed globally.
        self.span_buffer = span_buffer if span_buffer is not None else default_span_buffer()
        self._tracer = buffered_tracer(self.span_buffer, base=get_tracer())
        self.heartbeat_interval = heartbeat_interval
        self.recover_stale_after = (
            recover_stale_after
            if recover_stale_after is not None
            else heartbeat_interval * 10.0
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._heartbeat_thread: threading.Thread | None = None
        self._active_job_id: str | None = None
        self._recover = False
        self.executed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, recover: bool = True) -> "Daemon":
        """Sweep stale orphans (jobs whose worker's heartbeat died), then poll."""
        self._recover = recover
        if recover:
            self.recover_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run_forever, name=self.owner, daemon=True
        )
        self._thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name=f"{self.owner}-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        for thread in (self._thread, self._heartbeat_thread):
            if thread is not None:
                thread.join(timeout=timeout)
        self._thread = None
        self._heartbeat_thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # Recovery and liveness
    # ------------------------------------------------------------------
    def recover_once(self) -> list[dict]:
        """Requeue running jobs whose heartbeat has been quiet too long.

        Scoped by staleness, not owner: a freshly restarted daemon has a
        new owner tag, so the dead predecessor's jobs are recognizable
        only by their silence — while jobs held by live workers (even in
        another process sharing the registry) keep heartbeating and are
        left alone.
        """
        orphans = self.db.recover_orphans(stale_after=self.recover_stale_after)
        if orphans:
            logger.info("requeued %d orphaned job(s)", len(orphans))
        return orphans

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            job_id = self._active_job_id
            if job_id is None:
                continue
            try:
                if not self.db.heartbeat(job_id, self.owner):
                    logger.warning(
                        "job %s is no longer owned by %s", job_id, self.owner
                    )
            except Exception:
                logger.exception("heartbeat for job %s failed", job_id)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run_forever(self) -> None:
        next_sweep = time.monotonic() + self.recover_stale_after
        while not self._stop.is_set():
            # Ordinary failures (registry contention after the busy
            # timeout, a lost transition race) must not kill the worker
            # silently while the API keeps queueing; log and keep polling.
            # BaseException still escapes — that is the crash contract.
            try:
                claimed = self.run_once()
            except Exception:
                logger.exception("worker %s: claim cycle failed", self.owner)
                claimed = False
            if claimed:
                continue
            if self._recover and time.monotonic() >= next_sweep:
                try:
                    self.recover_once()
                except Exception:
                    logger.exception("worker %s: orphan sweep failed", self.owner)
                next_sweep = time.monotonic() + self.recover_stale_after
            self._stop.wait(self.poll_interval)

    def run_once(self) -> bool:
        """Claim and execute at most one job; True if one was claimed."""
        job = self.db.claim_next(self.owner)
        if job is None:
            return False
        self.execute(job)
        return True

    def execute(self, job: dict) -> None:
        """Run one claimed job to a terminal state.

        Only ``Exception`` is converted into a 'failed' row; anything
        harsher escapes with the job still 'running' — the crash contract
        the restart-recovery test depends on.
        """
        started = time.perf_counter()
        self._active_job_id = job["id"]
        registry = get_registry()
        registry.histogram("service.job.queue_wait_seconds").observe(
            float(job.get("queue_wait") or 0.0)
        )
        try:
            # The job id doubles as the correlation id: it is stable across
            # requeue/recovery, so every span of every attempt — including
            # pool-worker spans stamped at relay time — answers to
            # GET /jobs/<id>/trace.
            with tracer_scope(self._tracer), correlation_scope(job["id"]), \
                    self._tracer.span(
                        "job",
                        job=job["id"],
                        kind=job["kind"],
                        attempt=job["attempts"],
                        owner=self.owner,
                    ) as handle:
                try:
                    request = _request_from_row(job)
                    result = execute_job(self.engine, request, job["fingerprint"])
                except Exception as exc:
                    handle.set(error=type(exc).__name__)
                    logger.exception("job %s failed", job["id"])
                    self._transition_safe(
                        job["id"], "failed", error=f"{type(exc).__name__}: {exc}"
                    )
                    return
        finally:
            self._active_job_id = None
            registry.histogram("service.job.execute_seconds").observe(
                time.perf_counter() - started
            )
        metrics = dict(result.metrics)
        metrics["job.seconds"] = {
            "kind": "gauge",
            "value": time.perf_counter() - started,
        }
        self.db.put_result(
            job["fingerprint"], job["kind"], result.body, job_id=job["id"]
        )
        self._transition_safe(job["id"], "done", metrics=metrics)
        self.executed += 1

    def _transition_safe(self, job_id: str, to_state: str, **kwargs) -> None:
        try:
            self.db.transition(job_id, to_state, from_state="running", **kwargs)
        except UnknownJobError:
            logger.warning("job %s vanished before reaching %s", job_id, to_state)
        except IllegalTransitionError as exc:
            # Expected under recovery: the job was requeued (treated as
            # orphaned) while this worker was still finishing it.  The
            # result body is content-addressed, so whichever run lands it
            # writes identical bytes; losing the row race is harmless.
            logger.warning(
                "job %s: lost transition to %s (%s)", job_id, to_state, exc
            )


class MetricsSampler:
    """Periodically persist registry snapshots into ``metrics_history``.

    One sampler per service process (started by ``repro serve`` unless
    ``--metrics-interval 0``): every ``interval`` seconds it writes the
    process-wide registry snapshot through
    :meth:`~repro.service.db.ServiceDB.record_metrics` and prunes the table
    to ``max_rows`` (downsampling the oldest half, so long-range history
    thins out instead of vanishing).  Sampling failures are logged and the
    loop keeps going — history is observability, never liveness.
    ``interval=None`` takes :attr:`Settings.metrics_interval
    <repro.settings.Settings>` (``$REPRO_METRICS_INTERVAL``, default 30 s).
    """

    def __init__(
        self,
        db: ServiceDB,
        registry=None,
        interval: float | None = None,
        source: str = "",
        max_rows: int = 2000,
    ) -> None:
        from ..obs import global_registry

        self.db = db
        self.registry = registry if registry is not None else global_registry()
        self.interval = Settings.from_env().override(
            metrics_interval=interval
        ).metrics_interval
        self.source = source
        self.max_rows = max_rows
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def sample_once(self) -> None:
        self.db.record_metrics(self.registry.snapshot(), source=self.source)
        self.db.prune_metrics_history(self.max_rows)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:
                logger.exception("metrics sampler failed; continuing")

    def start(self) -> "MetricsSampler":
        if self.enabled and self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="metrics-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
