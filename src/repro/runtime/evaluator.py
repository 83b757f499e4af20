"""The proxy-evaluation engine: fan-out backends, caching, fault tolerance.

Every comparator training label and every search-loop candidate costs one
``measure_arch_hyper`` call — a k-epoch forecaster training — which the paper
amortizes across eight GPUs.  :class:`ProxyEvaluator` is the single choke
point for those calls:

* **serial backend** (``workers=1``, the default) — an in-process loop,
* **process-pool backend** (``workers>1``) — a
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out.

Both backends are bitwise-identical: each evaluation is self-contained and
deterministically seeded by its :class:`~repro.tasks.proxy.ProxyConfig`, so
neither execution order nor process boundaries can change a score.  Results
are consumed in submission order, so the returned list is position-stable
too.

An optional :class:`~repro.runtime.cache.EvalCache` short-circuits
evaluations whose fingerprint has been scored before; hit/miss counters and
per-evaluation wall times are accumulated on :attr:`ProxyEvaluator.stats`.

Fault tolerance (see :mod:`repro.runtime.faults`): with a
:class:`~repro.runtime.faults.RetryPolicy`, a crashed or timed-out attempt
is retried with deterministic backoff; exhaustion raises a typed
:class:`~repro.runtime.faults.EvalFailedError`; and a broken process pool
degrades gracefully to the serial backend instead of destroying the run.
Faults can change wall-clock and stats counters but never a returned score.

Checkpointing (see :mod:`repro.runtime.checkpoint`): an
:class:`~repro.runtime.checkpoint.EvalProgress` handed to
:meth:`ProxyEvaluator.evaluate_pairs` records each score as it lands and
pre-fills already-scored evaluations on resume.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..core.health import DivergenceError
from ..obs.heartbeat import heartbeat, latency_summary
from ..obs.capture import CallerModes, captured, relay
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import span
from ..settings import Settings
from ..space.archhyper import ArchHyper
from ..tasks.proxy import SENTINEL_SCORE, ProxyConfig, measure_arch_hyper
from ..tasks.task import Task
from .cache import EvalCache
from .checkpoint import EvalProgress
from .faults import EvalFailedError, EvalTimeoutError, RetryPolicy
from .fingerprint import proxy_fingerprint

logger = logging.getLogger(__name__)

DIVERGENCE_POLICIES = ("sentinel", "raise")


class EvalStats:
    """Counters and timings accumulated across an evaluator's lifetime.

    The counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (``eval.*`` names) whose parent is the registry that was ambient when
    the evaluator was built — normally the process-wide one — so every
    evaluator keeps isolated local counts *and* feeds the consolidated
    end-of-run snapshot.  The attribute API (``stats.misses``,
    ``stats.misses += 1``) is preserved as a thin view over the registry.
    """

    _COUNTERS = (
        "hits",
        "misses",
        "resumed",
        "retries",
        "timeouts",
        "failures",
        "degradations",
        "divergences",
        "batches",
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry(parent=get_registry())
        self.registry = registry
        self.eval_seconds: list[float] = []

    def _counter(self, name: str):
        return self.registry.counter(f"eval.{name}")

    def record_eval(self, seconds: float, queue_wait: float = 0.0) -> None:
        """Account one fresh evaluation's compute time and queue wait."""
        self.eval_seconds.append(seconds)
        self.registry.histogram("eval.seconds").observe(seconds)
        self._counter("compute_seconds").inc(seconds)
        self._counter("queue_wait_seconds").inc(queue_wait)

    @property
    def batch_seconds(self) -> float:
        return self._counter("batch_seconds").value

    @batch_seconds.setter
    def batch_seconds(self, value: float) -> None:
        counter = self._counter("batch_seconds")
        counter.inc(float(value) - counter.value)

    @property
    def compute_seconds(self) -> float:
        """Wall time spent inside evaluations (excludes pool queue wait)."""
        return self._counter("compute_seconds").value

    @property
    def queue_wait_seconds(self) -> float:
        """Time evaluations sat in a backend queue before starting."""
        return self._counter("queue_wait_seconds").value

    @property
    def evaluations(self) -> int:
        return len(self.eval_seconds)

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def faults(self) -> int:
        """Total fault events survived (retries + timeouts + degradations)."""
        return self.retries + self.timeouts + self.degradations

    def report(self) -> str:
        """One-line human summary rendered from the metrics registry."""
        snap = self.registry.snapshot()

        def count(name: str) -> int:
            return int(snap.get(f"eval.{name}", {}).get("value", 0))

        seconds = snap.get("eval.seconds", {})
        eval_wall = float(seconds.get("total", 0.0))
        evaluations = int(seconds.get("count", 0))
        mean = eval_wall / evaluations if evaluations else 0.0
        total = count("hits") + count("misses")
        hit_rate = count("hits") / total if total else 0.0
        queue_wait = float(snap.get("eval.queue_wait_seconds", {}).get("value", 0.0))
        line = (
            f"proxy evaluations: {count('misses')} fresh, {count('hits')} cache hits "
            f"({hit_rate:.1%} hit rate); "
            f"eval wall {eval_wall:.2f}s total, {mean:.3f}s/eval mean "
            f"({latency_summary(seconds)}); "
            f"{count('batches')} batches in "
            f"{float(snap.get('eval.batch_seconds', {}).get('value', 0.0)):.2f}s "
            f"(compute {eval_wall:.2f}s, queue wait {queue_wait:.2f}s)"
        )
        if count("resumed"):
            line += f"; {count('resumed')} resumed from checkpoint"
        line += (
            f"; faults: {count('retries')} retries, {count('timeouts')} timeouts, "
            f"{count('degradations')} pool degradations, {count('failures')} failures"
        )
        if count("divergences"):
            line += (
                f"; {count('divergences')} diverged candidate(s) -> sentinel score"
            )
        return line


def _make_counter_property(name: str):
    def getter(self: EvalStats) -> int:
        return int(self._counter(name).value)

    def setter(self: EvalStats, value: int) -> None:
        counter = self._counter(name)
        counter.inc(float(value) - counter.value)

    return property(getter, setter)


for _name in EvalStats._COUNTERS:
    setattr(EvalStats, _name, _make_counter_property(_name))
del _name


def _timed_eval(payload: tuple) -> tuple[float, float, bool, float, list, dict]:
    """Run one evaluation; report (score, seconds, diverged, started-at-wall,
    collected span records, metric deltas).

    Module-level so the process-pool backend can pickle it; the eval function
    itself rides along in the payload and must be picklable too.

    Telemetry capture lives *here*, inside the unit of work, so the serial
    and process-pool backends agree: the evaluation runs under a fresh
    metrics scope (health-monitor and profiling counters become a relayable
    delta) and — when the parent has tracing on — under an in-memory span
    collector whose records ride back through the result plumbing.  The
    wall-clock entry timestamp lets the parent split queue wait from compute
    time (monotonic clocks are not comparable across processes, wall clocks
    on one machine are).

    The caller's anomaly, profiling and tracing modes ride in the payload
    as a :class:`~repro.obs.capture.CallerModes`, read in the calling
    thread, so a timeout thread or a pool worker of any start method runs
    under the same modes as the serial backend.

    Divergence handling is also here so both backends behave identically:
    under the ``sentinel`` policy a :class:`DivergenceError`
    deterministically becomes :data:`SENTINEL_SCORE` (no exception crosses
    the process boundary, no retry is triggered); under ``raise`` it
    propagates to the caller.
    """
    eval_fn, arch_hyper, task, config, divergence_policy, modes = payload
    started_wall = time.time()
    with captured(modes) as capture:
        start = time.perf_counter()
        score, diverged = _guarded_eval(
            eval_fn, arch_hyper, task, config, divergence_policy, capture.collector
        )
        seconds = time.perf_counter() - start
    return (
        float(score), seconds, diverged, started_wall, capture.spans, capture.metrics
    )


def _guarded_eval(
    eval_fn, arch_hyper, task, config, divergence_policy, collector
) -> tuple[float, bool]:
    """One evaluation under an (optional) ``eval`` span; (score, diverged)."""
    span_cm = (
        collector.span("eval", candidate=arch_hyper.key(), task=task.name)
        if collector is not None
        else contextlib.nullcontext()
    )
    with span_cm as handle:
        try:
            score = eval_fn(arch_hyper, task, config)
        except DivergenceError:
            if divergence_policy == "raise":
                raise
            if handle is not None:
                handle.set(diverged=True)
            return SENTINEL_SCORE, True
    return float(score), False


# One evaluation job flowing through a backend: its position in the batch,
# its fingerprint (None when neither cache, retry jitter, nor progress needs
# one), and the (arch_hyper, task) pair.
_Job = tuple[int, "str | None", ArchHyper, Task]


class ProxyEvaluator:
    """Fans out ``(arch_hyper, task)`` proxy evaluations, with caching.

    Args:
        workers: parallel worker processes; ``None`` takes
            :attr:`Settings.workers <repro.settings.Settings>` (default 1 =
            serial, in-process).
        cache: an :class:`EvalCache`, or ``None`` to disable score caching.
        eval_fn: the evaluation function ``(ah, task, config) -> float``;
            defaults to :func:`~repro.tasks.proxy.measure_arch_hyper`.  Must
            be a picklable (module-level) callable when ``workers > 1``.
        retry_policy: a :class:`~repro.runtime.faults.RetryPolicy` governing
            per-evaluation retries, backoff, and timeouts; ``None`` (the
            default) fails fast with no timeout enforcement.
        divergence_policy: ``"sentinel"`` (default; a diverged candidate
            deterministically scores :data:`~repro.tasks.proxy.SENTINEL_SCORE`
            — cacheable, retry-exempt, bitwise-identical on every backend) or
            ``"raise"`` (a :class:`~repro.core.health.DivergenceError`
            propagates, still without burning retries); ``None`` takes it
            from :class:`~repro.settings.Settings`.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: EvalCache | None = None,
        eval_fn: Callable[[ArchHyper, Task, ProxyConfig], float] | None = None,
        retry_policy: RetryPolicy | None = None,
        divergence_policy: str | None = None,
    ) -> None:
        settings = Settings.from_env().override(
            workers=workers, divergence_policy=divergence_policy
        )
        self.workers = settings.workers
        self.cache = cache
        self.eval_fn = eval_fn or measure_arch_hyper
        self.retry_policy = retry_policy
        self.divergence_policy = settings.divergence_policy
        self.stats = EvalStats()
        self._sleep = time.sleep  # injectable for fast tests

    @classmethod
    def from_settings(
        cls, settings: Settings, eval_fn: Callable | None = None
    ) -> "ProxyEvaluator":
        """An evaluator with every knob (cache and retries too) from ``settings``."""
        return cls(
            workers=settings.workers,
            cache=EvalCache(settings.eval_cache_dir) if settings.eval_cache else None,
            eval_fn=eval_fn,
            retry_policy=settings.retry_policy(),
            divergence_policy=settings.divergence_policy,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self, arch_hyper: ArchHyper, task: Task, config: ProxyConfig | None = None
    ) -> float:
        """Score one arch-hyper on one task."""
        return self.evaluate_pairs([(arch_hyper, task)], config)[0]

    def evaluate_many(
        self,
        arch_hypers: Sequence[ArchHyper],
        task: Task,
        config: ProxyConfig | None = None,
    ) -> list[float]:
        """Score many arch-hypers on a single task."""
        return self.evaluate_pairs([(ah, task) for ah in arch_hypers], config)

    def evaluate_pairs(
        self,
        pairs: Sequence[tuple[ArchHyper, Task]],
        config: ProxyConfig | None = None,
        progress: EvalProgress | None = None,
    ) -> list[float]:
        """Score arbitrary ``(arch_hyper, task)`` pairs, order-preserving.

        Checkpointed scores (``progress``) and cache hits are filled in
        without touching a backend; the remaining misses run on the serial
        or process-pool backend and are written back to both stores as each
        result lands, so an interrupted batch loses at most the in-flight
        evaluations.
        """
        config = config if config is not None else ProxyConfig()
        start = time.perf_counter()
        need_fingerprint = (
            self.cache is not None
            or progress is not None
            or self.retry_policy is not None
        )
        scores: list[float | None] = [None] * len(pairs)
        jobs: list[_Job] = []
        with span("eval-batch", pairs=len(pairs), workers=self.workers) as batch_span:
            for position, (arch_hyper, task) in enumerate(pairs):
                fingerprint = None
                if need_fingerprint:
                    fingerprint = proxy_fingerprint(arch_hyper, task, config)
                if progress is not None and fingerprint is not None:
                    known = progress.known(fingerprint)
                    if known is not None:
                        scores[position] = known
                        self.stats.resumed += 1
                        continue
                if self.cache is not None and fingerprint is not None:
                    cached = self.cache.get(fingerprint)
                    if cached is not None:
                        scores[position] = cached
                        self.stats.hits += 1
                        if progress is not None:
                            progress.record(fingerprint, cached)
                        continue
                self.stats.misses += 1
                jobs.append((position, fingerprint, arch_hyper, task))
            batch_span.set(evaluated=len(jobs), cached=len(pairs) - len(jobs))
            done = 0

            def on_result(job: _Job, outcome: tuple, attempts: int) -> None:
                nonlocal done
                position, fingerprint, _, _ = job
                score, seconds, diverged, queue_wait, spans, metrics = outcome
                scores[position] = score
                self.stats.record_eval(seconds, queue_wait)
                if diverged:
                    self.stats.divergences += 1
                if self.cache is not None and fingerprint is not None:
                    # Sentinel scores are cached like any other: the fingerprint
                    # fully determines divergence, so re-evaluating is pointless.
                    self.cache.put(fingerprint, score, seconds)
                if progress is not None and fingerprint is not None:
                    progress.record(fingerprint, score)
                # Fold worker-side metric deltas (health monitor, profiling)
                # into this evaluator's registry — and, via its parent link,
                # into the consolidated process-wide snapshot — and graft
                # worker spans onto this batch, stamped with what only the
                # parent knows: the attempt that finally landed and the
                # content-addressed fingerprint.
                root_attrs: dict = {"attempt": attempts}
                if fingerprint is not None:
                    root_attrs["fingerprint"] = fingerprint
                relay(spans, metrics, batch_span.id, root_attrs, self.stats.registry)
                done += 1
                heartbeat(
                    "eval",
                    lambda: (
                        f"evals {done}/{len(jobs)}; "
                        f"{done / max(time.perf_counter() - start, 1e-9):.2f} eval/s "
                        f"this batch; "
                        f"{latency_summary(self.stats.registry.histogram('eval.seconds'))}; "
                        f"cache hit rate {self.stats.hit_rate:.0%}; "
                        f"queue wait {self.stats.queue_wait_seconds:.1f}s"
                    ),
                )

            if jobs:
                try:
                    self._run_backend(jobs, config, on_result)
                finally:
                    # Persist whatever landed before a failure interrupted us.
                    if progress is not None:
                        progress.flush()

            self.stats.batches += 1
            self.stats.batch_seconds += time.perf_counter() - start
        assert all(score is not None for score in scores)
        return [float(score) for score in scores]  # type: ignore[arg-type]

    def evaluate_rungs(
        self,
        pairs: Sequence[tuple[ArchHyper, Task]],
        config: ProxyConfig | None = None,
        schedule=None,
        progress: EvalProgress | None = None,
        warm_dir: str | None = None,
    ):
        """Score pairs through a successive-halving fidelity ladder.

        ``schedule`` is a :class:`~repro.runtime.fidelity.FidelitySchedule`,
        an ``eta:rungs:min-epochs`` spec string, or ``None`` to take
        :attr:`Settings.fidelity_schedule <repro.settings.Settings>` (and
        likewise ``warm_dir``).  With no schedule anywhere the ladder is
        :data:`~repro.runtime.fidelity.FLAT_SCHEDULE`: one full-fidelity rung
        over every pair, the same evaluations as :meth:`evaluate_pairs`.
        Returns a :class:`~repro.runtime.fidelity.FidelityResult`.
        """
        from .fidelity import FLAT_SCHEDULE, FidelityScheduler

        settings = Settings.from_env().override(
            fidelity_schedule=schedule, fidelity_warm_dir=warm_dir
        )
        scheduler = FidelityScheduler(
            settings.fidelity_schedule or FLAT_SCHEDULE,
            warm_dir=settings.fidelity_warm_dir,
        )
        return scheduler.evaluate_pairs(self, pairs, config, progress=progress)

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _payload(self, job: _Job, config: ProxyConfig) -> tuple:
        _, _, arch_hyper, task = job
        return (
            self.eval_fn,
            arch_hyper,
            task,
            config,
            self.divergence_policy,
            CallerModes.current(),
        )

    def _run_backend(
        self,
        jobs: list[_Job],
        config: ProxyConfig,
        on_result: Callable[[_Job, tuple, int], None],
    ) -> None:
        if self.workers <= 1 or len(jobs) <= 1:
            self._run_serial(jobs, config, on_result)
            return
        settled: set[int] = set()
        try:
            self._run_pool(jobs, config, on_result, settled)
        except (BrokenProcessPool, OSError) as exc:
            # The pool died (worker hard-crash, fork failure, resource
            # exhaustion).  Scores are deterministic, so finishing the
            # remaining jobs in-process is always sound — record the
            # degradation and keep going instead of destroying the run.
            remaining = [job for job in jobs if job[0] not in settled]
            self.stats.degradations += 1
            logger.warning(
                "process pool broke (%s: %s); degrading %d remaining "
                "evaluation(s) to the serial backend",
                type(exc).__name__, exc, len(remaining),
            )
            self._run_serial(remaining, config, on_result)

    @staticmethod
    def _outcome(result: tuple, submitted_wall: float) -> tuple:
        """Attach the queue wait (worker start − submission, wall clock) to a
        raw :func:`_timed_eval` result."""
        score, seconds, diverged, started_wall, spans, metrics = result
        queue_wait = max(0.0, started_wall - submitted_wall)
        return (score, seconds, diverged, queue_wait, spans, metrics)

    def _run_serial(
        self,
        jobs: list[_Job],
        config: ProxyConfig,
        on_result: Callable[[_Job, tuple, int], None],
    ) -> None:
        for job in jobs:
            submitted_wall = time.time()
            result, attempts = self._run_one_with_retries(job, config)
            on_result(job, self._outcome(result, submitted_wall), attempts)

    def _run_pool(
        self,
        jobs: list[_Job],
        config: ProxyConfig,
        on_result: Callable[[_Job, tuple, int], None],
        settled: set[int],
    ) -> None:
        policy = self.retry_policy
        timeout = policy.timeout if policy is not None else None
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(jobs)))
        try:
            submitted_wall = []
            futures = []
            for job in jobs:
                submitted_wall.append(time.time())
                futures.append(pool.submit(_timed_eval, self._payload(job, config)))
            for index, (job, future) in enumerate(zip(jobs, futures)):
                attempts = 0
                while True:
                    error: BaseException
                    try:
                        result = future.result(timeout=timeout)
                        break
                    except FutureTimeoutError:
                        self.stats.timeouts += 1
                        future.cancel()
                        error = EvalTimeoutError(
                            f"evaluation exceeded {timeout}s in worker"
                        )
                    except BrokenProcessPool:
                        raise  # degrade in _run_backend
                    except DivergenceError:
                        # Only reaches here under divergence_policy="raise".
                        # Deterministic: a retry would re-diverge identically,
                        # so divergence is exempt from the retry budget.
                        self.stats.divergences += 1
                        raise
                    except Exception as exc:  # a fault raised inside the worker
                        error = exc
                    attempts += 1
                    if policy is None or attempts > policy.max_retries:
                        self.stats.failures += 1
                        raise EvalFailedError(
                            f"evaluation failed after {attempts} attempt(s): {error}",
                            attempts=attempts,
                            last_error=error,
                        ) from error
                    self.stats.retries += 1
                    self._sleep(policy.delay(attempts - 1, job[1]))
                    submitted_wall[index] = time.time()
                    future = pool.submit(_timed_eval, self._payload(job, config))
                on_result(job, self._outcome(result, submitted_wall[index]), attempts + 1)
                settled.add(job[0])
        finally:
            # wait=False: never block on a worker wedged past its timeout.
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Serial attempts with retry / timeout
    # ------------------------------------------------------------------
    def _run_one_with_retries(
        self, job: _Job, config: ProxyConfig
    ) -> tuple[tuple, int]:
        policy = self.retry_policy
        payload = self._payload(job, config)
        attempts = 0
        while True:
            error: BaseException
            try:
                return self._attempt_serial(payload), attempts + 1
            except EvalTimeoutError as exc:
                self.stats.timeouts += 1
                error = exc
            except DivergenceError:
                # divergence_policy="raise": typed, deterministic, retry-exempt.
                self.stats.divergences += 1
                raise
            except Exception as exc:
                error = exc
            attempts += 1
            if policy is None or attempts > policy.max_retries:
                self.stats.failures += 1
                raise EvalFailedError(
                    f"evaluation failed after {attempts} attempt(s): {error}",
                    attempts=attempts,
                    last_error=error,
                ) from error
            self.stats.retries += 1
            self._sleep(policy.delay(attempts - 1, job[1]))

    def _attempt_serial(self, payload: tuple) -> tuple:
        """One in-process attempt, with thread-based timeout enforcement.

        Without a timeout the evaluation runs inline.  With one, it runs in
        a daemon thread that is abandoned on expiry — the attempt is counted
        as timed out and retried; the orphan thread cannot affect scores
        (evaluations are self-contained) but does keep consuming CPU until
        it finishes, which is the usual in-process-timeout trade-off.
        """
        policy = self.retry_policy
        if policy is None or policy.timeout is None:
            return _timed_eval(payload)
        box: dict[str, object] = {}

        def target() -> None:
            try:
                box["result"] = _timed_eval(payload)
            except BaseException as exc:  # ferried to the caller below
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(policy.timeout)
        if thread.is_alive():
            raise EvalTimeoutError(f"evaluation exceeded {policy.timeout}s")
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]
