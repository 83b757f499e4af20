"""The last phase of both searches: fully train the top-K, keep the best.

Zero-shot search (Algorithm 2, phase 3) and AutoCTS+ (stage 4) end the same
way: each of the K ranked candidates is trained at full epochs on the task's
training split, the one with the lowest validation primary metric wins, and
only the winner is scored on the test split.

The K trainings are independent — each builds its own model from its own
seed and reads the shared, already-prepared windows — so they run
concurrently on ``min(K, usable CPUs)`` threads.  numpy releases the GIL
inside its kernels, threads share the prepared :class:`~repro.tasks.task.Task`
without pickling it, and nothing is forked inside a threaded service
process.  Each thread runs under its caller's anomaly, profiling and tracing
modes (:mod:`repro.obs.capture`); its spans and metrics are relayed back
onto the calling thread in candidate order, so the outcome and the telemetry
do not depend on which thread finished first.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.health import DivergenceError
from ..core.model import build_forecaster
from ..core.trainer import TrainConfig, evaluate_forecaster, train_forecaster
from ..metrics import ForecastScores
from ..nn.module import Module
from ..obs.capture import Capture, CallerModes, captured, relay
from ..obs.heartbeat import heartbeat
from ..obs.trace import span
from ..space.archhyper import ArchHyper
from ..tasks.proxy import SENTINEL_SCORE
from ..tasks.task import Task


@dataclass
class FinalSelection:
    """The validation winner, its test scores, and every candidate's val."""

    best: ArchHyper
    test_scores: ForecastScores
    # Per candidate, in candidate order: the validation primary metric, or
    # SENTINEL_SCORE for a candidate that diverged or scored non-finite.
    val_scores: list[float]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _train_candidate(
    task: Task, candidate: ArchHyper, index: int, config: TrainConfig
) -> tuple[Module, float | None]:
    """Train one candidate; its model and finite val primary (else ``None``)."""
    with span("final-candidate", candidate=candidate.key(), index=index) as handle:
        model = build_forecaster(candidate, task.data, task.horizon, seed=config.seed)
        try:
            trained = train_forecaster(
                model, task.prepared.train, task.prepared.val, config
            )
        except DivergenceError:
            handle.set(diverged=True)
            return model, None
        primary = trained.val_scores.primary(single_step=task.single_step)
        handle.set(val=float(primary))
        return model, (float(primary) if np.isfinite(primary) else None)


def _captured_candidate(
    task: Task,
    candidate: ArchHyper,
    index: int,
    config: TrainConfig,
    modes: CallerModes,
) -> tuple[tuple[Module, float | None] | Exception, Capture]:
    """:func:`_train_candidate` on a worker thread, under the caller's modes.

    An error is returned rather than raised, so the caller still relays the
    failed candidate's spans before re-raising it.
    """
    with captured(modes) as capture:
        try:
            outcome = _train_candidate(task, candidate, index, config)
        except Exception as exc:
            outcome = exc
    return outcome, capture


def train_top_k(
    task: Task, candidates: list[ArchHyper], config: TrainConfig
) -> FinalSelection:
    """Fully train ``candidates`` concurrently; keep the best on validation.

    The winner is the first candidate, in candidate order, with the strictly
    lowest finite validation primary.  A candidate that diverges (or lands on
    a non-finite validation score) records :data:`SENTINEL_SCORE` and is out
    of contention; if every candidate does, a
    :class:`~repro.core.health.DivergenceError` is raised.
    """
    prepared = task.prepared  # build the shared windows before the threads start
    modes = CallerModes.current()
    threads = max(1, min(len(candidates), usable_cpus()))
    val_scores: list[float] = []
    best: tuple[ArchHyper, Module, float] | None = None
    with ThreadPoolExecutor(threads, thread_name_prefix="final-train") as pool:
        futures = [
            pool.submit(_captured_candidate, task, candidate, index, config, modes)
            for index, candidate in enumerate(candidates)
        ]
        for index, (candidate, future) in enumerate(zip(candidates, futures)):
            outcome, capture = future.result()
            relay(capture.spans, capture.metrics)
            if isinstance(outcome, Exception):
                for pending in futures:
                    pending.cancel()
                raise outcome
            model, val = outcome
            val_scores.append(SENTINEL_SCORE if val is None else val)
            if val is not None and (best is None or val < best[2]):
                best = (candidate, model, val)
            heartbeat(
                "final-train",
                lambda: (
                    f"final training {index + 1}/{len(candidates)} candidates; "
                    "best val " + (f"{best[2]:.4f}" if best is not None else "n/a")
                ),
            )
    if best is None:
        raise DivergenceError(
            f"all {len(candidates)} final candidates diverged on task "
            f"{task.name!r}"
        )
    test = evaluate_forecaster(
        best[1], prepared.test, config.batch_size, inverse=prepared.inverse
    )
    return FinalSelection(best=best[0], test_scores=test, val_scores=val_scores)
