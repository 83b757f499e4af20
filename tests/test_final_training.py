"""Concurrent final training of the top-K (``repro.search.final_training``).

Both searches end by fully training their K candidates and keeping the
validation winner.  The candidates train on worker threads; these tests pin
the outcome to the serial loop the threads replaced, and check that the
threads overlap and run under their caller's modes and spans.
"""

import itertools
import math
import threading
import time

import numpy as np
import pytest

from repro.autodiff.anomaly import anomaly_enabled, detect_anomaly
from repro.core.health import DivergenceError
from repro.core.model import build_forecaster
from repro.core.trainer import TrainConfig, evaluate_forecaster
from repro.obs import metrics_scope, profile
from repro.obs.profile import profiling_enabled
from repro.obs.trace import Tracer, correlation_scope, span, tracer_scope
from repro.search import (
    AutoCTSPlusConfig,
    AutoCTSPlusSearch,
    ZeroShotConfig,
    ZeroShotSearch,
    final_training,
)
from repro.search.final_training import train_top_k
from repro.tasks import SENTINEL_SCORE
from tests.test_divergence import _candidates, _toy_task

CONFIG = TrainConfig(epochs=2, batch_size=32, patience=3, seed=0)


def serial_reference(task, candidates, config):
    """The serial keep-best-on-validation loop that the threads replaced."""
    prepared = task.prepared
    best_val = math.inf
    best = None
    val_scores = []
    for candidate in candidates:
        model = build_forecaster(candidate, task.data, task.horizon, seed=config.seed)
        try:
            trained = final_training.train_forecaster(
                model, prepared.train, prepared.val, config
            )
        except DivergenceError:
            val_scores.append(SENTINEL_SCORE)
            continue
        val = trained.val_scores.primary(single_step=task.single_step)
        if not np.isfinite(val):
            val_scores.append(SENTINEL_SCORE)
            continue
        val_scores.append(val)
        if val < best_val:
            best_val = val
            test = evaluate_forecaster(
                model, prepared.test, config.batch_size, inverse=prepared.inverse
            )
            best = (candidate, test)
    if best is None:
        raise DivergenceError("all final candidates diverged")
    return best[0], best[1], val_scores


def _diverging_for(monkeypatch, keys):
    """Make training diverge for the candidates whose key is in ``keys``."""
    original = final_training.train_forecaster

    def train(model, *args, **kwargs):
        if model.arch_hyper.key() in keys:
            raise DivergenceError("injected divergence")
        return original(model, *args, **kwargs)

    monkeypatch.setattr(final_training, "train_forecaster", train)


class TestMatchesSerialLoop:
    def test_one_diverging_candidate(self, monkeypatch):
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 2)
        task = _toy_task()
        candidates = _candidates(3)
        _diverging_for(monkeypatch, {candidates[1].key()})
        best, test, val_scores = serial_reference(task, candidates, CONFIG)
        selection = train_top_k(task, candidates, CONFIG)
        assert selection.best.key() == best.key()
        assert selection.test_scores == test
        assert selection.val_scores == val_scores
        assert selection.val_scores[1] == SENTINEL_SCORE
        assert all(v != SENTINEL_SCORE for i, v in enumerate(val_scores) if i != 1)

    def test_every_candidate_diverging_raises(self, monkeypatch):
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 2)
        task = _toy_task()
        candidates = _candidates(2)
        _diverging_for(monkeypatch, {c.key() for c in candidates})
        with pytest.raises(DivergenceError):
            serial_reference(task, candidates, CONFIG)
        with pytest.raises(DivergenceError, match="all 2 final candidates diverged"):
            train_top_k(task, candidates, CONFIG)

    def test_one_thread_gives_the_same_selection(self, monkeypatch):
        task = _toy_task()
        candidates = _candidates(3)
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 1)
        serial = train_top_k(task, candidates, CONFIG)
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 3)
        threaded = train_top_k(task, candidates, CONFIG)
        assert threaded == serial


class TestWorkerThreads:
    @staticmethod
    def _recording(monkeypatch, seen):
        original = final_training.train_forecaster

        def train(model, *args, **kwargs):
            start = time.perf_counter()
            time.sleep(0.2)  # makes an overlap certain on any machine
            result = original(model, *args, **kwargs)
            seen.append(
                {
                    "thread": threading.current_thread().name,
                    "start": start,
                    "end": time.perf_counter(),
                    "anomaly": anomaly_enabled(),
                    "profiling": profiling_enabled(),
                }
            )
            return result

        monkeypatch.setattr(final_training, "train_forecaster", train)

    def test_two_trainings_overlap_when_two_cpus_are_usable(self, monkeypatch):
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 2)
        seen = []
        self._recording(monkeypatch, seen)
        train_top_k(_toy_task(), _candidates(2), CONFIG)
        assert len(seen) == 2
        main = threading.current_thread().name
        assert len({s["thread"] for s in seen}) == 2
        assert main not in {s["thread"] for s in seen}
        assert any(
            a["start"] < b["end"] and b["start"] < a["end"]
            for a, b in itertools.combinations(seen, 2)
        )

    def test_threads_inherit_anomaly_and_profiling_modes(self, monkeypatch):
        monkeypatch.setattr(final_training, "usable_cpus", lambda: 2)
        seen = []
        self._recording(monkeypatch, seen)
        with metrics_scope() as registry, detect_anomaly(), profile():
            train_top_k(_toy_task(), _candidates(2), CONFIG)
        assert [(s["anomaly"], s["profiling"]) for s in seen] == [(True, True)] * 2
        # The threads' profiling counters reach the caller's registry.
        snap = registry.snapshot()
        assert snap["profile.ops.matmul.backward"]["value"] > 0
        with detect_anomaly(False), profile(False):
            seen.clear()
            train_top_k(_toy_task(), _candidates(2), CONFIG)
        assert [(s["anomaly"], s["profiling"]) for s in seen] == [(False, False)] * 2


class TestSpans:
    @staticmethod
    def _traced(run, outer_name):
        records = []
        with tracer_scope(Tracer(records.append)), correlation_scope("job-7"):
            with span(outer_name) as outer:
                run()
        by_id = {r["id"]: r for r in records}
        return records, by_id, outer.id

    def _assert_nested(self, records, by_id, parent_id, candidates):
        finals = [r for r in records if r["name"] == "final-candidate"]
        assert [r["attrs"]["index"] for r in finals] == list(range(candidates))
        assert {r["parent"] for r in finals} == {parent_id}
        trainings = [r for r in records if r["name"] == "train-forecaster"]
        assert len(trainings) == candidates
        assert {by_id[r["parent"]]["name"] for r in trainings} == {"final-candidate"}
        assert {r.get("corr") for r in records} == {"job-7"}

    def test_zero_shot_spans_nest_under_training(self):
        search = ZeroShotSearch(
            None, None, config=ZeroShotConfig(final_train_epochs=2, batch_size=32)
        )
        task, candidates = _toy_task(), _candidates(2)
        records, by_id, outer = self._traced(
            lambda: search.train_final(task, candidates), "training"
        )
        self._assert_nested(records, by_id, outer, 2)

    def test_autocts_plus_spans_nest_under_final_train(self):
        search = AutoCTSPlusSearch(
            config=AutoCTSPlusConfig(final_train_epochs=2, batch_size=32)
        )
        task, candidates = _toy_task(), _candidates(2)
        records, by_id, outer = self._traced(
            lambda: search.train_final(task, candidates), "search"
        )
        (final_train,) = [r for r in records if r["name"] == "final-train"]
        assert final_train["parent"] == outer
        self._assert_nested(records, by_id, final_train["id"], 2)
