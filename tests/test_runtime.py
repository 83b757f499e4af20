"""Tests for the runtime layer: ProxyEvaluator backends and the score cache."""

import functools
import itertools
import json
import os
import tempfile
import time

import numpy as np
import pytest

from repro.data import CTSData
from repro.runtime import (
    EvalCache,
    ProxyEvaluator,
    get_default_evaluator,
    proxy_fingerprint,
    set_default_evaluator,
)
from repro.runtime.cache import CACHE_FORMAT_VERSION
from repro.settings import Settings
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import ProxyConfig, Task

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)


def _toy_task(t=200, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adj = np.ones((4, 4), dtype=np.float32)
    return Task(CTSData(name, values, adj, "test"), p=6, q=3)


def _candidates(count, seed=0):
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    return space.sample_batch(count, np.random.default_rng(seed))


def cheap_eval(arch_hyper, task, config):
    """A deterministic, instant eval function (module-level: picklable)."""
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def sleeping_eval(log_dir, arch_hyper, task, config):
    """Sleeps like a short training run and logs ``[pid, start, end]`` to a
    fresh file in ``log_dir`` (bind it with ``functools.partial``)."""
    start = time.time()
    time.sleep(0.3)
    end = time.time()
    fd, _ = tempfile.mkstemp(dir=log_dir, suffix=".json")
    with os.fdopen(fd, "w") as handle:
        json.dump([os.getpid(), start, end], handle)
    return cheap_eval(arch_hyper, task, config)


class TestFingerprint:
    def test_stable_across_calls(self):
        (ah,) = _candidates(1)
        task = _toy_task()
        config = ProxyConfig(epochs=1)
        assert proxy_fingerprint(ah, task, config) == proxy_fingerprint(
            ah, task, config
        )

    def test_sensitive_to_proxy_config(self):
        (ah,) = _candidates(1)
        task = _toy_task()
        assert proxy_fingerprint(ah, task, ProxyConfig(epochs=1)) != proxy_fingerprint(
            ah, task, ProxyConfig(epochs=2)
        )

    def test_sensitive_to_task_data(self):
        (ah,) = _candidates(1)
        config = ProxyConfig(epochs=1)
        assert proxy_fingerprint(ah, _toy_task(seed=0), config) != proxy_fingerprint(
            ah, _toy_task(seed=1), config
        )

    def test_sensitive_to_arch_hyper(self):
        a, b = _candidates(2)
        task = _toy_task()
        config = ProxyConfig(epochs=1)
        assert proxy_fingerprint(a, task, config) != proxy_fingerprint(
            b, task, config
        )


class TestEvalCache:
    def test_roundtrip_is_bitwise(self, tmp_path):
        cache = EvalCache(tmp_path)
        score = 0.1 + 0.2  # a float that doesn't render prettily
        cache.put("ab" + "0" * 62, score)
        assert cache.get("ab" + "0" * 62) == score

    def test_miss_on_absent(self, tmp_path):
        assert EvalCache(tmp_path).get("cd" + "0" * 62) is None

    def test_truncated_entry_discarded(self, tmp_path):
        cache = EvalCache(tmp_path)
        fp = "ef" + "0" * 62
        cache.put(fp, 1.5)
        path = cache.path_for(fp)
        path.write_text(path.read_text()[:10])  # truncate mid-JSON
        assert cache.get(fp) is None
        assert not path.exists()  # bad file removed, not left to fail again

    def test_wrong_version_discarded(self, tmp_path):
        cache = EvalCache(tmp_path)
        fp = "01" + "0" * 62
        path = cache.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": CACHE_FORMAT_VERSION + 1, "score": 2.0}))
        assert cache.get(fp) is None
        assert not path.exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = EvalCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, float(i))
        assert len(cache) == 5
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_clear(self, tmp_path):
        cache = EvalCache(tmp_path)
        cache.put("aa" + "0" * 62, 1.0)
        cache.put("bb" + "0" * 62, 2.0)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestProxyEvaluator:
    def test_serial_matches_direct_measure(self):
        from repro.tasks import measure_arch_hyper

        task = _toy_task()
        candidates = _candidates(2)
        config = ProxyConfig(epochs=1, batch_size=32)
        evaluator = ProxyEvaluator(workers=1, cache=None)
        scores = evaluator.evaluate_many(candidates, task, config)
        direct = [measure_arch_hyper(ah, task, config) for ah in candidates]
        assert scores == direct

    def test_parallel_bitwise_identical_to_serial_real_proxy(self):
        task = _toy_task()
        candidates = _candidates(2)
        config = ProxyConfig(epochs=1, batch_size=32)
        serial = ProxyEvaluator(workers=1, cache=None)
        parallel = ProxyEvaluator(workers=2, cache=None)
        assert serial.evaluate_many(candidates, task, config) == parallel.evaluate_many(
            candidates, task, config
        )

    def test_parallel_bitwise_identical_to_serial_synthetic(self):
        task = _toy_task()
        candidates = _candidates(6)
        serial = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        parallel = ProxyEvaluator(workers=3, cache=None, eval_fn=cheap_eval)
        assert serial.evaluate_many(candidates, task) == parallel.evaluate_many(
            candidates, task
        )

    def test_order_preserved_with_mixed_hits(self, tmp_path):
        task = _toy_task()
        candidates = _candidates(4)
        cache = EvalCache(tmp_path)
        warm = ProxyEvaluator(workers=1, cache=cache, eval_fn=cheap_eval)
        # Warm only half the pool, then score everything: positions must align.
        warm.evaluate_many(candidates[::2], task)
        full = ProxyEvaluator(workers=1, cache=cache, eval_fn=cheap_eval)
        scores = full.evaluate_many(candidates, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert scores == reference.evaluate_many(candidates, task)
        assert full.stats.hits == 2
        assert full.stats.misses == 2

    def test_cache_hit_miss_counters(self, tmp_path):
        task = _toy_task()
        candidates = _candidates(3)
        evaluator = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path), eval_fn=cheap_eval
        )
        first = evaluator.evaluate_many(candidates, task)
        assert evaluator.stats.misses == 3
        assert evaluator.stats.hits == 0
        second = evaluator.evaluate_many(candidates, task)
        assert second == first  # warm rerun, bitwise
        assert evaluator.stats.hits == 3
        assert evaluator.stats.misses == 3  # unchanged: no fresh evals
        assert evaluator.stats.evaluations == 3

    def test_cache_invalidated_on_config_change(self, tmp_path):
        task = _toy_task()
        candidates = _candidates(2)
        evaluator = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path), eval_fn=cheap_eval
        )
        evaluator.evaluate_many(candidates, task, ProxyConfig(epochs=1))
        evaluator.evaluate_many(candidates, task, ProxyConfig(epochs=2))
        assert evaluator.stats.hits == 0
        assert evaluator.stats.misses == 4

    def test_recovers_from_truncated_cache_entry(self, tmp_path):
        task = _toy_task()
        (ah,) = _candidates(1)
        cache = EvalCache(tmp_path)
        evaluator = ProxyEvaluator(workers=1, cache=cache, eval_fn=cheap_eval)
        expected = evaluator.evaluate(ah, task)
        path = cache.path_for(proxy_fingerprint(ah, task, ProxyConfig()))
        path.write_bytes(path.read_bytes()[:7])  # deliberately truncate
        again = ProxyEvaluator(workers=1, cache=cache, eval_fn=cheap_eval)
        assert again.evaluate(ah, task) == expected  # recomputed, not crashed
        assert again.stats.misses == 1
        # The recompute repaired the cache entry.
        third = ProxyEvaluator(workers=1, cache=cache, eval_fn=cheap_eval)
        assert third.evaluate(ah, task) == expected
        assert third.stats.hits == 1

    def test_stats_report_mentions_counts(self, tmp_path):
        task = _toy_task()
        evaluator = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path), eval_fn=cheap_eval
        )
        evaluator.evaluate_many(_candidates(2), task)
        report = evaluator.stats.report()
        assert "2 fresh" in report
        assert "hit rate" in report


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert Settings.from_env().override(workers=4).workers == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert Settings.from_env().workers == 3
        assert ProxyEvaluator(cache=None).workers == 3

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert Settings.from_env().workers == 1

    def test_floor_of_one(self):
        assert Settings().override(workers=0).workers == 1
        assert Settings().override(workers=-2).workers == 1
        assert Settings.from_env({"REPRO_WORKERS": "0"}).workers == 1


class TestDefaultEvaluator:
    def teardown_method(self):
        set_default_evaluator(None)

    def test_configure_installs_default(self, tmp_path):
        settings = Settings.from_env().override(
            workers=2, eval_cache=True, eval_cache_dir=tmp_path
        )
        evaluator = ProxyEvaluator.from_settings(settings)
        set_default_evaluator(evaluator)
        assert get_default_evaluator() is evaluator
        assert evaluator.workers == 2
        assert evaluator.cache is not None

    def test_cache_can_be_disabled(self):
        settings = Settings.from_env().override(eval_cache=False)
        assert ProxyEvaluator.from_settings(settings).cache is None

    def test_lazy_default_exists(self):
        set_default_evaluator(None)
        assert get_default_evaluator() is get_default_evaluator()


class TestCallSiteWiring:
    """The proxy call sites route through an injected evaluator."""

    def test_collect_task_samples_uses_evaluator(self):
        from repro.comparator import PretrainConfig, collect_task_samples
        from repro.embedding import MLPEmbedder

        tasks = [_toy_task(seed=0, name="a"), _toy_task(seed=1, name="b")]
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        embedder = MLPEmbedder(input_dim=1, output_dim=8)
        config = PretrainConfig(shared_samples=2, random_samples=1)
        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        sets = collect_task_samples(
            tasks, space, embedder, config, evaluator=evaluator
        )
        # 2 tasks x (2 shared + 1 random) = 6 evaluations, scores aligned.
        assert evaluator.stats.misses == 6
        assert [len(s.scores) for s in sets] == [3, 3]
        assert all(s.shared_count == 2 for s in sets)
        # Shared arch-hypers are identical across tasks.
        assert [ah.key() for ah in sets[0].arch_hypers[:2]] == [
            ah.key() for ah in sets[1].arch_hypers[:2]
        ]


class TestCrossBackendDeterminism:
    """Property: backend choice and caching never change a score's bits."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 4),
        use_cache=st.booleans(),
    )
    @settings(max_examples=5, deadline=None)
    def test_serial_pool_and_cache_agree_bitwise(
        self, tmp_path_factory, seed, count, use_cache
    ):
        task = _toy_task(seed=seed % 7)
        candidates = _candidates(count, seed=seed)
        pairs = [(ah, task) for ah in candidates]

        serial = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        expected = serial.evaluate_pairs(pairs)

        cache = None
        if use_cache:
            cache = EvalCache(tmp_path_factory.mktemp("xbackend") / "cache")
        pooled = ProxyEvaluator(workers=2, cache=cache, eval_fn=cheap_eval)
        assert pooled.evaluate_pairs(pairs) == expected
        if use_cache:
            # Second pass answers from cache — still bitwise identical.
            rerun = ProxyEvaluator(workers=2, cache=cache, eval_fn=cheap_eval)
            assert rerun.evaluate_pairs(pairs) == expected
            assert rerun.stats.hits == len(pairs)


class TestPoolConcurrency:
    """``workers=N`` runs evaluations at the same time in worker processes,
    not one after another."""

    def test_evaluations_overlap_in_two_workers(self, tmp_path):
        candidates = _candidates(4)
        evaluator = ProxyEvaluator(
            workers=2, cache=None,
            eval_fn=functools.partial(sleeping_eval, str(tmp_path)),
        )
        evaluator.evaluate_many(candidates, _toy_task())
        assert evaluator.stats.degradations == 0

        intervals = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert len(intervals) == len(candidates)
        pids = {pid for pid, _, _ in intervals}
        assert len(pids) == 2 and os.getpid() not in pids
        assert any(
            a_start < b_end and b_start < a_end
            for (_, a_start, a_end), (_, b_start, b_end)
            in itertools.combinations(intervals, 2)
        )


class TestNoSharedMutableDefaults:
    """Regression: ``config: ProxyConfig = ProxyConfig()`` in a signature is a
    single shared instance born at import time; every signature must use the
    ``None`` sentinel instead and resolve a fresh config per call."""

    def test_signatures_use_none_sentinel(self):
        import inspect

        from repro.tasks import full_train_score, measure_arch_hyper

        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        callables = [
            evaluator.evaluate,
            evaluator.evaluate_many,
            evaluator.evaluate_pairs,
            measure_arch_hyper,
            full_train_score,
        ]
        for fn in callables:
            default = inspect.signature(fn).parameters["config"].default
            assert default is None, f"{fn.__qualname__} shares a default config"

    def test_each_call_resolves_a_fresh_config(self):
        seen = []

        def capture_eval(arch_hyper, task, config):
            seen.append(config)
            return 1.0

        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=capture_eval)
        evaluator.evaluate(ah, task)
        evaluator.evaluate(ah, task)
        assert len(seen) == 2
        assert all(isinstance(c, ProxyConfig) for c in seen)
        assert seen[0] is not seen[1]
