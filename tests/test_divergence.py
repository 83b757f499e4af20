"""End-to-end divergence handling: sentinel scores, poison-proof labels,
data validation, and search-loop behavior under diverged candidates."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import autodiff as ad
from repro.autodiff import Tensor
from repro.comparator import (
    diverged_mask,
    dynamic_pairs,
    has_comparable_pair,
    make_label,
    pair_index_arrays,
)
from repro.core.health import DivergenceError
from repro.data import CTSData, NonFiniteDataError, non_finite_report, sanitize_values
from repro.data.transforms import impute_non_finite
from repro.nn.loss import bce_with_logits
from repro.runtime import ProxyEvaluator, RetryPolicy
from repro.settings import Settings
from repro.search import EvolutionConfig, EvolutionarySearch
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import ProxyConfig, SENTINEL_SCORE, Task, is_sentinel_score

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


def always_diverges(arch_hyper, task, config):
    """Module-level (picklable) eval fn that always diverges."""
    raise DivergenceError("injected divergence")


def sometimes_diverges(arch_hyper, task, config):
    """Deterministically diverge for about half the arch-hypers.

    Keyed on the arch-hyper alone, not on its proxy fingerprint, so which
    candidates diverge does not move when ``CACHE_KEY_VERSION`` is bumped.
    """
    digest = hashlib.sha256(arch_hyper.key().encode()).hexdigest()
    value = int(digest[:8], 16) / 0xFFFFFFFF
    if value < 0.5:
        raise DivergenceError(f"injected divergence ({value:.3f})")
    return value


class TestDivergencePolicy:
    def test_default_is_sentinel(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIVERGENCE_POLICY", raising=False)
        assert Settings.from_env().divergence_policy == "sentinel"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIVERGENCE_POLICY", "raise")
        assert Settings.from_env().divergence_policy == "raise"
        assert ProxyEvaluator(cache=None).divergence_policy == "raise"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIVERGENCE_POLICY", "raise")
        explicit = Settings.from_env().override(divergence_policy="sentinel")
        assert explicit.divergence_policy == "sentinel"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Settings().override(divergence_policy="explode")


class TestSentinelScore:
    def test_sentinel_is_finite_and_stable(self):
        assert np.isfinite(SENTINEL_SCORE)
        assert SENTINEL_SCORE == float(np.finfo(np.float32).max)

    def test_is_sentinel_score(self):
        assert is_sentinel_score(SENTINEL_SCORE)
        assert is_sentinel_score(float("inf"))
        assert is_sentinel_score(float("nan"))
        assert not is_sentinel_score(0.5)

    def test_sentinel_loses_every_comparison(self):
        assert make_label(0.99, SENTINEL_SCORE) == 1.0
        assert make_label(SENTINEL_SCORE, 0.99) == 0.0


class TestEvaluatorSentinel:
    def test_serial_divergence_becomes_sentinel(self):
        evaluator = ProxyEvaluator(workers=1, eval_fn=always_diverges)
        task = _toy_task()
        scores = evaluator.evaluate_many(_candidates(3), task, ProxyConfig(epochs=1))
        assert scores == [SENTINEL_SCORE] * 3
        assert evaluator.stats.divergences == 3
        assert "diverged" in evaluator.stats.report()

    def test_divergence_is_retry_exempt_under_sentinel(self):
        evaluator = ProxyEvaluator(
            workers=1,
            eval_fn=always_diverges,
            retry_policy=RetryPolicy(max_retries=3, backoff_base=0.0),
        )
        evaluator._sleep = lambda _: None
        scores = evaluator.evaluate_many(
            _candidates(2), _toy_task(), ProxyConfig(epochs=1)
        )
        assert scores == [SENTINEL_SCORE] * 2
        assert evaluator.stats.retries == 0
        assert evaluator.stats.failures == 0

    def test_raise_policy_propagates_without_retry(self):
        evaluator = ProxyEvaluator(
            workers=1,
            eval_fn=always_diverges,
            retry_policy=RetryPolicy(max_retries=3, backoff_base=0.0),
            divergence_policy="raise",
        )
        evaluator._sleep = lambda _: None
        with pytest.raises(DivergenceError):
            evaluator.evaluate_many(_candidates(1), _toy_task(), ProxyConfig(epochs=1))
        assert evaluator.stats.retries == 0
        assert evaluator.stats.divergences == 1

    def test_serial_and_pool_bitwise_identical(self):
        task = _toy_task()
        candidates = _candidates(4)
        config = ProxyConfig(epochs=1)
        serial = ProxyEvaluator(workers=1, eval_fn=sometimes_diverges)
        pool = ProxyEvaluator(workers=2, eval_fn=sometimes_diverges)
        scores_serial = serial.evaluate_many(candidates, task, config)
        scores_pool = pool.evaluate_many(candidates, task, config)
        assert scores_serial == scores_pool  # bitwise: float equality
        assert serial.stats.divergences == pool.stats.divergences
        assert any(is_sentinel_score(s) for s in scores_serial)
        assert any(not is_sentinel_score(s) for s in scores_serial)

    def test_pool_raise_policy_crosses_process_boundary(self):
        evaluator = ProxyEvaluator(
            workers=2, eval_fn=always_diverges, divergence_policy="raise"
        )
        with pytest.raises(DivergenceError):
            evaluator.evaluate_many(_candidates(2), _toy_task(), ProxyConfig(epochs=1))
        assert evaluator.stats.divergences >= 1

    def test_sentinel_is_cacheable(self, tmp_path):
        from repro.runtime import EvalCache

        evaluator = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path), eval_fn=always_diverges
        )
        task = _toy_task()
        (ah,) = _candidates(1)
        config = ProxyConfig(epochs=1)
        first = evaluator.evaluate(ah, task, config)
        second = evaluator.evaluate(ah, task, config)
        assert first == second == SENTINEL_SCORE
        assert evaluator.stats.hits == 1  # second call never re-evaluated
        assert evaluator.stats.divergences == 1


class TestEndToEndDivergence:
    """The acceptance scenario: a pathological lr=1e3 candidate."""

    CONFIG = ProxyConfig(epochs=10, lr=1e3)

    def test_lr_1e3_candidate_yields_sentinel(self):
        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(workers=1)
        score = evaluator.evaluate(ah, task, self.CONFIG)
        assert score == SENTINEL_SCORE
        assert evaluator.stats.divergences == 1

    def test_lr_1e3_serial_pool_identical(self):
        task = _toy_task()
        candidates = _candidates(2)
        serial = ProxyEvaluator(workers=1)
        pool = ProxyEvaluator(workers=2)
        scores_serial = serial.evaluate_many(candidates, task, self.CONFIG)
        scores_pool = pool.evaluate_many(candidates, task, self.CONFIG)
        assert scores_serial == scores_pool
        assert serial.stats.divergences == pool.stats.divergences

    def test_lr_1e3_labels_stay_finite(self):
        """Sentinel scores mixed with real ones yield only finite 0/1 labels."""
        task = _toy_task()
        (bad,) = _candidates(1)
        (good,) = _candidates(1, seed=7)
        evaluator = ProxyEvaluator(workers=1)
        bad_score = evaluator.evaluate(bad, task, self.CONFIG)
        good_score = evaluator.evaluate(good, task, ProxyConfig(epochs=1))
        scores = np.array([good_score, bad_score])
        pairs = dynamic_pairs(scores, np.random.default_rng(0), 8)
        _, _, labels = pair_index_arrays(pairs)
        assert np.isfinite(labels).all()
        assert set(np.unique(labels)) <= {0.0, 1.0}
        # The diverged candidate loses every comparison it appears in.
        for pair in pairs:
            winner = pair.index_a if pair.label == 1.0 else pair.index_b
            assert winner == 0


class TestDivergenceAwarePairing:
    def test_diverged_mask(self):
        mask = diverged_mask(np.array([0.1, SENTINEL_SCORE, 0.2]))
        assert mask.tolist() == [False, True, False]

    def test_has_comparable_pair(self):
        assert has_comparable_pair(np.array([0.1, SENTINEL_SCORE]))
        assert has_comparable_pair(np.array([0.1, 0.2]))
        assert not has_comparable_pair(np.array([SENTINEL_SCORE, SENTINEL_SCORE]))
        assert not has_comparable_pair(np.array([0.1]))

    def test_no_pair_of_two_diverged(self):
        scores = np.array([0.5, SENTINEL_SCORE, SENTINEL_SCORE, SENTINEL_SCORE])
        pairs = dynamic_pairs(scores, np.random.default_rng(0), 50)
        assert len(pairs) == 50
        for pair in pairs:
            assert not (pair.index_a != 0 and pair.index_b != 0)
            assert np.isfinite(pair.label)

    def test_all_diverged_pool_rejected(self):
        scores = np.full(4, SENTINEL_SCORE)
        with pytest.raises(ValueError, match="diverged"):
            dynamic_pairs(scores, np.random.default_rng(0), 4)

    def test_clean_pool_rng_stream_unchanged(self):
        """Without divergence the draws must match the historical algorithm
        exactly, so existing seeded runs stay bitwise-identical."""
        scores = np.random.default_rng(3).random(6)
        rng_new = np.random.default_rng(42)
        pairs = dynamic_pairs(scores, rng_new, 10)
        rng_old = np.random.default_rng(42)
        count = len(scores)
        for pair in pairs:
            i = int(rng_old.integers(count))
            j = int(rng_old.integers(count - 1))
            if j >= i:
                j += 1
            assert (pair.index_a, pair.index_b) == (i, j)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestSearchLoops:
    def test_evolutionary_rank_survives_nan_wins(self):
        space = JointSearchSpace(hyper_space=TINY_HYPER)

        def compare(candidates):
            n = len(candidates)
            wins = np.ones((n, n)) * 0.5
            wins[0, :] = np.nan  # a poisoned comparator row
            return wins

        search = EvolutionarySearch(
            space,
            compare,
            EvolutionConfig(
                initial_samples=4, population_size=2, generations=1,
                offspring_per_generation=2, top_k=2,
            ),
            seed=0,
        )
        result = search.run()
        assert len(result.top_candidates) == 2


class TestDataValidation:
    def _values(self):
        return np.zeros((3, 5, 1), dtype=np.float32)

    def test_clean_data_passes(self):
        CTSData("ok", self._values(), np.ones((3, 3), dtype=np.float32), "test")

    def test_nan_values_rejected_with_report(self):
        values = self._values()
        values[1, 2, 0] = np.nan
        values[2, 4, 0] = np.inf
        with pytest.raises(NonFiniteDataError) as info:
            CTSData("corrupt", values, np.ones((3, 3), dtype=np.float32), "test")
        err = info.value
        assert err.report.bad_count == 2
        assert err.report.sensors == (1, 2)
        assert err.report.timesteps == (2, 4)
        assert "sensors" in str(err)

    def test_non_finite_adjacency_rejected(self):
        adj = np.ones((3, 3), dtype=np.float32)
        adj[0, 1] = np.nan
        with pytest.raises(NonFiniteDataError, match="adjacency"):
            CTSData("corrupt", self._values(), adj, "test")

    def test_non_finite_report_clean_is_none(self):
        assert non_finite_report(self._values()) is None

    def test_sanitize_values_raise(self):
        values = self._values()
        values[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteDataError):
            sanitize_values(values, "bad")

    def test_sanitize_values_impute(self):
        values = self._values()
        values[:, :, 0] = 2.0
        values[1, 3, 0] = np.nan
        clean, report = sanitize_values(values, "fixable", on_non_finite="impute")
        assert report is not None and report.bad_count == 1
        assert clean[1, 3, 0] == 2.0  # series mean of the finite timesteps
        # The repaired array constructs a valid dataset.
        CTSData("fixed", clean, np.ones((3, 3), dtype=np.float32), "test")

    def test_sanitize_clean_passthrough(self):
        values = self._values()
        clean, report = sanitize_values(values, "ok")
        assert clean is values
        assert report is None

    def test_impute_uses_per_series_mean(self):
        values = np.array(
            [[[1.0], [np.nan], [3.0]], [[10.0], [20.0], [np.inf]]], dtype=np.float64
        )
        clean = impute_non_finite(values)
        assert clean[0, 1, 0] == 2.0  # mean of 1 and 3
        assert clean[1, 2, 0] == 15.0  # mean of 10 and 20
        assert np.isfinite(clean).all()

    def test_impute_all_bad_slice_falls_back_to_zero(self):
        values = np.full((1, 3, 1), np.nan)
        clean = impute_non_finite(values)
        np.testing.assert_array_equal(clean, np.zeros((1, 3, 1)))

    def test_impute_clean_passthrough_identity(self):
        values = np.arange(6.0).reshape(1, 3, 2)
        assert impute_non_finite(values) is values


# Drawn as float64 then cast: every value is finite in float32 (max ~3.4e38).
extreme_float32 = st.floats(
    min_value=-3.0e38, max_value=3.0e38, allow_nan=False, allow_infinity=False
)


class TestGuardedOpsAtExtremes:
    """Property tests: guarded ops stay finite on float32-extreme inputs."""

    @given(st.lists(extreme_float32, min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_softmax_finite_and_normalized(self, values):
        x = np.array(values, dtype=np.float32)
        out = ad.softmax(Tensor(x), axis=-1).data
        assert np.isfinite(out).all()
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-3)

    @given(st.lists(extreme_float32, min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_log_softmax_never_nan(self, values):
        x = np.array(values, dtype=np.float32)
        out = ad.log_softmax(Tensor(x), axis=-1).data
        assert not np.isnan(out).any()
        assert (out <= 1e-6).all()  # log-probabilities are non-positive

    @given(st.lists(extreme_float32, min_size=1, max_size=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bce_with_logits_finite_at_extreme_logits(self, values, data):
        logits = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        labels = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 1.0]),
                    min_size=len(values), max_size=len(values),
                )
            )
        )
        loss = bce_with_logits(logits, labels)
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()

    @given(st.lists(extreme_float32, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_softmax_backward_finite(self, values):
        t = Tensor(np.array(values, dtype=np.float32), requires_grad=True)
        ad.softmax(t, axis=-1).sum().backward()
        assert np.isfinite(t.grad).all()
