"""Encode-once RankingEngine suite: bitwise equivalence with the legacy
O(N²)-encoder path, exact encoder-forward counts, cross-generation caching,
mode restoration, and checkpoint/resume through the refactored rank stage."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.comparator import AHC, TAHC, RankingEngine, sanitize_win_matrix
from repro.comparator.ahc import pairwise_win_matrix
from repro.runtime import Checkpoint
from repro.search import EvolutionConfig, EvolutionarySearch
from repro.space import HyperSpace, JointSearchSpace, encode_batch

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8, 12), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)
SPACE = JointSearchSpace()


def _candidates(count, seed=0):
    return SPACE.sample_batch(count, np.random.default_rng(seed))


def _ahc(seed=0):
    return AHC(embed_dim=16, gin_layers=2, hidden_dim=16, seed=seed)


def _tahc(seed=0):
    return TAHC(embed_dim=16, gin_layers=2, hidden_dim=16,
                preliminary_dim=8, task_embed_dim=8, seed=seed)


def _preliminary(seed=0):
    return np.random.default_rng(seed).standard_normal((4, 10, 8)).astype(np.float32)


def _legacy_ahc_wins(model, candidates, batch_size=256):
    """The pre-refactor path: every ordered pair re-embeds both sides."""
    encodings = encode_batch(candidates)
    was_training = model.training
    model.eval()
    wins = pairwise_win_matrix(model, encodings, len(candidates), batch_size)
    model.train(was_training)
    return wins


def _legacy_tahc_wins(model, preliminary, candidates, batch_size=256):
    encodings = encode_batch(candidates)
    was_training = model.training
    model.eval()
    with no_grad():
        task = model.encode_task(preliminary)
        wins = pairwise_win_matrix(
            lambda ea, eb: model(task, ea, eb),
            encodings, len(candidates), batch_size,
        )
    model.train(was_training)
    return wins


class TestBitwiseEquivalence:
    """Engine win matrices must equal the legacy path bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ahc_matches_legacy(self, seed):
        model = _ahc(seed)
        candidates = _candidates(9, seed=seed + 10)
        engine = RankingEngine(model)
        np.testing.assert_array_equal(
            engine.win_matrix(candidates), _legacy_ahc_wins(model, candidates)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tahc_matches_legacy(self, seed):
        model = _tahc(seed)
        preliminary = _preliminary(seed)
        candidates = _candidates(7, seed=seed + 20)
        engine = RankingEngine(model, preliminary=preliminary)
        np.testing.assert_array_equal(
            engine.win_matrix(candidates),
            _legacy_tahc_wins(model, preliminary, candidates),
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_chunked_matches_legacy_at_same_batch_size(self, batch_size):
        # Pair scoring is chunked with the reference path's exact batch
        # boundaries (BLAS results can depend on matmul batch shape, so the
        # guarantee is per-batch-size, not across batch sizes).
        model = _ahc()
        candidates = _candidates(8, seed=5)
        engine = RankingEngine(model, batch_size=batch_size)
        np.testing.assert_array_equal(
            engine.win_matrix(candidates),
            _legacy_ahc_wins(model, candidates, batch_size=batch_size),
        )

    def test_tahc_chunked_matches_legacy(self):
        model = _tahc()
        preliminary = _preliminary()
        candidates = _candidates(6, seed=6)
        engine = RankingEngine(model, preliminary=preliminary, batch_size=7)
        np.testing.assert_array_equal(
            engine.win_matrix(candidates),
            _legacy_tahc_wins(model, preliminary, candidates, batch_size=7),
        )

    def test_cached_rerank_is_identical(self):
        """A second ranking served fully from cache must not drift."""
        model = _ahc()
        candidates = _candidates(6, seed=7)
        engine = RankingEngine(model)
        first = engine.win_matrix(candidates).copy()
        second = engine.win_matrix(candidates)
        np.testing.assert_array_equal(first, second)
        assert engine.stats.embed_misses == 6
        assert engine.stats.embed_hits == 6

    def test_predict_wins_delegates_to_engine(self):
        model = _ahc()
        candidates = _candidates(5, seed=8)
        np.testing.assert_array_equal(
            model.predict_wins(candidates), _legacy_ahc_wins(model, candidates)
        )

    def test_tahc_predict_wins_delegates_to_engine(self):
        model = _tahc()
        preliminary = _preliminary(3)
        candidates = _candidates(5, seed=9)
        np.testing.assert_array_equal(
            model.predict_wins(preliminary, candidates),
            _legacy_tahc_wins(model, preliminary, candidates),
        )


class TestEncoderForwardCounts:
    """Ranking N candidates must cost exactly N encoder forwards."""

    def test_ahc_rank_is_n_forwards(self):
        model = _ahc()
        candidates = _candidates(10)
        model.gin.stats.reset()
        RankingEngine(model).win_matrix(candidates)
        assert model.gin.stats.rows == 10  # not 2·N·(N−1) = 180

    def test_tahc_rank_is_n_forwards(self):
        model = _tahc()
        candidates = _candidates(8)
        model.gin.stats.reset()
        RankingEngine(model, preliminary=_preliminary()).win_matrix(candidates)
        assert model.gin.stats.rows == 8

    def test_legacy_path_is_quadratic(self):
        """The reference really does 2·N·(N−1) — what the engine removes."""
        model = _ahc()
        candidates = _candidates(5)
        model.gin.stats.reset()
        _legacy_ahc_wins(model, candidates)
        assert model.gin.stats.rows == 2 * 5 * 4

    def test_duplicate_candidates_encoded_once(self):
        model = _ahc()
        candidates = _candidates(4)
        model.gin.stats.reset()
        engine = RankingEngine(model)
        engine.embeddings(candidates + candidates)
        assert model.gin.stats.rows == 4
        assert engine.stats.embed_hits == 4

    def test_survivors_cached_across_generations(self):
        """Evolution survivors (and their re-rankings) cost no new encoder
        forwards; mutated offspring hash to new keys and are encoded once."""
        rng = np.random.default_rng(0)
        population = _candidates(6, seed=1)
        offspring = [SPACE.mutate(ah, rng) for ah in population[:3]]
        assert all(
            child.key() not in {ah.key() for ah in population}
            for child in offspring
        )
        model = _ahc()
        model.gin.stats.reset()
        engine = RankingEngine(model)
        engine.win_matrix(population)  # generation 0
        assert model.gin.stats.rows == 6
        engine.win_matrix(population + offspring)  # generation 1
        assert model.gin.stats.rows == 6 + 3  # only the offspring are new
        assert engine.stats.embed_hits == 6
        assert engine.cached_candidates == 9

    def test_task_embedding_computed_once(self):
        model = _tahc()
        engine = RankingEngine(model, preliminary=_preliminary())
        calls = 0
        real = model.encode_task

        def counting(preliminary):
            nonlocal calls
            calls += 1
            return real(preliminary)

        model.encode_task = counting
        engine.win_matrix(_candidates(4, seed=1))
        engine.win_matrix(_candidates(4, seed=2))
        assert calls == 1


class TestModeRestoration:
    """Inference helpers must not clobber the module's train/eval state."""

    @pytest.mark.parametrize("training", [True, False])
    def test_engine_restores_mode(self, training):
        model = _ahc()
        model.train(training)
        RankingEngine(model).win_matrix(_candidates(3))
        assert model.training is training

    def test_wins_independent_of_starting_mode(self):
        preliminary, candidates = _preliminary(4), _candidates(6, seed=11)
        wins = {}
        for training in (True, False):
            model = _tahc()
            model.train(training)
            wins[training] = RankingEngine(
                model, preliminary=preliminary
            ).win_matrix(candidates)
            assert all(m.training is training for m in model.modules())
        np.testing.assert_array_equal(wins[True], wins[False])

    @pytest.mark.parametrize("training", [True, False])
    def test_tahc_predict_wins_restores_mode(self, training):
        model = _tahc()
        model.train(training)
        model.predict_wins(_preliminary(), _candidates(3))
        assert model.training is training

    @pytest.mark.parametrize("training", [True, False])
    def test_task_embedding_vector_restores_mode(self, training):
        model = _tahc()
        model.train(training)
        model.task_embedding_vector(_preliminary())
        assert model.training is training


class TestValidationAndSanitize:
    def test_rejects_missing_preliminary(self):
        with pytest.raises(ValueError, match="preliminary"):
            RankingEngine(_tahc())

    def test_rejects_spurious_preliminary(self):
        with pytest.raises(ValueError, match="not task-conditioned"):
            RankingEngine(_ahc(), preliminary=_preliminary())

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            RankingEngine(_ahc(), batch_size=0)

    def test_empty_candidate_list(self):
        assert RankingEngine(_ahc()).win_matrix([]).shape == (0, 0)

    def test_sanitize_passthrough_is_bitwise(self):
        wins = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.float32)
        assert sanitize_win_matrix(wins) is wins  # finite: same object

    def test_sanitize_replaces_non_finite_with_losses(self):
        wins = np.array([[0.0, np.nan], [np.inf, 0.0]], dtype=np.float32)
        cleaned = sanitize_win_matrix(wins)
        np.testing.assert_array_equal(cleaned, np.zeros((2, 2)))

    def test_evolution_survives_nan_compare_fn(self):
        """The centralized guard still protects custom CompareFns."""
        def poisoned(candidates):
            wins = np.ones((len(candidates), len(candidates)), dtype=np.float32)
            wins[0, :] = np.nan
            return wins

        space = JointSearchSpace(hyper_space=TINY_HYPER)
        config = EvolutionConfig(
            initial_samples=6, population_size=3, generations=1,
            offspring_per_generation=3, top_k=2,
        )
        result = EvolutionarySearch(space, poisoned, config, seed=0).run()
        assert len(result.top_candidates) == 2


class _InterruptAfter:
    def __init__(self, fn, after):
        self.fn = fn
        self.after = after
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.calls >= self.after:
            raise KeyboardInterrupt("injected mid-search interrupt")
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestSearchIntegration:
    SPACE = JointSearchSpace(hyper_space=TINY_HYPER)
    CONFIG = EvolutionConfig(
        initial_samples=8, population_size=4, generations=3,
        offspring_per_generation=4, top_k=2,
    )

    def _encodings_compare(self, model):
        """The pre-refactor CompareFn: encode every pair, every call."""
        def compare(candidates):
            return _legacy_ahc_wins(model, candidates)

        return compare

    def test_evolution_identical_under_engine(self):
        """The full EA selects bitwise-identical candidates whether the
        comparator runs through the engine or the legacy pair path."""
        model = AHC(embed_dim=16, gin_layers=2, hidden_dim=16, seed=1)
        reference = EvolutionarySearch(
            self.SPACE, self._encodings_compare(model), self.CONFIG, seed=3
        ).run()
        engine_run = EvolutionarySearch(
            self.SPACE, RankingEngine(model), self.CONFIG, seed=3
        ).run()
        assert [ah.key() for ah in engine_run.top_candidates] == [
            ah.key() for ah in reference.top_candidates
        ]
        assert [ah.key() for ah in engine_run.final_population] == [
            ah.key() for ah in reference.final_population
        ]

    def test_interrupted_engine_search_resumes_bitwise(self, tmp_path):
        """Checkpoint/resume through the refactored rank stage: a search
        killed mid-generation resumes (with a *fresh*, cold-cache engine)
        to the same winners as an uninterrupted run."""
        model = AHC(embed_dim=16, gin_layers=2, hidden_dim=16, seed=2)
        reference = EvolutionarySearch(
            self.SPACE, RankingEngine(model), self.CONFIG, seed=3
        ).run()

        interrupted = _InterruptAfter(RankingEngine(model), after=2)
        ckpt_path = tmp_path / "evo-engine.ckpt"
        with pytest.raises(KeyboardInterrupt):
            EvolutionarySearch(
                self.SPACE, interrupted, self.CONFIG, seed=3
            ).run(checkpoint=Checkpoint(ckpt_path, "evolution"))
        assert ckpt_path.exists()

        resumed = EvolutionarySearch(
            self.SPACE, RankingEngine(model), self.CONFIG, seed=3
        ).run(checkpoint=Checkpoint(ckpt_path, "evolution"))
        assert [ah.key() for ah in resumed.top_candidates] == [
            ah.key() for ah in reference.top_candidates
        ]
        assert [ah.key() for ah in resumed.final_population] == [
            ah.key() for ah in reference.final_population
        ]
        assert resumed.comparisons == reference.comparisons
