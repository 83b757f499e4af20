"""Tests for Round-Robin selection, evolutionary search, and zero-shot search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comparator import TAHC
from repro.data import CTSData
from repro.embedding import MLPEmbedder
from repro.metrics import top_k_regret
from repro.search import (
    EvolutionConfig,
    EvolutionarySearch,
    ZeroShotConfig,
    ZeroShotSearch,
    round_robin_top_k,
    win_counts,
)
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import Task

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3, 4), hidden_dims=(8, 12), output_dims=(8,),
    output_modes=(0, 1), dropout=(0,),
)
TINY_SPACE = JointSearchSpace(hyper_space=TINY_HYPER)


def _oracle_compare(score_fn):
    """A perfect comparator induced by a scalar quality function."""

    def compare(candidates):
        scores = np.array([score_fn(ah) for ah in candidates])
        return (scores[:, None] < scores[None, :]).astype(np.float32)

    return compare


class TestRoundRobin:
    def test_win_counts(self):
        matrix = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        np.testing.assert_array_equal(win_counts(matrix), [2, 1, 0])

    def test_top_k_selects_biggest_winners(self):
        matrix = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0]])
        assert round_robin_top_k(matrix, 2) == [1, 2]

    def test_full_ranking(self):
        matrix = np.array([[0, 0], [1, 0]])
        assert round_robin_top_k(matrix, 2) == [1, 0]

    def test_handles_nontransitive_cycles(self):
        """A beats B beats C beats A: all tie at one win; selection is stable."""
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert round_robin_top_k(cycle, 2) == [0, 1]

    def test_k_larger_than_n_clamped(self):
        assert len(round_robin_top_k(np.zeros((3, 3)), 10)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            round_robin_top_k(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            round_robin_top_k(np.zeros((2, 2)), 0)

    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_perfect_win_matrix_recovers_true_ranking(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n).astype(float)  # unique scores
        wins = (scores[:, None] < scores[None, :]).astype(float)
        ranking = round_robin_top_k(wins, n)
        assert [scores[i] for i in ranking] == sorted(scores)


class TestEvolutionarySearch:
    def test_oracle_comparator_finds_optimum(self):
        """With a perfect comparator the EA must land on top candidates."""
        score = lambda ah: -ah.hyper.hidden_dim - 0.1 * len(ah.arch.edges)
        search = EvolutionarySearch(
            TINY_SPACE,
            _oracle_compare(score),
            EvolutionConfig(
                initial_samples=20, population_size=6, generations=4,
                offspring_per_generation=6, top_k=3,
            ),
            seed=0,
        )
        result = search.run()
        pool = TINY_SPACE.sample_batch(50, np.random.default_rng(9))
        pool_scores = [score(ah) for ah in pool]
        best_found = min(score(ah) for ah in result.top_candidates)
        assert best_found <= np.percentile(pool_scores, 20)

    def test_population_size_maintained(self):
        search = EvolutionarySearch(
            TINY_SPACE,
            _oracle_compare(lambda ah: ah.hyper.hidden_dim),
            EvolutionConfig(initial_samples=12, population_size=5, generations=2,
                            offspring_per_generation=4, top_k=2),
            seed=1,
        )
        result = search.run()
        assert len(result.final_population) == 5
        assert len(result.top_candidates) == 2

    def test_counts_comparisons(self):
        search = EvolutionarySearch(
            TINY_SPACE,
            _oracle_compare(lambda ah: 0.0),
            EvolutionConfig(initial_samples=8, population_size=4, generations=1,
                            offspring_per_generation=2, top_k=1),
        )
        result = search.run()
        assert result.comparisons > 0

    def test_all_results_searchable(self):
        search = EvolutionarySearch(
            TINY_SPACE,
            _oracle_compare(lambda ah: np.random.default_rng(0).random()),
            EvolutionConfig(initial_samples=10, population_size=4, generations=3,
                            offspring_per_generation=4, top_k=3),
            seed=2,
        )
        result = search.run()
        assert all(ah.is_searchable() for ah in result.final_population)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=1)
        with pytest.raises(ValueError):
            EvolutionConfig(initial_samples=2, population_size=10)
        with pytest.raises(ValueError):
            EvolutionConfig(crossover_prob=1.5)


def _toy_task(t=240, seed=0):
    rng = np.random.default_rng(seed)
    steps = np.arange(t)
    base = np.sin(2 * np.pi * steps / 12)
    values = np.stack([base + 0.1 * rng.standard_normal(t) for _ in range(4)])
    return Task(
        CTSData("toy", values[..., None].astype(np.float32),
                np.ones((4, 4), np.float32), "test"),
        p=6,
        q=3,
    )


class TestZeroShotSearch:
    def _searcher(self):
        model = TAHC(embed_dim=16, gin_layers=2, hidden_dim=16,
                     preliminary_dim=8, task_embed_dim=8, seed=0)
        embedder = MLPEmbedder(input_dim=1, output_dim=8)
        config = ZeroShotConfig(
            evolution=EvolutionConfig(
                initial_samples=8, population_size=4, generations=1,
                offspring_per_generation=2, top_k=2,
            ),
            final_train_epochs=2,
            batch_size=32,
        )
        return ZeroShotSearch(model, embedder, TINY_SPACE, config)

    def test_end_to_end(self):
        searcher = self._searcher()
        result = searcher.search(_toy_task())
        assert result.best in result.top_candidates
        assert len(result.candidate_scores) == len(result.top_candidates)
        assert np.isfinite(result.best_scores.mae)
        assert result.timings.embedding > 0
        assert result.timings.ranking > 0
        assert result.timings.training > 0
        assert result.timings.search == pytest.approx(
            result.timings.embedding + result.timings.ranking
        )

    def test_best_candidate_minimizes_validation(self):
        searcher = self._searcher()
        result = searcher.search(_toy_task())
        best_index = result.top_candidates.index(result.best)
        assert result.candidate_scores[best_index] == min(result.candidate_scores)

    def test_embedding_reflects_task_setting(self):
        searcher = self._searcher()
        e1 = searcher.embed_task(_toy_task())
        task2 = Task(_toy_task().data, p=12, q=6)
        e2 = searcher.embed_task(task2)
        assert e1.shape[1] != e2.shape[1]  # S = P + Q differs


class TestSearchBaselines:
    def test_random_search_regret_definition(self):
        scores = np.array([0.5, 0.1, 0.9])
        assert top_k_regret([1], scores) == 0.0
