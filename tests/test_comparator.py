"""Tests for the GIN encoder, AHC, T-AHC, pairing, curriculum, pre-training."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.comparator import (
    AHC,
    ComparisonPair,
    GINEncoder,
    PretrainConfig,
    PretrainHistory,
    TAHC,
    TaskSampleSet,
    curriculum_schedule,
    dynamic_pairs,
    make_label,
    ordered_pair_indices,
    pretrain_tahc,
)
from repro.metrics import pairwise_accuracy
from repro.space import CANDIDATE_OPERATORS, JointSearchSpace, encode_batch

RNG = np.random.default_rng(0)
SPACE = JointSearchSpace()


def _pairwise_accuracy(model, sample_set):
    """Share of ordered pairs whose comparator verdict matches the scores."""
    index_a, index_b = ordered_pair_indices(len(sample_set.scores))
    labels = sample_set.scores[index_a] <= sample_set.scores[index_b]
    with no_grad():
        embeddings = model.embed(sample_set.ensure_encodings())
        logits = model.score_pairs(
            model.encode_task(sample_set.preliminary),
            embeddings[index_a],
            embeddings[index_b],
        )
    return float(((logits.numpy() >= 0) == labels).mean())


def _sample_encodings(count, seed=0):
    batch = SPACE.sample_batch(count, np.random.default_rng(seed))
    return batch, encode_batch(batch)


class TestGIN:
    def test_output_shape(self):
        gin = GINEncoder(num_operator_types=5, embed_dim=16, num_layers=2)
        _, enc = _sample_encodings(4)
        out = gin(*enc)
        assert out.shape == (4, 16)

    def test_distinguishes_graphs(self):
        gin = GINEncoder(num_operator_types=5, embed_dim=16, num_layers=3)
        _, enc = _sample_encodings(2, seed=1)
        out = gin(*enc).numpy()
        assert not np.allclose(out[0], out[1])

    def test_hyper_vector_reaches_output(self):
        gin = GINEncoder(num_operator_types=5, embed_dim=16, num_layers=2)
        _, (adj, ops, hyper, mask) = _sample_encodings(1)
        base = gin(adj, ops, hyper, mask).numpy().copy()
        hyper2 = hyper.copy()
        hyper2[0, 0] = 1.0 - hyper2[0, 0]
        out = gin(adj, ops, hyper2, mask).numpy()
        assert not np.allclose(base, out)

    def test_padding_has_no_influence(self):
        """Changing op indices in padded rows must not change the output."""
        gin = GINEncoder(num_operator_types=5, embed_dim=16, num_layers=2)
        _, (adj, ops, hyper, mask) = _sample_encodings(1)
        base = gin(adj, ops, hyper, mask).numpy().copy()
        ops2 = ops.copy()
        ops2[mask == 0] = 2  # garbage in padding slots
        # padding op ids must be masked internally: recompute with -1 replaced
        out = gin(adj, np.where(mask == 0, -1, ops2), hyper, mask).numpy()
        np.testing.assert_allclose(out, base, rtol=1e-5)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            GINEncoder(num_operator_types=5, num_layers=0)

    def test_gradients_reach_embeddings(self):
        gin = GINEncoder(num_operator_types=5, embed_dim=8, num_layers=2)
        _, enc = _sample_encodings(3)
        gin(*enc).sum().backward()
        assert gin.operator_embedding.grad is not None
        assert gin.hyper_proj.weight.grad is not None


class TestAHC:
    def test_logits_shape(self):
        ahc = AHC(embed_dim=16, gin_layers=2, hidden_dim=16)
        _, enc_a = _sample_encodings(3, seed=1)
        _, enc_b = _sample_encodings(3, seed=2)
        assert ahc(enc_a, enc_b).shape == (3,)

    def test_learns_synthetic_ranking(self):
        """AHC must learn a rule as simple as 'bigger hidden dim is better'."""
        from repro.autodiff import sigmoid
        from repro.nn.loss import bce_with_logits
        from repro.optim import Adam

        rng = np.random.default_rng(0)
        candidates = SPACE.sample_batch(16, rng)
        scores = np.array([-ah.hyper.hidden_dim for ah in candidates], dtype=float)
        enc = encode_batch(candidates)
        ahc = AHC(embed_dim=16, gin_layers=2, hidden_dim=16, seed=0)
        optimizer = Adam(ahc.parameters(), lr=5e-3)
        for _ in range(60):
            pairs = dynamic_pairs(scores, rng, 32)
            ia = np.array([p.index_a for p in pairs])
            ib = np.array([p.index_b for p in pairs])
            labels = np.array([p.label for p in pairs], dtype=np.float32)
            logits = ahc(
                tuple(a[ia] for a in enc), tuple(a[ib] for a in enc)
            )
            loss = bce_with_logits(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        wins = ahc.predict_wins(candidates)
        assert pairwise_accuracy(wins, scores) > 0.8


class TestTAHC:
    def _model(self, seed=0):
        return TAHC(embed_dim=16, gin_layers=2, hidden_dim=16,
                    preliminary_dim=8, task_embed_dim=8, seed=seed)

    def _preliminary(self, seed=0):
        return np.random.default_rng(seed).standard_normal((4, 10, 8)).astype(np.float32)

    def test_logits_shape(self):
        model = self._model()
        _, enc_a = _sample_encodings(3, seed=1)
        _, enc_b = _sample_encodings(3, seed=2)
        emb = model.encode_task(self._preliminary())
        assert model(emb, enc_a, enc_b).shape == (3,)

    def test_task_conditioning_changes_output(self):
        model = self._model()
        _, enc_a = _sample_encodings(3, seed=1)
        _, enc_b = _sample_encodings(3, seed=2)
        with no_grad():
            out1 = model(model.encode_task(self._preliminary(0)), enc_a, enc_b).numpy()
            out2 = model(model.encode_task(self._preliminary(9)), enc_a, enc_b).numpy()
        assert not np.allclose(out1, out2)

    def test_win_matrix_properties(self):
        model = self._model()
        candidates, _ = _sample_encodings(5)
        wins = model.predict_wins(self._preliminary(), candidates)
        assert wins.shape == (5, 5)
        np.testing.assert_array_equal(np.diag(wins), 0.0)
        assert set(np.unique(wins)) <= {0.0, 1.0}

    def test_task_embedding_vector(self):
        model = self._model()
        vec = model.task_embedding_vector(self._preliminary())
        assert vec.shape == (8,)
        assert np.isfinite(vec).all()


class TestPairing:
    def test_make_label(self):
        assert make_label(0.1, 0.5) == 1.0  # lower error wins
        assert make_label(0.5, 0.1) == 0.0
        assert make_label(0.3, 0.3) == 1.0  # tie convention: >=

    def test_dynamic_pairs_no_self_pairs(self):
        scores = np.arange(5, dtype=float)
        pairs = dynamic_pairs(scores, np.random.default_rng(0), 100)
        assert all(p.index_a != p.index_b for p in pairs)
        assert len(pairs) == 100

    def test_dynamic_pairs_labels_match_scores(self):
        scores = np.array([0.1, 0.9, 0.5])
        for pair in dynamic_pairs(scores, np.random.default_rng(1), 50):
            assert pair.label == make_label(scores[pair.index_a], scores[pair.index_b])

    def test_dynamic_pairs_rejects_singleton(self):
        with pytest.raises(ValueError):
            dynamic_pairs(np.array([1.0]), np.random.default_rng(0), 5)

    def test_ordered_pair_indices_count(self):
        index_a, index_b = ordered_pair_indices(4)
        assert len(index_a) == len(index_b) == 12
        assert not (index_a == index_b).any()


class TestCurriculum:
    def test_starts_at_zero_ends_full(self):
        schedule = curriculum_schedule(total_random=10, epochs=9)
        assert schedule[0] == 0
        assert schedule[-1] == 10

    def test_monotone_nondecreasing(self):
        schedule = curriculum_schedule(7, 12)
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))

    def test_single_epoch_gets_everything(self):
        assert curriculum_schedule(5, 1) == [5]

    def test_validation(self):
        with pytest.raises(ValueError):
            curriculum_schedule(5, 0)
        with pytest.raises(ValueError):
            curriculum_schedule(-1, 5)


class TestPretraining:
    def _synthetic_sample_sets(self, n_tasks=3, shared=5, extra=5):
        """Tasks whose ground truth is 'larger hidden dims win', with
        task-dependent tie-breaking so the task embedding matters."""
        rng = np.random.default_rng(0)
        shared_pool = SPACE.sample_batch(shared, rng)
        sets = []
        for t in range(n_tasks):
            own = SPACE.sample_batch(extra, rng)
            pool = shared_pool + own
            scores = np.array(
                [-ah.hyper.hidden_dim + 0.01 * t * ah.hyper.num_blocks for ah in pool]
            )
            preliminary = np.random.default_rng(100 + t).standard_normal(
                (4, 8, 8)
            ).astype(np.float32)
            sets.append(
                TaskSampleSet(
                    task_name=f"task{t}",
                    preliminary=preliminary,
                    arch_hypers=pool,
                    scores=scores,
                    shared_count=shared,
                )
            )
        return sets

    def test_pretraining_improves_accuracy(self):
        sets = self._synthetic_sample_sets()
        model = TAHC(embed_dim=16, gin_layers=2, hidden_dim=16,
                     preliminary_dim=8, task_embed_dim=8, seed=0)
        before = np.mean([_pairwise_accuracy(model, s) for s in sets])
        config = PretrainConfig(
            shared_samples=5, random_samples=5, epochs=25, pairs_per_task=24,
            lr=5e-3, patience=25,
        )
        history = pretrain_tahc(model, sets, config)
        after = np.mean([_pairwise_accuracy(model, s) for s in sets])
        assert isinstance(history, PretrainHistory)
        assert history.deltas[0] == 0  # curriculum starts shared-only
        assert after > before
        assert after > 0.75

    def test_sample_set_validation(self):
        with pytest.raises(ValueError):
            TaskSampleSet("x", np.zeros((1, 2, 3)), [], np.array([1.0]), 0)

    def test_pretrain_rejects_empty(self):
        model = TAHC(embed_dim=8, gin_layers=1, hidden_dim=8,
                     preliminary_dim=8, task_embed_dim=8)
        with pytest.raises(ValueError):
            pretrain_tahc(model, [], PretrainConfig())
