"""Encode-once comparator inference: the :class:`RankingEngine`.

The comparator is the inner loop of both searches — AutoCTS+ runs an AHC
inside every evolutionary generation, AutoCTS++ a T-AHC — yet the naive
inference path re-runs the GIN encoder on *both sides of every ordered
pair*: ranking N candidates costs 2·N·(N−1) encoder forwards where N
suffice.  The engine splits inference into the two stages the models expose
(:meth:`~repro.comparator.ahc.AHC.embed` /
:meth:`~repro.comparator.ahc.AHC.score_pairs`) and owns the hot path:

* each unique candidate is embedded **exactly once**, memoized by
  ``ArchHyper.key()`` so population survivors are never re-encoded across
  evolutionary generations,
* the refined task embedding E' (T-AHC only) is computed **once per engine**
  instead of once per ``compare`` call inside the evolution loop,
* ordered-pair logits are assembled in batched head-only forwards with the
  exact chunking of the reference path, keeping win matrices
  bitwise-identical to :func:`~repro.comparator.ahc.pairwise_win_matrix`,
* the non-finite win-matrix guard that protects Round-Robin selection is
  centralized in :func:`sanitize_win_matrix`.

The engine is callable with a candidate list, so it drops into every
``CompareFn`` slot of :mod:`repro.search` unchanged.

Cache invalidation rules: the embedding cache is keyed by candidate identity
only, so it is sound for as long as the comparator's *weights* are frozen —
the inference-time regime of both searches.  Create a fresh engine after
any weight update; mutated or crossed-over offspring need no special
handling because they hash to new ``ArchHyper.key()`` values.  See
``docs/comparator.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..autodiff import Tensor, no_grad, sigmoid
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import span
from ..space.archhyper import ArchHyper
from ..space.encoding import encode_batch
from ..space.hyperparams import HyperSpace
from .ahc import Encodings, _index_encodings
from .pairing import ordered_pair_indices


def sanitize_win_matrix(wins: np.ndarray) -> np.ndarray:
    """Replace non-finite win entries with losses for the row candidate.

    A non-finite win probability (poisoned comparator weights, an overflowed
    logit, a custom ``CompareFn`` that divides by zero) must not leak into
    Round-Robin ranking, where NaN comparisons would make selection
    nondeterministic; treating the entry as a loss for the row candidate is
    the deterministic worst case.  Finite matrices pass through untouched
    (bitwise, no copy).
    """
    if np.isfinite(wins).all():
        return wins
    return np.where(np.isfinite(wins), wins, 0.0)


@contextmanager
def _eval_mode(model):
    """Run the body with ``model`` in eval mode, then restore its mode.

    Each mode switch walks the whole module tree, so it is skipped when the
    model is already in eval mode — as the service's comparator always is.
    """
    if not model.training:
        yield
        return
    model.eval()
    try:
        yield
    finally:
        model.train(True)


class RankingStats:
    """Cache and batching accounting of one :class:`RankingEngine`.

    Counts live in a :class:`~repro.obs.metrics.MetricsRegistry` under
    ``rank.*`` names, parented to the ambient registry, so every engine's
    accounting also lands in the consolidated process snapshot.  The
    attribute API (``stats.embed_hits``, ``+= 1`` updates) and the
    ``report()`` string are unchanged views over the registry.
    """

    _COUNTERS = ("embed_hits", "embed_misses", "pair_scores", "win_matrices")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry(parent=get_registry())
        for name in self._COUNTERS:
            self.registry.counter(f"rank.{name}")

    def report(self) -> str:
        total = self.embed_hits + self.embed_misses
        rate = self.embed_hits / total if total else 0.0
        return (
            f"ranking: {self.win_matrices} win matrices, "
            f"{self.pair_scores} pair scores, "
            f"{self.embed_misses} encoder forwards "
            f"({self.embed_hits} cache hits, {rate:.0%} hit rate)"
        )


def _rank_counter_property(name: str) -> property:
    metric = f"rank.{name}"

    def getter(self: RankingStats) -> int:
        return int(self.registry.counter(metric).value)

    def setter(self: RankingStats, value: int) -> None:
        self.registry.counter(metric).inc(value - getter(self))

    return property(getter, setter)


for _name in RankingStats._COUNTERS:
    setattr(RankingStats, _name, _rank_counter_property(_name))
del _name


class RankingEngine:
    """Cached embed-once/score-many inference over a pairwise comparator.

    Args:
        model: an :class:`~repro.comparator.ahc.AHC` or
            :class:`~repro.comparator.tahc.TAHC` (anything exposing
            ``embed`` and ``score_pairs``).
        preliminary: the task's preliminary embedding, required iff ``model``
            is task-conditioned (exposes ``encode_task``).  The refined E'
            is computed once, on first use, and cached.
        space: hyperparameter space for candidate encoding.
        batch_size: pair-chunk size; matches the reference path's chunking so
            win matrices stay bitwise-identical.
    """

    def __init__(
        self,
        model,
        preliminary: np.ndarray | None = None,
        space: HyperSpace | None = None,
        batch_size: int = 256,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        task_conditioned = hasattr(model, "encode_task")
        if task_conditioned and preliminary is None:
            raise ValueError(
                "task-conditioned comparator needs a preliminary task embedding"
            )
        if not task_conditioned and preliminary is not None:
            raise ValueError(
                "comparator is not task-conditioned but a preliminary "
                "embedding was given"
            )
        self.model = model
        self.space = space
        self.batch_size = batch_size
        self.stats = RankingStats()
        self._preliminary = preliminary
        self._task_embedding: np.ndarray | None = None
        self._embedding_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Cached stages
    # ------------------------------------------------------------------
    def task_embedding(self) -> Tensor | None:
        """The refined task embedding E', computed once and cached."""
        if self._preliminary is None:
            return None
        if self._task_embedding is None:
            with _eval_mode(self.model), no_grad():
                self._task_embedding = (
                    self.model.encode_task(self._preliminary).numpy().copy()
                )
        return Tensor(self._task_embedding)

    def embeddings(self, arch_hypers: list[ArchHyper]) -> np.ndarray:
        """Per-candidate GIN embeddings (N, D); each unique candidate is
        encoded at most once in the engine's lifetime."""
        keys = [ah.key() for ah in arch_hypers]
        missing: dict[str, ArchHyper] = {}
        for key, ah in zip(keys, arch_hypers):
            if key not in self._embedding_cache and key not in missing:
                missing[key] = ah
        self.stats.embed_misses += len(missing)
        self.stats.embed_hits += len(arch_hypers) - len(missing)
        if missing:
            encodings = encode_batch(list(missing.values()), self.space)
            fresh = self._embed_batched(encodings)
            for i, key in enumerate(missing):
                self._embedding_cache[key] = fresh[i]
        return np.stack([self._embedding_cache[key] for key in keys])

    def _embed_batched(self, encodings: Encodings) -> np.ndarray:
        count = encodings[0].shape[0]
        chunks = []
        with _eval_mode(self.model), no_grad():
            for start in range(0, count, self.batch_size):
                index = np.arange(start, min(start + self.batch_size, count))
                chunks.append(
                    self.model.embed(_index_encodings(encodings, index)).numpy()
                )
        return np.concatenate(chunks, axis=0)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def win_matrix(
        self, arch_hypers: list[ArchHyper], sanitize: bool = True
    ) -> np.ndarray:
        """Full ordered-pair win matrix W with ``W[i, j] = 1`` iff i beats j.

        N encoder forwards (fewer on cache hits) plus 2·N·(N−1) head-only
        pair scores, chunked exactly like the reference
        :func:`~repro.comparator.ahc.pairwise_win_matrix` so the result is
        bitwise-identical to re-encoding every pair.
        """
        count = len(arch_hypers)
        with span("win-matrix", candidates=count) as handle:
            before = self.stats.embed_misses
            embeddings = (
                self.embeddings(arch_hypers) if count else np.zeros((0, 0))
            )
            task = self.task_embedding()
            pairs_a, pairs_b = ordered_pair_indices(count)
            wins = np.zeros((count, count), dtype=np.float32)
            with _eval_mode(self.model), no_grad():
                for start in range(0, len(pairs_a), self.batch_size):
                    ia = pairs_a[start : start + self.batch_size]
                    ib = pairs_b[start : start + self.batch_size]
                    emb_a, emb_b = Tensor(embeddings[ia]), Tensor(embeddings[ib])
                    if task is None:
                        logits = self.model.score_pairs(emb_a, emb_b)
                    else:
                        logits = self.model.score_pairs(task, emb_a, emb_b)
                    probability = sigmoid(logits).numpy()
                    wins[ia, ib] = (probability >= 0.5).astype(np.float32)
            self.stats.pair_scores += len(pairs_a)
            self.stats.win_matrices += 1
            handle.set(
                pairs=len(pairs_a), encoder_forwards=self.stats.embed_misses - before
            )
        return sanitize_win_matrix(wins) if sanitize else wins

    def __call__(self, arch_hypers: list[ArchHyper]) -> np.ndarray:
        """Engines are ``CompareFn``s: candidate list in, win matrix out."""
        return self.win_matrix(arch_hypers)

    @property
    def cached_candidates(self) -> int:
        return len(self._embedding_cache)
