"""Zero-shot search for unseen tasks (paper Algorithm 2).

Given a pre-trained T-AHC, a preliminary embedder (TS2Vec), and an unseen
task ``T = (D, P, Q)``:

1. **Embed** — compute the task's preliminary embedding in minutes,
2. **Rank** — evolutionary search over the joint space with the T-AHC as the
   fitness comparator, Round-Robin selecting the top-K candidates,
3. **Train** — fully train the top-K candidates on the task's training split
   and return the one with the best validation accuracy.

Each phase is timed separately; Figure 7 of the paper reports exactly these
three phase runtimes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..comparator.scoring import RankingEngine
from ..comparator.tahc import TAHC
from ..core.trainer import TrainConfig
from ..embedding.task_encoder import PreliminaryEmbedder, preliminary_task_embedding
from ..metrics import ForecastScores
from ..obs.trace import span
from ..space.archhyper import ArchHyper
from ..space.sampling import JointSearchSpace
from ..tasks.task import Task
from .evolutionary import EvolutionConfig, EvolutionarySearch
from .final_training import train_top_k

if TYPE_CHECKING:
    from ..runtime import Checkpoint


@dataclass(frozen=True)
class ZeroShotConfig:
    """Knobs of Algorithm 2."""

    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    final_train_epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    embedding_windows: int = 8


@dataclass
class PhaseTimings:
    """Wall-clock seconds of the three phases (paper Figure 7)."""

    embedding: float = 0.0
    ranking: float = 0.0
    training: float = 0.0

    @property
    def search(self) -> float:
        """The paper's 'search time': embedding + ranking."""
        return self.embedding + self.ranking


@dataclass
class ZeroShotResult:
    best: ArchHyper
    best_scores: ForecastScores
    top_candidates: list[ArchHyper]
    candidate_scores: list[float]
    timings: PhaseTimings
    comparisons: int


class ZeroShotSearch:
    """End-to-end zero-shot model search for unseen CTS forecasting tasks."""

    def __init__(
        self,
        model: TAHC,
        embedder: PreliminaryEmbedder,
        space: JointSearchSpace | None = None,
        config: ZeroShotConfig = ZeroShotConfig(),
    ) -> None:
        self.model = model
        self.embedder = embedder
        self.space = space or JointSearchSpace()
        self.config = config

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def embed_task(self, task: Task) -> np.ndarray:
        """Phase 1: the preliminary embedding of the unseen task."""
        windows = task.embedding_windows(self.config.embedding_windows)
        return preliminary_task_embedding(self.embedder, windows)

    def rank(
        self,
        preliminary: np.ndarray,
        initial: list[ArchHyper] | None = None,
        checkpoint: "Checkpoint | None" = None,
        engine: RankingEngine | None = None,
    ) -> tuple[list[ArchHyper], int]:
        """Phase 2: evolutionary ranking under the task-conditioned T-AHC.

        The comparator is wrapped in a :class:`RankingEngine` scoped to this
        call: the refined task embedding E' is computed once for the whole
        evolution (not once per generation), and population survivors keep
        their GIN embeddings cached across generations.  A caller may hand
        in its own ``engine`` (the service layer keeps one per task so
        candidate embeddings are encoded once *across requests*, not just
        across generations); cached embeddings are bitwise-identical to
        fresh ones, so the ranking is unchanged.
        """
        if engine is None:
            engine = RankingEngine(
                self.model, preliminary=preliminary, space=self.space.hyper_space
            )
        search = EvolutionarySearch(
            self.space, engine, self.config.evolution, seed=self.config.seed
        )
        result = search.run(initial, checkpoint=checkpoint)
        return result.top_candidates, result.comparisons

    def train_final(
        self, task: Task, candidates: list[ArchHyper]
    ) -> tuple[ArchHyper, ForecastScores, list[float]]:
        """Phase 3: fully train top-K candidates, keep the best on validation.

        The candidates train concurrently (:func:`.final_training.train_top_k`).
        A candidate that diverges in final training (or produces a non-finite
        validation score) records the deterministic sentinel score and is
        dropped from contention.  If every candidate diverges, a
        :class:`~repro.core.health.DivergenceError` propagates.
        """
        config = self.config
        selection = train_top_k(
            task,
            candidates,
            TrainConfig(
                epochs=config.final_train_epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                weight_decay=config.weight_decay,
                patience=max(3, config.final_train_epochs // 3),
                seed=config.seed,
            ),
        )
        return selection.best, selection.test_scores, selection.val_scores

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def search(
        self,
        task: Task,
        initial: list[ArchHyper] | None = None,
        ranking_checkpoint: "Checkpoint | None" = None,
    ) -> ZeroShotResult:
        """Run Algorithm 2 end to end on an unseen task."""
        timings = PhaseTimings()
        with span("search", method="zero-shot", task=task.name) as handle:
            start = time.perf_counter()
            with span("embedding", task=task.name):
                preliminary = self.embed_task(task)
            timings.embedding = time.perf_counter() - start

            start = time.perf_counter()
            with span("ranking", task=task.name):
                top, comparisons = self.rank(
                    preliminary, initial, checkpoint=ranking_checkpoint
                )
            timings.ranking = time.perf_counter() - start

            start = time.perf_counter()
            with span("training", task=task.name, candidates=len(top)):
                best, scores, candidate_scores = self.train_final(task, top)
            timings.training = time.perf_counter() - start
            handle.set(best=best.key(), comparisons=comparisons)

        return ZeroShotResult(
            best=best,
            best_scores=scores,
            top_candidates=top,
            candidate_scores=candidate_scores,
            timings=timings,
            comparisons=comparisons,
        )
