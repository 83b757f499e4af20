"""The fully-supervised AutoCTS+ search pipeline (the SIGMOD 2023 method).

Unlike the zero-shot AutoCTS++ (Algorithm 2), AutoCTS+ searches *per task*:

1. sample M arch-hypers from the joint space and measure each with the
   early-validation proxy R' (Eq. 22) on the target task,
2. train a task-specific :class:`~repro.comparator.ahc.AHC` on dynamically
   generated pairs of the measured samples,
3. run the comparator-guided evolutionary search and Round-Robin top-K,
4. fully train the top-K candidates and keep the best on validation.

This is the framework AutoCTS++ generalizes: same joint search space, same
comparator idea, but the comparator must be re-trained (and samples
re-collected) for every new task.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..comparator.ahc import AHC
from ..comparator.pairing import dynamic_pairs, has_comparable_pair, pair_index_arrays
from ..comparator.scoring import RankingEngine
from ..core.health import DivergenceError
from ..core.trainer import TrainConfig
from ..metrics import ForecastScores
from ..nn.loss import bce_with_logits
from ..obs.heartbeat import heartbeat
from ..obs.trace import span
from ..optim import Adam
from typing import TYPE_CHECKING

from ..space.archhyper import ArchHyper
from ..space.encoding import encode_batch
from ..space.sampling import JointSearchSpace
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task
from ..utils.seeding import derive_rng
from .evolutionary import EvolutionConfig, EvolutionarySearch
from .final_training import train_top_k

if TYPE_CHECKING:
    from ..runtime import Checkpoint, ProxyEvaluator


@dataclass(frozen=True)
class AutoCTSPlusConfig:
    """Knobs of the fully-supervised pipeline."""

    n_measured_samples: int = 12  # paper: hundreds (GPU-scale)
    ahc_epochs: int = 40
    pairs_per_epoch: int = 32
    ahc_lr: float = 1e-3
    # Capacity of the per-task comparator (CLI: --ahc-embed-dim etc.).
    ahc_embed_dim: int = 32
    ahc_gin_layers: int = 3
    ahc_hidden_dim: int = 32
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    final_train_epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    # Successive-halving proxy collection (see docs/fidelity.md).  ``None``
    # takes $REPRO_FIDELITY_SCHEDULE, else the flat one-rung sweep.
    fidelity_schedule: str | None = None
    warm_dir: str | None = None


@dataclass
class AutoCTSPlusResult:
    best: ArchHyper
    best_scores: ForecastScores
    top_candidates: list[ArchHyper]
    measured: list[tuple[ArchHyper, float]]
    ahc_losses: list[float]


class AutoCTSPlusSearch:
    """Per-task joint architecture-hyperparameter search with an AHC."""

    def __init__(
        self,
        space: JointSearchSpace | None = None,
        config: AutoCTSPlusConfig | None = None,
        evaluator: "ProxyEvaluator | None" = None,
        checkpoint_dir: Path | str | None = None,
    ) -> None:
        self.space = space or JointSearchSpace()
        self.config = config if config is not None else AutoCTSPlusConfig()
        self.evaluator = evaluator
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        # Populated by collect_samples when a fidelity schedule culled some
        # candidates early; None when every score is full fidelity.
        self._label_eligible: np.ndarray | None = None

    def _checkpoint(self, stage: str, kind: str) -> "Checkpoint | None":
        """The per-stage progress checkpoint, or ``None`` when not enabled."""
        if self.checkpoint_dir is None:
            return None
        from ..runtime import Checkpoint

        return Checkpoint(
            self.checkpoint_dir / f"autocts-{stage}-seed{self.config.seed}.ckpt",
            kind=kind,
        )

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def collect_samples(self, task: Task) -> list[tuple[ArchHyper, float]]:
        """Stage 1: measure random arch-hypers with the proxy on the task.

        With a ``fidelity_schedule`` configured, the pool runs through the
        successive-halving rungs instead of a flat full-fidelity sweep; only
        full-fidelity scores are eligible as comparator training labels
        (culled candidates keep their last partial score, masked out via
        ``_label_eligible``).
        """
        from ..runtime import EvalProgress, get_default_evaluator

        rng = derive_rng(self.config.seed, "autocts+-collect")
        candidates = self.space.sample_batch(self.config.n_measured_samples, rng)
        evaluator = self.evaluator or get_default_evaluator()
        checkpoint = self._checkpoint("collect", "eval-progress")
        progress = EvalProgress(checkpoint) if checkpoint is not None else None
        with span("collect", task=task.name, candidates=len(candidates)):
            result = evaluator.evaluate_rungs(
                [(ah, task) for ah in candidates],
                self.config.proxy,
                schedule=self.config.fidelity_schedule,
                progress=progress,
                warm_dir=self.config.warm_dir,
            )
        scores = result.scores
        mask = result.label_mask()
        self._label_eligible = None if mask is None else np.asarray(mask, dtype=bool)
        if not has_comparable_pair(np.asarray(scores), self._label_eligible):
            raise DivergenceError(
                f"every measured candidate diverged on task {task.name!r}; "
                "no comparator training signal exists (try a smaller lr range "
                "or inspect the task data for non-finite values)"
            )
        return list(zip(candidates, scores))

    def train_comparator(
        self, measured: list[tuple[ArchHyper, float]]
    ) -> tuple[AHC, list[float]]:
        """Stage 2: fit a task-specific AHC on dynamically generated pairs.

        Epoch state (weights, Adam moments, RNG stream, loss history) is
        checkpointed when a ``checkpoint_dir`` is configured, so an
        interrupted fit resumes bitwise-identically.
        """
        config = self.config
        arch_hypers = [ah for ah, _ in measured]
        scores = np.array([score for _, score in measured])
        eligible = self._label_eligible
        encodings = encode_batch(arch_hypers, self.space.hyper_space)
        ahc = AHC(
            embed_dim=config.ahc_embed_dim,
            gin_layers=config.ahc_gin_layers,
            hidden_dim=config.ahc_hidden_dim,
            seed=config.seed,
        )
        optimizer = Adam(ahc.parameters(), lr=config.ahc_lr)
        rng = derive_rng(config.seed, "autocts+-ahc")
        losses: list[float] = []
        start_epoch = 0
        checkpoint = self._checkpoint("ahc", "ahc-train")
        if checkpoint is not None:
            # The scores digest ties the checkpoint to this exact measured set.
            checkpoint.meta = {
                "epochs": config.ahc_epochs,
                "pairs": config.pairs_per_epoch,
                "lr": config.ahc_lr,
                "seed": config.seed,
                "scores_sha256": hashlib.sha256(
                    np.ascontiguousarray(scores).tobytes()
                ).hexdigest(),
            }
            if eligible is not None:
                # Only present when a fidelity schedule masked some scores —
                # keeps full-fidelity checkpoint metadata byte-identical
                # while refusing to resume across different masks.
                checkpoint.meta["eligible_sha256"] = hashlib.sha256(
                    np.ascontiguousarray(eligible).tobytes()
                ).hexdigest()
            state = checkpoint.load()
            if state is not None:
                ahc.load_state_dict(state["model"])
                optimizer.load_state_dict(state["optimizer"])
                rng.bit_generator.state = state["rng"]
                losses = list(state["losses"])
                start_epoch = int(state["epoch"])
        with span(
            "train-comparator", epochs=config.ahc_epochs, samples=len(measured)
        ) as handle:
            for epoch in range(start_epoch, config.ahc_epochs):
                pairs = dynamic_pairs(
                    scores, rng, config.pairs_per_epoch, eligible=eligible
                )
                index_a, index_b, labels = pair_index_arrays(pairs)
                # Encode-once: one GIN forward over the measured pool, pair
                # sides gathered from the shared embedding batch.
                embeddings = ahc.embed(encodings)
                logits = ahc.score_pairs(embeddings[index_a], embeddings[index_b])
                loss = bce_with_logits(logits, labels)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
                if checkpoint is not None:
                    checkpoint.save(
                        {
                            "epoch": epoch + 1,
                            "model": ahc.state_dict(),
                            "optimizer": optimizer.state_dict(),
                            "rng": rng.bit_generator.state,
                            "losses": list(losses),
                        }
                    )
                heartbeat(
                    "ahc-train",
                    lambda: (
                        f"AHC epoch {epoch + 1}/{config.ahc_epochs}; "
                        f"loss {losses[-1]:.4f}"
                    ),
                )
            if losses:
                handle.set(final_loss=losses[-1])
        return ahc, losses

    def rank(self, ahc: AHC) -> list[ArchHyper]:
        """Stage 3: comparator-guided evolutionary search.

        The trained AHC is wrapped in an encode-once :class:`RankingEngine`
        so survivors keep their embeddings across generations (the AHC's
        weights are frozen for the whole stage, which is what makes the
        cache sound).
        """
        engine = RankingEngine(ahc, space=self.space.hyper_space)
        search = EvolutionarySearch(
            self.space, engine, self.config.evolution, seed=self.config.seed
        )
        return search.run(
            checkpoint=self._checkpoint("evolution", "evolution")
        ).top_candidates

    def train_final(
        self, task: Task, candidates: list[ArchHyper]
    ) -> tuple[ArchHyper, ForecastScores]:
        """Stage 4: fully train the top-K, keep the validation winner.

        The candidates train concurrently (:func:`.final_training.train_top_k`).
        A candidate that diverges during final training (or lands on a
        non-finite validation score) is dropped from contention instead of
        crashing the pipeline; if *every* candidate diverges, a
        :class:`~repro.core.health.DivergenceError` propagates.
        """
        config = self.config
        with span("final-train", task=task.name, candidates=len(candidates)):
            selection = train_top_k(
                task,
                candidates,
                TrainConfig(
                    epochs=config.final_train_epochs,
                    batch_size=config.batch_size,
                    patience=max(3, config.final_train_epochs // 3),
                    seed=config.seed,
                ),
            )
        return selection.best, selection.test_scores

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def search(self, task: Task) -> AutoCTSPlusResult:
        with span("search", method="autocts+", task=task.name) as handle:
            measured = self.collect_samples(task)
            ahc, losses = self.train_comparator(measured)
            top = self.rank(ahc)
            best, scores = self.train_final(task, top)
            handle.set(best=best.key())
        return AutoCTSPlusResult(
            best=best,
            best_scores=scores,
            top_candidates=top,
            measured=measured,
            ahc_losses=losses,
        )
