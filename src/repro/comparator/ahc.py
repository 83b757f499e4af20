"""The Architecture-Hyperparameter Comparator (AHC) of AutoCTS+.

The AHC takes the dual-graph encodings of two arch-hypers, embeds each with a
shared GIN, concatenates the embeddings, and classifies which candidate has
higher accuracy.  It is the task-agnostic ancestor of the T-AHC; AutoCTS+
trains one per target task.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, no_grad, sigmoid
from ..nn.linear import MLP, Linear
from ..nn.module import Module
from ..space.archhyper import ArchHyper
from ..space.hyperparams import HyperSpace
from ..utils.seeding import derive_rng
from .gin import GINEncoder

Encodings = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class AHC(Module):
    """Pairwise arch-hyper comparator (no task conditioning)."""

    def __init__(
        self,
        num_operator_types: int = 5,
        hyper_dim: int = 6,
        embed_dim: int = 32,
        gin_layers: int = 4,
        hidden_dim: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = derive_rng(seed, "ahc")
        self.gin = GINEncoder(
            num_operator_types,
            hyper_dim=hyper_dim,
            embed_dim=embed_dim,
            num_layers=gin_layers,
            seed=seed,
        )
        self.pair_fc = Linear(2 * embed_dim, hidden_dim, rng=rng)
        self.classifier = MLP([hidden_dim, hidden_dim, 1], rng=rng)

    # ------------------------------------------------------------------
    # Embed / score stages
    # ------------------------------------------------------------------
    def embed(self, encodings: Encodings) -> Tensor:
        """Stage 1: GIN embeddings ``l_a`` of a candidate batch, (B, D)."""
        return self.gin(*encodings)

    def score_pairs(self, emb_a: Tensor, emb_b: Tensor) -> Tensor:
        """Stage 2: head-only pairwise logits from precomputed embeddings.

        Runs no encoder forward — this is the hot path of the encode-once
        :class:`~repro.comparator.scoring.RankingEngine`.
        """
        features = self.pair_fc(concat([emb_a, emb_b], axis=-1)).relu()
        return self.classifier(features).reshape(-1)

    def pair_features(self, enc_a: Encodings, enc_b: Encodings) -> Tensor:
        """Concatenated GIN embeddings of the two candidates (Eq. 16)."""
        return concat([self.embed(enc_a), self.embed(enc_b)], axis=-1)

    def forward(self, enc_a: Encodings, enc_b: Encodings) -> Tensor:
        """Logits (B,): positive means the first candidate is judged better.

        Thin composition of :meth:`embed` and :meth:`score_pairs` — the op
        sequence (and therefore checkpointed weights and the pretrain
        gradient path) is unchanged from the monolithic formulation.
        """
        return self.score_pairs(self.embed(enc_a), self.embed(enc_b))

    # ------------------------------------------------------------------
    # Convenience inference API
    # ------------------------------------------------------------------
    def predict_wins(
        self,
        arch_hypers: list[ArchHyper],
        space: HyperSpace | None = None,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Full pairwise win matrix W with ``W[i, j] = 1`` iff i beats j.

        Delegates to the encode-once :class:`RankingEngine`: N encoder
        forwards instead of 2·N·(N−1), bitwise-identical win matrices.
        """
        from .scoring import RankingEngine

        engine = RankingEngine(self, space=space, batch_size=batch_size)
        return engine.win_matrix(arch_hypers, sanitize=False)


def _index_encodings(encodings: Encodings, index: np.ndarray) -> Encodings:
    return tuple(array[index] for array in encodings)  # type: ignore[return-value]


def pairwise_win_matrix(
    logit_fn,
    encodings: Encodings,
    count: int,
    batch_size: int = 256,
) -> np.ndarray:
    """Evaluate all ordered pairs with ``logit_fn`` into a win matrix.

    This is the reference O(N²)-encoder path: every ordered pair re-embeds
    both sides.  Production ranking goes through the encode-once
    :class:`~repro.comparator.scoring.RankingEngine`; this function is kept
    as the ground truth the engine's bitwise-equivalence suite compares
    against (and for comparators that do not expose split stages).
    """
    rows, cols = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
    pairs_a, pairs_b = rows.reshape(-1), cols.reshape(-1)
    keep = pairs_a != pairs_b
    pairs_a, pairs_b = pairs_a[keep], pairs_b[keep]
    wins = np.zeros((count, count), dtype=np.float32)
    with no_grad():
        for start in range(0, len(pairs_a), batch_size):
            ia = pairs_a[start : start + batch_size]
            ib = pairs_b[start : start + batch_size]
            logits = logit_fn(
                _index_encodings(encodings, ia), _index_encodings(encodings, ib)
            )
            probability = sigmoid(logits).numpy()
            wins[ia, ib] = (probability >= 0.5).astype(np.float32)
    return wins
