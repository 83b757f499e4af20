"""Comparators: GIN encoder, AHC (AutoCTS+), T-AHC (AutoCTS++), pre-training."""

from .ahc import AHC, Encodings, pairwise_win_matrix
from .curriculum import curriculum_schedule
from .gin import EncoderStats, GINEncoder, GINLayer
from .pairing import (
    ComparisonPair,
    diverged_mask,
    dynamic_pairs,
    has_comparable_pair,
    make_label,
    ordered_pair_indices,
    pair_index_arrays,
)
from .scoring import RankingEngine, RankingStats, sanitize_win_matrix
from .pretrain import (
    PretrainConfig,
    PretrainHistory,
    TaskSampleSet,
    collect_task_samples,
    pretrain_tahc,
)
from .tahc import TAHC

__all__ = [
    "AHC",
    "Encodings",
    "pairwise_win_matrix",
    "curriculum_schedule",
    "EncoderStats",
    "GINEncoder",
    "GINLayer",
    "RankingEngine",
    "RankingStats",
    "sanitize_win_matrix",
    "ComparisonPair",
    "diverged_mask",
    "dynamic_pairs",
    "has_comparable_pair",
    "make_label",
    "ordered_pair_indices",
    "pair_index_arrays",
    "PretrainConfig",
    "PretrainHistory",
    "TaskSampleSet",
    "collect_task_samples",
    "pretrain_tahc",
    "TAHC",
]
