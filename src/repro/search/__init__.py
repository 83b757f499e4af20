"""Search strategies: evolutionary + Round-Robin + zero-shot (Algorithm 2)."""

from ..comparator.scoring import RankingEngine, RankingStats, sanitize_win_matrix
from .autocts_plus import AutoCTSPlusConfig, AutoCTSPlusResult, AutoCTSPlusSearch
from .evolutionary import (
    CompareFn,
    EvolutionConfig,
    EvolutionResult,
    EvolutionarySearch,
)
from .round_robin import round_robin_top_k, win_counts
from .zero_shot import PhaseTimings, ZeroShotConfig, ZeroShotResult, ZeroShotSearch

__all__ = [
    "AutoCTSPlusConfig",
    "AutoCTSPlusResult",
    "AutoCTSPlusSearch",
    "CompareFn",
    "RankingEngine",
    "RankingStats",
    "sanitize_win_matrix",
    "EvolutionConfig",
    "EvolutionResult",
    "EvolutionarySearch",
    "round_robin_top_k",
    "win_counts",
    "PhaseTimings",
    "ZeroShotConfig",
    "ZeroShotResult",
    "ZeroShotSearch",
]
