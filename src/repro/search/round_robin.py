"""Round-Robin top-K selection (paper Section 3.3).

A neural comparator does not guarantee transitivity, so sorting algorithms
that rely on it are unsafe.  Round-Robin counts, for each candidate, the
number of pairwise wins against all others and keeps the K biggest winners —
correct regardless of transitivity.
"""

from __future__ import annotations

import numpy as np


def win_counts(win_matrix: np.ndarray) -> np.ndarray:
    """Number of wins per candidate from an (n, n) 0/1 win matrix."""
    matrix = np.asarray(win_matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"win matrix must be square, got {matrix.shape}")
    return matrix.sum(axis=1)


def round_robin_top_k(win_matrix: np.ndarray, k: int) -> list[int]:
    """Indices of the top-``k`` candidates by win count (stable order)."""
    counts = win_counts(win_matrix)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(counts))
    # Stable sort on negative counts: ties keep the original sampling order.
    order = np.argsort(-counts, kind="stable")
    return [int(i) for i in order[:k]]
