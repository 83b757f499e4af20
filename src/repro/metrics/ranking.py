"""Rank-quality metrics for comparator evaluation (Section 4.2.1).

The paper measures task similarity with Spearman's rank correlation of
arch-hyper accuracies between tasks (Table 4) and implicitly evaluates the
comparator by how well its induced ranking matches true validation accuracy.
"""

from __future__ import annotations

import numpy as np


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), as in scipy.stats.rankdata."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    # Average ranks within tie groups.
    unique, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.zeros(len(unique))
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation coefficient ρ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spearman expects two equal-length 1-D arrays")
    if len(a) < 2:
        raise ValueError("spearman requires at least two observations")
    ra, rb = _ranks(a), _ranks(b)
    ra_c, rb_c = ra - ra.mean(), rb - rb.mean()
    denominator = np.sqrt((ra_c**2).sum() * (rb_c**2).sum())
    if denominator == 0:
        return 0.0
    return float((ra_c * rb_c).sum() / denominator)


def pairwise_accuracy(
    predicted_wins: np.ndarray, true_scores: np.ndarray
) -> float:
    """Fraction of pairs the comparator orders like the ground truth.

    ``predicted_wins[i, j] = 1`` means the comparator judged item ``i`` at
    least as accurate as item ``j``.  Lower ``true_scores`` (errors) are
    better.
    """
    n = len(true_scores)
    correct = 0
    total = 0
    for i in range(n):
        for j in range(n):
            if i == j or true_scores[i] == true_scores[j]:
                continue
            total += 1
            truth = true_scores[i] < true_scores[j]
            if bool(predicted_wins[i, j]) == truth:
                correct += 1
    return correct / total if total else 1.0


def top_k_regret(
    chosen: np.ndarray, true_scores: np.ndarray
) -> float:
    """How much worse the best *chosen* item is than the global best.

    ``chosen`` holds indices; ``true_scores`` are errors (lower better).
    Zero regret means the search recovered an optimal item.
    """
    true_scores = np.asarray(true_scores, dtype=np.float64)
    best_chosen = float(true_scores[np.asarray(chosen)].min())
    return best_chosen - float(true_scores.min())
