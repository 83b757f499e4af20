"""Dynamic pairing of measured arch-hypers into comparator training pairs.

From ``a`` measured ``(ah, R'(ah))`` records one can form ``a(a-1)`` ordered
training pairs — the sample-efficiency trick of the comparator approach.  To
avoid overfitting, pairs are regenerated and shuffled *every epoch* (the
dynamic pairing of BRP-NAS/CTNAS adopted by the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..tasks.proxy import is_sentinel_score


@dataclass(frozen=True)
class ComparisonPair:
    """One training pair: indices into a candidate pool plus the label.

    ``label == 1`` means the first candidate is more accurate, i.e.
    ``score_a < score_b`` (scores are errors).
    """

    index_a: int
    index_b: int
    label: float


def make_label(score_a: float, score_b: float) -> float:
    """y = 1(R(ah_a) >= R(ah_b)) with accuracies == 1(err_a <= err_b)."""
    return 1.0 if score_a <= score_b else 0.0


def diverged_mask(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of sentinel (diverged) entries in a score pool."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.array([is_sentinel_score(float(s)) for s in scores], dtype=bool)


def _eligibility(
    count: int, eligible: np.ndarray | None
) -> np.ndarray | None:
    """Normalize an optional per-candidate label-eligibility mask.

    ``None`` (the default everywhere) means every candidate is eligible and
    — critically — keeps the healthy code path byte-identical: no mask is
    materialized and no extra RNG is ever drawn.  A mask arises from a
    fidelity ladder (``docs/fidelity.md``): candidates culled at a sub-full
    rung carry low-fidelity scores, which are excluded from comparator
    labels.
    """
    if eligible is None:
        return None
    mask = np.asarray(eligible, dtype=bool)
    if len(mask) < count:
        raise ValueError(
            f"eligibility mask ({len(mask)}) shorter than score pool ({count})"
        )
    mask = mask[:count]
    return None if mask.all() else mask


def has_comparable_pair(
    scores: np.ndarray, eligible: np.ndarray | None = None
) -> bool:
    """Whether any valid training pair exists in the pool.

    A pair is comparable unless *both* members diverged — two sentinel
    scores carry no ordering information, so a pool needs at least two
    candidates and at least one non-diverged one.  With an ``eligible``
    mask, only eligible candidates may pair at all (full-fidelity labels),
    so the pool additionally needs two eligible members, one of them
    non-diverged.
    """
    scores = np.asarray(scores)
    if len(scores) < 2:
        return False
    mask = _eligibility(len(scores), eligible)
    bad = diverged_mask(scores)
    if mask is None:
        return int(bad.sum()) < len(scores)
    if int(mask.sum()) < 2:
        return False
    return bool((mask & ~bad).any())


def dynamic_pairs(
    scores: np.ndarray,
    rng: np.random.Generator,
    n_pairs: int,
    eligible: np.ndarray | None = None,
) -> list[ComparisonPair]:
    """Draw ``n_pairs`` random ordered pairs with ground-truth labels.

    Pairs with identical scores are kept (label 1 by the >= convention);
    ``i == j`` self-pairs are excluded.  Pairs of *two diverged* (sentinel)
    candidates are rejection-resampled away — their tied worst-case scores
    would yield a meaningless label that poisons comparator training.  Pairs
    touching an in*eligible* candidate (culled below full fidelity; ``eligible``
    defaults to everyone) are resampled the same way.  When the pool has no
    diverged scores and no mask, the RNG stream is consumed exactly as it
    always was, so healthy runs stay bitwise-identical.
    """
    count = len(scores)
    if count < 2:
        raise ValueError("need at least two scored candidates to build pairs")
    mask = _eligibility(count, eligible)
    bad = diverged_mask(scores)
    if not has_comparable_pair(scores, eligible):
        raise ValueError(
            "no comparable pair exists in the pool (diverged or "
            "label-ineligible candidates only)"
        )
    pairs: list[ComparisonPair] = []
    while len(pairs) < n_pairs:
        i = int(rng.integers(count))
        j = int(rng.integers(count - 1))
        if j >= i:
            j += 1
        if bad[i] and bad[j]:
            continue  # resample: no ordering information in a diverged pair
        if mask is not None and not (mask[i] and mask[j]):
            continue  # resample: low-fidelity scores excluded from labels
        pairs.append(ComparisonPair(i, j, make_label(scores[i], scores[j])))
    return pairs


@lru_cache(maxsize=64)
def ordered_pair_indices(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every ordered pair ``(i, j), i != j`` — vectorized.

    The ``count -> indices`` template depends only on the pool size, so it is
    memoized; callers must treat the returned (read-only) arrays as
    immutable.
    """
    index_a = np.repeat(np.arange(count), count)
    index_b = np.tile(np.arange(count), count)
    keep = index_a != index_b
    index_a, index_b = index_a[keep], index_b[keep]
    index_a.setflags(write=False)
    index_b.setflags(write=False)
    return index_a, index_b


def pair_index_arrays(
    pairs: list[ComparisonPair],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(index_a, index_b, labels)`` arrays from a pair list — built once so
    training loops don't re-derive them per use."""
    index_a = np.fromiter((p.index_a for p in pairs), dtype=np.int64, count=len(pairs))
    index_b = np.fromiter((p.index_b for p in pairs), dtype=np.int64, count=len(pairs))
    labels = np.fromiter((p.label for p in pairs), dtype=np.float32, count=len(pairs))
    return index_a, index_b, labels
