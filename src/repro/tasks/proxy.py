"""The early-validation performance proxy R' (paper Eq. 22).

Collecting comparator training labels with fully trained models is
prohibitively expensive; instead an arch-hyper is trained for only ``k``
epochs (k=5 in the paper) and its validation error is used as the label
source.  :func:`measure_arch_hyper` is that proxy; :func:`full_train_score`
is the expensive ground truth used by the proxy-fidelity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.health import DivergenceError
from ..core.model import build_forecaster
from ..core.trainer import TrainConfig, evaluate_forecaster, train_forecaster
from ..metrics import ForecastScores
from ..space.archhyper import ArchHyper
from ..utils.validation import (
    require,
    require_finite,
    require_int_at_least,
    require_positive_finite,
)
from .task import Task

# The deterministic worst-case score assigned to a diverged candidate when
# the evaluator's divergence policy is "sentinel".  It is *finite* (so
# downstream ranking math stays NaN-free), bitwise-stable across backends
# and platforms (a float32/float64-exact constant), and larger than any real
# validation error, so a diverged candidate automatically loses every
# comparison.  See docs/numerics.md.
SENTINEL_SCORE = float(np.finfo(np.float32).max)


def is_sentinel_score(score: float) -> bool:
    """Whether ``score`` marks a diverged candidate (sentinel or non-finite)."""
    return not np.isfinite(score) or score >= SENTINEL_SCORE


@dataclass(frozen=True)
class ProxyConfig:
    """Settings of the early-validation proxy."""

    epochs: int = 5  # the paper's k
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    # Fidelity axis (successive halving, docs/fidelity.md): train only this
    # many epochs of the full `epochs` budget.  None = full fidelity.
    # Score-MATERIAL when partial: a k'-epoch score is a different
    # measurement than a k-epoch one, so the fingerprint includes it — but
    # only when partial, keeping full-fidelity keys byte-identical to
    # pre-fidelity ones.
    fidelity_epochs: int | None = None
    # Directory for warm-resume training snapshots.  Score-INERT: a warm
    # continuation is bitwise-identical to a fresh run of the same fidelity
    # (enforced by test), so this is excluded from fingerprints.
    warm_dir: str | None = None

    def __post_init__(self) -> None:
        require_int_at_least(self.epochs, 1, "epochs")
        require_int_at_least(self.batch_size, 1, "batch_size")
        require_positive_finite(self.lr, "lr")
        require_finite(self.weight_decay, "weight_decay")
        require_int_at_least(self.seed, 0, "seed")
        if self.fidelity_epochs is not None:
            require_int_at_least(self.fidelity_epochs, 1, "fidelity_epochs")
            require(
                self.fidelity_epochs <= self.epochs,
                f"fidelity_epochs must be <= epochs ({self.epochs}), "
                f"got {self.fidelity_epochs}",
            )

    def train_config(self, epochs: int | None = None) -> TrainConfig:
        """Materialize the proxy's training configuration.

        Note the fidelity axis deliberately does NOT change this config: a
        partial-fidelity run trains under the *full*-epochs configuration
        (same patience, same identity) and is merely cut short by the
        trainer's ``stop_after_epoch`` — that is what makes a promoted
        candidate's continuation bitwise-identical to an uninterrupted run.
        """
        chosen = epochs if epochs is not None else self.epochs
        return TrainConfig(
            epochs=chosen,
            batch_size=self.batch_size,
            lr=self.lr,
            weight_decay=self.weight_decay,
            patience=max(chosen, 1),
            seed=self.seed,
        )


def measure_arch_hyper(
    arch_hyper: ArchHyper,
    task: Task,
    config: ProxyConfig | None = None,
) -> float:
    """R'(ah): validation error after only ``k`` training epochs (Eq. 22).

    Returns the validation MAE (multi-step) or RRSE (single-step); lower is
    better.  Raises :class:`~repro.core.health.DivergenceError` when the
    candidate diverges beyond the trainer's recovery ladder *or* finishes
    with a non-finite validation score — divergence is a typed, deterministic
    outcome here; the evaluator decides whether it becomes a sentinel score
    or propagates (``--divergence-policy``).

    Fidelity (``docs/fidelity.md``): training runs under the *full*-epochs
    :class:`TrainConfig` and a partial ``fidelity_epochs`` budget cuts it
    short with ``stop_after_epoch``.  With a ``warm_dir``, a partial run
    persists its end-of-run trainer snapshot so a later, higher-fidelity
    measurement of the same candidate resumes instead of retraining — and
    the resumed run is bitwise-identical to a fresh one of that fidelity.
    A full-fidelity run only reads snapshots: nothing measures it again.
    """
    # Lazy import: the runtime layer imports this module at load time, so
    # the reverse dependency must resolve at call time only.
    from ..runtime.warm import WarmStore

    config = config if config is not None else ProxyConfig()
    budget = (
        config.fidelity_epochs
        if config.fidelity_epochs is not None
        else config.epochs
    )
    partial = budget < config.epochs
    store = WarmStore(config.warm_dir) if config.warm_dir else None
    snapshot = (
        store.load(arch_hyper, task, config) if store is not None else None
    )
    if snapshot is not None and int(snapshot["epoch"]) > budget:
        # A snapshot past the requested fidelity cannot be rewound; measure
        # fresh (the scheduler only ever promotes upward, so this is rare).
        snapshot = None
    prepared = task.prepared
    model = build_forecaster(arch_hyper, task.data, task.horizon, seed=config.seed)
    result = train_forecaster(
        model,
        prepared.train,
        prepared.val,
        config.train_config(),
        stop_after_epoch=budget if partial else None,
        resume_state=snapshot,
        capture_state=store is not None and partial,
    )
    value = float(result.val_scores.primary(single_step=task.single_step))
    if store is not None and result.state is not None:
        store.save(arch_hyper, task, config, result.state)
    if not np.isfinite(value):
        raise DivergenceError(
            f"proxy evaluation produced a non-finite score ({value}) for "
            f"{arch_hyper.hyper} on task {task.name!r}"
        )
    return value


def full_train_score(
    arch_hyper: ArchHyper,
    task: Task,
    epochs: int = 30,
    config: ProxyConfig | None = None,
    return_test: bool = True,
) -> ForecastScores:
    """Fully train ``arch_hyper`` on ``task`` and score it (val or test)."""
    config = config if config is not None else ProxyConfig()
    prepared = task.prepared
    model = build_forecaster(arch_hyper, task.data, task.horizon, seed=config.seed)
    train_forecaster(
        model,
        prepared.train,
        prepared.val,
        TrainConfig(
            epochs=epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            weight_decay=config.weight_decay,
            patience=max(3, epochs // 4),
            seed=config.seed,
        ),
    )
    windows = prepared.test if return_test else prepared.val
    return evaluate_forecaster(
        model, windows, config.batch_size, inverse=prepared.inverse
    )
