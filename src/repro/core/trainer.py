"""Training and evaluation loops for CTS forecasting models.

The paper trains forecasting models with MAE loss and Adam (lr 1e-3, weight
decay 1e-4); this trainer reproduces that recipe with early stopping on
validation MAE and keeps the best state.

Numerical robustness (see ``docs/numerics.md``): every step's loss and
gradient norm pass through a :class:`~repro.core.health.HealthMonitor`,
which skips bad steps with learning-rate backoff, rolls back to the
last-good snapshot on a bad streak, and raises a typed
:class:`~repro.core.health.DivergenceError` when recovery fails — so a
pathological candidate in a search campaign is a well-defined outcome
rather than a crash three epochs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..autodiff import Tensor, no_grad
from ..data.windows import WindowSet, iterate_batches, iterate_masked_batches
from ..metrics import ForecastScores, evaluate_forecast
from ..nn.loss import mae_loss, masked_mae_loss
from ..nn.module import Module
from ..obs.trace import span
from ..optim import Adam, clip_grad_norm, grad_norm
from ..utils.seeding import derive_rng
from ..utils.validation import (
    require_finite,
    require_int_at_least,
    require_positive_finite,
)
from .health import HealthConfig, HealthMonitor, HealthReport


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training loop itself (paper Section 4.1.4)."""

    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    patience: int = 5
    seed: int = 0
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        # Typed, construction-time validation (ConfigError subclasses
        # ValueError): a bad knob must fail here, not as an empty batch
        # iterator or silent divergence deep inside the loop.
        require_int_at_least(self.epochs, 1, "epochs")
        require_int_at_least(self.batch_size, 1, "batch_size")
        require_int_at_least(self.patience, 1, "patience")
        require_positive_finite(self.lr, "lr")
        require_finite(self.weight_decay, "weight_decay")
        require_finite(self.grad_clip, "grad_clip")


@dataclass
class TrainResult:
    """Loss history and the best validation checkpoint."""

    train_losses: list[float] = field(default_factory=list)
    val_maes: list[float] = field(default_factory=list)
    best_val_mae: float = float("inf")
    best_epoch: int = -1
    stopped_early: bool = False
    health: HealthReport = field(default_factory=HealthReport)
    # Validation scores of the weights the model holds on return: the best
    # epoch's when one improved, else the last epoch's.  Callers read them
    # instead of re-scoring the restored weights (bitwise the same numbers).
    val_scores: ForecastScores | None = None
    # The warm-resume snapshot captured at the epoch the run stopped on
    # (only when the caller asked via ``capture_state``; see
    # :func:`train_forecaster`).  Feeding it back as ``resume_state``
    # continues training bitwise-identically to a never-interrupted run.
    state: dict | None = None

    @property
    def epochs_trained(self) -> int:
        return len(self.train_losses)


def _module_rng_states(model: Module) -> list:
    """Forward-time RNG streams (dropout noise) in module-traversal order.

    Dropout layers own private generators that advance every training
    forward; they are invisible to ``state_dict`` but score-relevant, so a
    bitwise warm resume must capture and restore them alongside the weights.
    """
    return [
        module._rng.bit_generator.state
        for module in model.modules()
        if isinstance(getattr(module, "_rng", None), np.random.Generator)
    ]


def _load_module_rng_states(model: Module, states: list) -> None:
    holders = [
        module
        for module in model.modules()
        if isinstance(getattr(module, "_rng", None), np.random.Generator)
    ]
    if len(holders) != len(states):
        raise ValueError(
            f"module RNG mismatch: snapshot has {len(states)} stream(s), "
            f"model has {len(holders)}"
        )
    for module, state in zip(holders, states):
        module._rng.bit_generator.state = state


def train_forecaster(
    model: Module,
    train_windows: WindowSet,
    val_windows: WindowSet,
    config: TrainConfig = TrainConfig(),
    *,
    stop_after_epoch: int | None = None,
    resume_state: dict | None = None,
    capture_state: bool = False,
) -> TrainResult:
    """Train ``model`` on ``train_windows`` with early stopping on val MAE.

    Raises :class:`~repro.core.health.DivergenceError` when the health
    monitor's skip/backoff/rollback ladder cannot recover the run.  Overflow
    warnings are suppressed inside the monitored loop: non-finite values are
    *detected* by the monitor's explicit checks, not reported as numpy
    warnings, so ``-W error::RuntimeWarning`` runs stay clean.

    Fidelity resume (see ``docs/fidelity.md``): ``stop_after_epoch=k`` ends
    the run after epoch ``k`` (1-based count) without marking it early-
    stopped; ``capture_state=True`` attaches a full snapshot — current
    weights (pre best-restore), best-so-far state, ``val_scores``, optimizer
    moments and backed-off learning rate, batch-order and dropout RNG
    streams, monitor state, histories — to ``result.state``.  Feeding that
    snapshot back as ``resume_state`` (with the *same* config) continues the
    run so that the final weights, histories, and scores are
    bitwise-identical to a single uninterrupted training.  With all three
    defaults the loop is the exact historical code path.
    """
    optimizer = Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    rng = derive_rng(config.seed, "trainer")
    result = TrainResult()
    monitor = (
        HealthMonitor(config.health, model, optimizer)
        if config.health.enabled
        else None
    )
    if monitor is not None:
        result.health = monitor.report
    best_state: dict[str, np.ndarray] | None = None
    best_scores = last_scores = None
    epochs_without_improvement = 0
    step = 0
    start_epoch = 0
    if resume_state is not None:
        start_epoch = int(resume_state["epoch"])
        model.load_state_dict(resume_state["model"])
        optimizer.load_state_dict(resume_state["optimizer"])
        optimizer.lr = float(resume_state["lr"])  # health backoff survives
        rng.bit_generator.state = resume_state["rng"]
        _load_module_rng_states(model, resume_state["module_rngs"])
        best_state = resume_state["best_state"]
        # The snapshot's val_scores are best_state's when it is set, else
        # the snapshot weights' own; the other name is unread until the next
        # epoch sets it.
        best_scores = last_scores = resume_state["val_scores"]
        result.train_losses = list(resume_state["train_losses"])
        result.val_maes = list(resume_state["val_maes"])
        result.best_val_mae = float(resume_state["best_val_mae"])
        result.best_epoch = int(resume_state["best_epoch"])
        result.stopped_early = bool(resume_state["stopped_early"])
        epochs_without_improvement = int(resume_state["epochs_without_improvement"])
        step = int(resume_state["step"])
        if monitor is not None and resume_state.get("monitor") is not None:
            monitor.load_state_dict(resume_state["monitor"])
    epochs_done = start_epoch
    with span(
        "train-forecaster", epochs=config.epochs
    ) as train_span, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(start_epoch, config.epochs):
            if result.stopped_early:
                break  # a resumed run that had already early-stopped
            model.train()
            epoch_losses = []
            for x, y, y_mask in iterate_masked_batches(
                train_windows, config.batch_size, rng=rng
            ):
                optimizer.zero_grad()
                # Maskless batches take the exact historical loss chain
                # (bitwise-identical clean path); masked batches exclude
                # unobserved targets from the objective.
                if y_mask is None:
                    loss = mae_loss(model(Tensor(x)), y)
                else:
                    loss = masked_mae_loss(model(Tensor(x)), y, mask=y_mask)
                loss_value = loss.item()
                step += 1
                if monitor is not None and not monitor.check_loss(
                    epoch, step, loss_value
                ):
                    continue
                loss.backward()
                if config.grad_clip:
                    norm = clip_grad_norm(optimizer.parameters, config.grad_clip)
                else:
                    norm = grad_norm(optimizer.parameters) if monitor else 0.0
                if monitor is not None and not monitor.check_grads(epoch, step, norm):
                    continue
                optimizer.step()
                if monitor is not None:
                    monitor.step_ok()
                epoch_losses.append(loss_value)
            result.train_losses.append(
                float(np.mean(epoch_losses)) if epoch_losses else float("inf")
            )

            last_scores = evaluate_forecaster(model, val_windows, config.batch_size)
            val_mae = last_scores.mae
            result.val_maes.append(val_mae)
            if val_mae < result.best_val_mae:
                result.best_val_mae = val_mae
                result.best_epoch = epoch
                best_state = model.state_dict()
                best_scores = last_scores
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.patience:
                    result.stopped_early = True
                    epochs_done = epoch + 1
                    break
            epochs_done = epoch + 1
            if stop_after_epoch is not None and epochs_done >= stop_after_epoch:
                break  # rung budget reached; not an early stop
        train_span.set(
            best_epoch=result.best_epoch, stopped_early=result.stopped_early
        )
    result.val_scores = best_scores if best_state is not None else last_scores
    if capture_state:
        # Snapshot *before* the best-state restore below: resume needs the
        # end-of-epoch weights the next epoch would have trained from.
        result.state = {
            "epoch": epochs_done,
            "done": result.stopped_early or epochs_done >= config.epochs,
            "model": model.state_dict(),
            "best_state": best_state,
            "val_scores": result.val_scores,
            "optimizer": optimizer.state_dict(),
            "lr": float(optimizer.lr),
            "rng": rng.bit_generator.state,
            "module_rngs": _module_rng_states(model),
            "train_losses": list(result.train_losses),
            "val_maes": list(result.val_maes),
            "best_val_mae": float(result.best_val_mae),
            "best_epoch": int(result.best_epoch),
            "stopped_early": bool(result.stopped_early),
            "epochs_without_improvement": int(epochs_without_improvement),
            "step": int(step),
            "monitor": monitor.state_dict() if monitor is not None else None,
        }
    if best_state is not None:
        model.load_state_dict(best_state)
    return result


def predict(model: Module, windows: WindowSet, batch_size: int = 64) -> np.ndarray:
    """Run inference over every window; returns ``(num, H, N, F)``."""
    model.eval()
    outputs = []
    with no_grad():
        for x, _ in iterate_batches(windows, batch_size):
            outputs.append(model(Tensor(x)).numpy())
    return np.concatenate(outputs, axis=0)


def evaluate_forecaster(
    model: Module,
    windows: WindowSet,
    batch_size: int = 64,
    inverse: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ForecastScores:
    """Score ``model`` on ``windows``; ``inverse`` maps back to raw units.

    When the windows carry an observation mask, unobserved targets are
    excluded from every metric (the model is never scored against imputed
    or corrupted entries).
    """
    predictions = predict(model, windows, batch_size)
    targets = windows.y
    if inverse is not None:
        predictions = inverse(predictions)
        targets = inverse(targets)
    return evaluate_forecast(predictions, targets, mask=windows.y_mask)
