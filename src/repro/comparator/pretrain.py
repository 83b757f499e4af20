"""Pre-training the T-AHC across enriched tasks (paper Algorithm 1).

Stages:

1. **Sample collection** — draw L *shared* arch-hypers once plus L *random*
   arch-hypers per task, measure each with the early-validation proxy R'
   (Eq. 22), and compute the preliminary task embedding with TS2Vec.
2. **Curriculum pre-training** — each epoch trains on the shared samples
   plus a growing slice Δ of the random samples, with pairs regenerated
   dynamically, optimizing BCE on the pairwise labels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..autodiff import Tensor, sigmoid
from ..nn.loss import bce_with_logits
from ..obs.heartbeat import heartbeat
from ..obs.trace import span
from ..optim import Adam, clip_grad_norm
from ..space.archhyper import ArchHyper
from ..space.encoding import encode_batch
from ..space.sampling import JointSearchSpace
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task

if TYPE_CHECKING:
    from ..runtime import Checkpoint, ProxyEvaluator
from ..utils.seeding import derive_rng
from .ahc import Encodings
from .curriculum import curriculum_schedule
from .pairing import dynamic_pairs, has_comparable_pair, pair_index_arrays
from .tahc import TAHC


@dataclass
class TaskSampleSet:
    """Everything the pre-trainer needs about one task.

    The first ``shared_count`` entries of ``arch_hypers``/``scores`` are the
    shared sample set S0 (identical across tasks); the rest are the task's
    own random samples.
    """

    task_name: str
    preliminary: np.ndarray  # (num_windows, S, F')
    arch_hypers: list[ArchHyper]
    scores: np.ndarray
    shared_count: int
    encodings: Encodings | None = None
    # Which candidates may appear in comparator labels: those a
    # successive-halving collect (docs/fidelity.md) measured at full
    # fidelity.  None when every score is full fidelity (and in pre-fidelity
    # pickles).
    label_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.arch_hypers) != len(self.scores):
            raise ValueError("arch_hypers and scores must align")
        if not 0 <= self.shared_count <= len(self.arch_hypers):
            raise ValueError("shared_count out of range")
        if self.label_mask is not None and len(self.label_mask) != len(self.scores):
            raise ValueError("label_mask and scores must align")

    def ensure_encodings(self) -> Encodings:
        if self.encodings is None:
            self.encodings = encode_batch(self.arch_hypers)
        return self.encodings


@dataclass(frozen=True)
class PretrainConfig:
    """Knobs of Algorithm 1 (paper defaults noted; tiny CPU values differ)."""

    shared_samples: int = 6  # L
    random_samples: int = 6  # L (second half of the 2L per-task samples)
    epochs: int = 30  # k_t
    pairs_per_task: int = 16
    lr: float = 1e-3  # paper: Adam, lr 0.001
    weight_decay: float = 5e-4  # paper: 0.0005
    grad_clip: float = 5.0
    patience: int = 5
    seed: int = 0
    proxy: ProxyConfig = field(default_factory=ProxyConfig)


@dataclass
class PretrainHistory:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    deltas: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Stage 1: sample collection
# ---------------------------------------------------------------------------


def collect_task_samples(
    tasks: list[Task],
    space: JointSearchSpace,
    embedder,
    config: PretrainConfig | None = None,
    evaluator: "ProxyEvaluator | None" = None,
    checkpoint: "Checkpoint | None" = None,
    fidelity_schedule=None,
    warm_dir: str | None = None,
) -> list[TaskSampleSet]:
    """Measure shared + random arch-hypers on every task (Algorithm 1, l.1–7).

    ``embedder`` is a :class:`~repro.embedding.task_encoder.PreliminaryEmbedder`
    (TS2Vec in the full framework).

    All ``(candidate, task)`` evaluations are fanned out through one
    ``evaluator`` batch (default: the process-wide
    :func:`~repro.runtime.get_default_evaluator`) so the parallel backend
    sees the whole cross-task workload at once.  Candidate pools are sampled
    up front, in task order, so the RNG stream — and therefore every sampled
    arch-hyper — is identical to the historical per-task loop.

    ``checkpoint`` persists scores as they land; an interrupted collection
    resumes from it with bitwise-identical samples and scores (entries are
    content-addressed by evaluation fingerprint, so resuming is always
    sound).

    ``fidelity_schedule`` (a :class:`~repro.runtime.FidelitySchedule`, an
    ``eta:rungs:min-epochs`` spec, or ``None`` → :class:`~repro.settings.Settings`)
    runs the collection as a successive-halving ladder; with no schedule
    anywhere it is the one-rung, full-fidelity sweep.  Only full-fidelity
    scores label: culled candidates are masked out of pairing
    (``docs/fidelity.md``).
    """
    from ..embedding.task_encoder import preliminary_task_embedding
    from ..runtime import EvalProgress, get_default_evaluator

    config = config if config is not None else PretrainConfig()
    if not tasks:
        raise ValueError("no tasks given")
    rng = derive_rng(config.seed, "collect")
    shared = space.sample_batch(config.shared_samples, rng)
    pools = [
        shared + space.sample_batch(config.random_samples, rng) for _ in tasks
    ]
    evaluator = evaluator or get_default_evaluator()
    progress = EvalProgress(checkpoint) if checkpoint is not None else None
    jobs = [(ah, task) for task, pool in zip(tasks, pools) for ah in pool]
    with span("collect", tasks=len(tasks), candidates=len(jobs)):
        result = evaluator.evaluate_rungs(
            jobs,
            config.proxy,
            schedule=fidelity_schedule,
            progress=progress,
            warm_dir=warm_dir,
        )
        mask = result.label_mask()
        sample_sets: list[TaskSampleSet] = []
        cursor = 0
        for task, candidates in zip(tasks, pools):
            window = slice(cursor, cursor + len(candidates))
            scores = np.array(result.scores[window], dtype=np.float64)
            label_mask = (
                None if mask is None else np.array(mask[window], dtype=bool)
            )
            cursor += len(candidates)
            with span("task-embedding", task=task.name):
                preliminary = preliminary_task_embedding(
                    embedder, task.embedding_windows()
                )
            sample_sets.append(
                TaskSampleSet(
                    task_name=task.name,
                    preliminary=preliminary,
                    arch_hypers=candidates,
                    scores=scores,
                    shared_count=len(shared),
                    label_mask=label_mask,
                )
            )
    return sample_sets


# ---------------------------------------------------------------------------
# Stage 2: curriculum pre-training
# ---------------------------------------------------------------------------


def _task_pair_loss(
    model: TAHC,
    sample_set: TaskSampleSet,
    index_a: np.ndarray,
    index_b: np.ndarray,
    labels: np.ndarray,
) -> tuple[Tensor, float]:
    """BCE loss and accuracy over one task's pair batch (as index arrays).

    Encode-once: the candidate pool is embedded in a single GIN forward and
    both pair sides gather rows from that shared embedding batch (the
    gather is differentiable, so gradients still reach the encoder from
    every pair a candidate appears in).  A pool of n candidates costs n
    encoder forwards per step instead of 2·pairs.
    """
    encodings = sample_set.ensure_encodings()
    pool_size = int(max(index_a.max(), index_b.max())) + 1
    pool = tuple(array[:pool_size] for array in encodings)
    embeddings = model.embed(pool)
    task_embedding = model.encode_task(sample_set.preliminary)
    logits = model.score_pairs(
        task_embedding, embeddings[index_a], embeddings[index_b]
    )
    loss = bce_with_logits(logits, labels)
    predictions = (sigmoid(logits).numpy() >= 0.5).astype(np.float32)
    accuracy = float((predictions == labels).mean())
    return loss, accuracy


def _pretrain_checkpoint_meta(
    config: PretrainConfig, sample_sets: list[TaskSampleSet]
) -> dict:
    """The run identity a pretraining checkpoint must match to be resumed."""
    meta = {
        "config": asdict(config),
        "tasks": [s.task_name for s in sample_sets],
        "pool_sizes": [len(s.arch_hypers) for s in sample_sets],
    }
    # Fidelity label masks change which pairs may form, so they are part of
    # the run identity — but the key is added only when a mask exists, so
    # every full-fidelity checkpoint meta stays byte-identical to before.
    masks = [
        None if s.label_mask is None else [bool(b) for b in s.label_mask]
        for s in sample_sets
    ]
    if any(mask is not None for mask in masks):
        meta["label_masks"] = masks
    return meta


def pretrain_tahc(
    model: TAHC,
    sample_sets: list[TaskSampleSet],
    config: PretrainConfig | None = None,
    checkpoint: "Checkpoint | None" = None,
) -> PretrainHistory:
    """Algorithm 1, lines 8–18: curriculum + dynamic pairing + BCE training.

    With a ``checkpoint``, the full epoch state — model weights, Adam
    moments, the RNG stream, curriculum history, and early-stop counters —
    is persisted after every epoch, so an interrupted run resumes at the
    next epoch and finishes bitwise-identically to an uninterrupted one.
    """
    config = config if config is not None else PretrainConfig()
    if not sample_sets:
        raise ValueError("no sample sets given")
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    rng = derive_rng(config.seed, "pretrain")
    max_random = max(len(s.arch_hypers) - s.shared_count for s in sample_sets)
    schedule = curriculum_schedule(max_random, config.epochs)
    history = PretrainHistory()
    best_loss = float("inf")
    stale = 0
    start_epoch = 0
    if checkpoint is not None:
        checkpoint.meta = _pretrain_checkpoint_meta(config, sample_sets)
        state = checkpoint.load()
        if state is not None:
            model.load_state_dict(state["model"])
            optimizer.load_state_dict(state["optimizer"])
            rng.bit_generator.state = state["rng"]
            history = PretrainHistory(
                losses=list(state["losses"]),
                accuracies=list(state["accuracies"]),
                deltas=list(state["deltas"]),
            )
            best_loss = float(state["best_loss"])
            stale = int(state["stale"])
            start_epoch = int(state["epoch"])
            if state.get("done"):
                return history

    def save_progress(epochs_done: int, done: bool) -> None:
        if checkpoint is None:
            return
        checkpoint.save(
            {
                "epoch": epochs_done,
                "done": done,
                "model": model.state_dict(),
                "optimizer": optimizer.state_dict(),
                "rng": rng.bit_generator.state,
                "losses": list(history.losses),
                "accuracies": list(history.accuracies),
                "deltas": list(history.deltas),
                "best_loss": best_loss,
                "stale": stale,
            }
        )

    stopped = False
    with span(
        "pretrain", epochs=len(schedule), tasks=len(sample_sets)
    ) as pretrain_span:
        for epoch, delta in enumerate(schedule):
            if epoch < start_epoch:
                continue  # already trained before the interruption
            with span("pretrain-epoch", index=epoch, delta=delta) as epoch_span:
                epoch_losses, epoch_accs = [], []
                order = rng.permutation(len(sample_sets))
                for task_index in order:
                    sample_set = sample_sets[task_index]
                    pool_size = min(
                        sample_set.shared_count + delta, len(sample_set.arch_hypers)
                    )
                    if pool_size < 2:
                        continue
                    pool_scores = sample_set.scores[:pool_size]
                    pool_eligible = (
                        sample_set.label_mask[:pool_size]
                        if sample_set.label_mask is not None
                        else None
                    )
                    if not has_comparable_pair(pool_scores, pool_eligible):
                        # Every candidate in this curriculum slice diverged (or
                        # was culled below full fidelity): no pair carries
                        # ordering information, so skip the task this epoch
                        # (the check draws no RNG, keeping healthy runs
                        # bitwise-same).
                        continue
                    pairs = dynamic_pairs(
                        pool_scores, rng, config.pairs_per_task, pool_eligible
                    )
                    index_a, index_b, labels = pair_index_arrays(pairs)
                    loss, accuracy = _task_pair_loss(
                        model, sample_set, index_a, index_b, labels
                    )
                    optimizer.zero_grad()
                    loss.backward()
                    if config.grad_clip:
                        clip_grad_norm(optimizer.parameters, config.grad_clip)
                    optimizer.step()
                    epoch_losses.append(loss.item())
                    epoch_accs.append(accuracy)
                # With a shared-free curriculum (the w/o-shared ablation) early
                # epochs can have no trainable pool yet; record NaN-free
                # placeholders.
                history.losses.append(
                    float(np.mean(epoch_losses)) if epoch_losses else float("inf")
                )
                history.accuracies.append(
                    float(np.mean(epoch_accs)) if epoch_accs else 0.0
                )
                history.deltas.append(delta)
                epoch_span.set(
                    loss=history.losses[-1], accuracy=history.accuracies[-1]
                )
            # Early stop (paper: patience 5) once the full curriculum is in.
            if delta >= max_random:
                if history.losses[-1] < best_loss - 1e-4:
                    best_loss = history.losses[-1]
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        stopped = True
            save_progress(epoch + 1, done=stopped or epoch + 1 == len(schedule))
            heartbeat(
                "pretrain",
                lambda: (
                    f"pretrain epoch {epoch + 1}/{len(schedule)}; "
                    f"loss {history.losses[-1]:.4f}; "
                    f"accuracy {history.accuracies[-1]:.2%}"
                ),
            )
            if stopped:
                break
        pretrain_span.set(
            epochs_run=len(history.losses), stopped_early=stopped
        )
    return history
