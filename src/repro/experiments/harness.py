"""Shared experiment harness used by every benchmark.

Responsibilities:

* build source (pre-training) and target (unseen) tasks at a chosen scale,
* pre-train T-AHC variants — the full framework and the three ablations of
  Section 4.2.3 — with a disk cache (one :class:`~repro.runtime.Checkpoint`
  file per artifact) so the expensive pre-training runs once per benchmark
  session,
* run AutoCTS++ zero-shot searches and baseline trainings under identical
  budgets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..comparator import (
    PretrainConfig,
    PretrainHistory,
    TAHC,
    TaskSampleSet,
    collect_task_samples,
    pretrain_tahc,
)
from ..core.trainer import TrainConfig, evaluate_forecaster, train_forecaster
from ..data.datasets import get_dataset, get_spec
from ..baselines.registry import build_baseline
from ..embedding.task_encoder import (
    MeanPoolTaskEncoder,
    PreliminaryEmbedder,
    TaskEncoder,
    build_preliminary_embedder,
)
from ..embedding.ts2vec import TS2Vec, TS2VecConfig
from ..metrics import ForecastScores
from ..runtime.checkpoint import Checkpoint
from ..runtime.fingerprint import CACHE_KEY_VERSION
from ..search.evolutionary import EvolutionConfig
from ..search.zero_shot import ZeroShotConfig, ZeroShotResult, ZeroShotSearch
from ..settings import Settings
from ..space.sampling import JointSearchSpace
from ..tasks.enrichment import EnrichmentConfig, enrich_tasks
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task
from .config import ExperimentScale, Setting

if TYPE_CHECKING:
    from ..runtime import ProxyEvaluator

logger = logging.getLogger(__name__)

VARIANTS = ("full", "wo_ts2vec", "wo_set_transformer", "wo_shared")

# pretrain_variant's default cache directory: Settings.cache_dir, read per call.
_SETTINGS_CACHE_DIR = Path("$REPRO_CACHE_DIR")


# ---------------------------------------------------------------------------
# Task construction
# ---------------------------------------------------------------------------


def target_task(
    scale: ExperimentScale, dataset_name: str, setting: Setting, seed: int = 0
) -> Task:
    """The unseen task for one (target dataset, forecasting setting) cell."""
    data = get_dataset(dataset_name, seed=seed)
    spec = get_spec(dataset_name)
    ratio = (
        spec.split_ratio_single if setting.single_step else spec.split_ratio_multi
    )
    return Task(
        data=data,
        p=setting.p,
        q=setting.q,
        single_step=setting.single_step,
        split_ratio=ratio,
        max_train_windows=scale.max_train_windows,
    )


def source_tasks(scale: ExperimentScale, seed: int = 0) -> list[Task]:
    """Enriched pre-training tasks from the source datasets (Fig. 5)."""
    datasets = [get_dataset(name, seed=seed) for name in scale.source_datasets]
    tasks = enrich_tasks(
        datasets,
        list(scale.pretrain_settings),
        n_subsets=scale.n_pretrain_subsets,
        seed=seed,
        config=EnrichmentConfig(min_windows=12),
        corruptions=list(scale.enrichment_corruptions) or None,
    )
    return [
        Task(
            data=t.data,
            p=t.p,
            q=t.q,
            single_step=t.single_step,
            max_train_windows=scale.max_train_windows,
        )
        for t in tasks
    ]


# ---------------------------------------------------------------------------
# Pre-training variants (full + ablations)
# ---------------------------------------------------------------------------


@dataclass
class PretrainedArtifacts:
    """Everything a zero-shot searcher needs, pickleable for caching."""

    variant: str
    model: TAHC
    embedder: PreliminaryEmbedder
    space: JointSearchSpace
    sample_sets: list[TaskSampleSet]
    history: PretrainHistory


def _fit_embedder(embedder: PreliminaryEmbedder, tasks: list[Task]) -> None:
    """Self-supervised TS2Vec stage over source-task series (no-op for MLP)."""
    if not isinstance(embedder, TS2Vec):
        return
    span = min(task.window_span for task in tasks)
    segments = []
    for task in tasks:
        windows = task.embedding_windows(max_windows=2)  # (num, N, S, F)
        clipped = windows[:, :, :span, :]
        segments.append(clipped.reshape(-1, span, windows.shape[-1]))
    series = np.concatenate(segments, axis=0)
    embedder.fit(series.astype(np.float32))


def _build_variant_model(scale: ExperimentScale, variant: str, seed: int) -> TAHC:
    task_encoder = None
    if variant == "wo_set_transformer":
        task_encoder = MeanPoolTaskEncoder(
            input_dim=scale.preliminary_dim, output_dim=16, seed=seed
        )
    else:
        task_encoder = TaskEncoder(
            input_dim=scale.preliminary_dim, intra_dim=16, output_dim=16, seed=seed
        )
    return TAHC(
        num_operator_types=5,
        embed_dim=32,
        gin_layers=3,
        hidden_dim=32,
        task_encoder=task_encoder,
        preliminary_dim=scale.preliminary_dim,
        task_embed_dim=16,
        seed=seed,
    )


def _pretrain_config(scale: ExperimentScale, variant: str, seed: int) -> PretrainConfig:
    shared = scale.shared_samples
    random = scale.random_samples
    if variant == "wo_shared":
        shared, random = 0, scale.shared_samples + scale.random_samples
    return PretrainConfig(
        shared_samples=shared,
        random_samples=random,
        epochs=scale.pretrain_epochs,
        pairs_per_task=scale.pretrain_pairs_per_task,
        seed=seed,
        proxy=ProxyConfig(epochs=scale.proxy_epochs, batch_size=scale.batch_size, seed=seed),
    )


def _pretrain_checkpoints(
    checkpoint_dir: Path, scale: ExperimentScale, variant: str, seed: int
) -> "tuple[Checkpoint, Checkpoint]":
    """The (collect, pretrain) progress checkpoints of one pre-training run."""
    stem = f"{scale.name}-{variant}-seed{seed}"
    return (
        Checkpoint(Path(checkpoint_dir) / f"collect-{stem}.ckpt", kind="eval-progress"),
        Checkpoint(Path(checkpoint_dir) / f"pretrain-{stem}.ckpt", kind="pretrain"),
    )


def pretrain_variant(
    scale: ExperimentScale,
    variant: str = "full",
    seed: int = 0,
    cache_dir: Path | None = _SETTINGS_CACHE_DIR,
    evaluator: "ProxyEvaluator | None" = None,
    checkpoint_dir: Path | None = None,
    resume: bool = False,
    fidelity_schedule=None,
    warm_dir: Path | str | None = None,
) -> PretrainedArtifacts:
    """Pre-train (or load from cache) a T-AHC variant at the given scale.

    The artifact is cached under ``cache_dir`` (default: ``$REPRO_CACHE_DIR``
    or ``benchmarks/.cache``, see :class:`~repro.settings.Settings`);
    ``cache_dir=None`` always pre-trains.

    ``evaluator`` fans out the proxy-label measurements of the sample
    collection stage; defaults to the process-wide
    :func:`~repro.runtime.get_default_evaluator`.

    With a ``checkpoint_dir``, sample-collection and curriculum-training
    progress is checkpointed as the run advances.  ``resume=True`` picks up
    from any existing checkpoints (bitwise-identical to an uninterrupted
    run); ``resume=False`` clears them and starts fresh.  Checkpoints are
    removed once the run completes and its artifact is cached.

    ``fidelity_schedule``/``warm_dir`` run the sample collection as a
    successive-halving ladder (``docs/fidelity.md``); with no schedule (and
    ``$REPRO_FIDELITY_SCHEDULE`` unset) it is the one-rung flat sweep, under
    the historical artifact cache key.
    """
    if variant not in VARIANTS:
        raise KeyError(f"unknown variant {variant!r}; known: {VARIANTS}")
    settings = Settings.from_env().override(fidelity_schedule=fidelity_schedule)
    schedule = settings.fidelity_schedule
    if cache_dir is _SETTINGS_CACHE_DIR:
        cache_dir = settings.cache_dir
    artifact_cache = None
    if cache_dir is not None:
        # The key carries every knob that shapes the pre-trained artifact so
        # editing the scale invalidates stale caches, and the score-semantics
        # version so artifacts pre-trained on older proxy labels miss too.
        fingerprint = (
            f"v{CACHE_KEY_VERSION}-"
            f"{scale.n_pretrain_subsets}-{scale.shared_samples}-"
            f"{scale.random_samples}-{scale.proxy_epochs}-{scale.pretrain_epochs}-"
            f"{scale.pretrain_pairs_per_task}-{scale.preliminary_dim}"
        )
        if schedule is not None:
            # A fidelity ladder produces different labels, so it must not
            # share cache files with flat runs (and vice versa); the key
            # suffix appears only when a schedule is active, keeping flat
            # cache paths byte-identical to before.  "survivors" names the
            # label rule (only full-fidelity scores label) and keeps the
            # scheduled cache paths of earlier builds.
            fingerprint += f"-fid{schedule.spec().replace(':', '_')}-survivors"
        name = f"tahc-{scale.name}-{fingerprint}-{variant}-seed{seed}.pkl"
        artifact_cache = Checkpoint(Path(cache_dir) / name, kind="tahc-artifacts")
        cached = artifact_cache.load()
        if cached is not None:
            return cached["artifacts"]

    collect_ckpt = pretrain_ckpt = None
    if checkpoint_dir is not None:
        collect_ckpt, pretrain_ckpt = _pretrain_checkpoints(
            checkpoint_dir, scale, variant, seed
        )
        if not resume:
            collect_ckpt.clear()
            pretrain_ckpt.clear()

    embedder_kind = "mlp" if variant == "wo_ts2vec" else "ts2vec"
    embedder = build_preliminary_embedder(
        embedder_kind,
        input_dim=1,
        output_dim=scale.preliminary_dim,
        seed=seed,
        ts2vec_config=TS2VecConfig(
            hidden_dim=scale.preliminary_dim,
            output_dim=scale.preliminary_dim,
            depth=2,
            epochs=2,
        ),
    )
    tasks = source_tasks(scale, seed=seed)
    _fit_embedder(embedder, tasks)

    space = JointSearchSpace(hyper_space=scale.hyper_space)
    config = _pretrain_config(scale, variant, seed)
    sample_sets = collect_task_samples(
        tasks,
        space,
        embedder,
        config,
        evaluator=evaluator,
        checkpoint=collect_ckpt,
        fidelity_schedule=schedule,
        warm_dir=str(warm_dir) if warm_dir is not None else None,
    )
    model = _build_variant_model(scale, variant, seed)
    history = pretrain_tahc(model, sample_sets, config, checkpoint=pretrain_ckpt)

    artifacts = PretrainedArtifacts(
        variant=variant,
        model=model,
        embedder=embedder,
        space=space,
        sample_sets=sample_sets,
        history=history,
    )
    if artifact_cache is not None:
        artifact_cache.save({"artifacts": artifacts})
    # The run is complete (and durably cached above); its progress
    # checkpoints have served their purpose.
    if collect_ckpt is not None:
        collect_ckpt.clear()
    if pretrain_ckpt is not None:
        pretrain_ckpt.clear()
    return artifacts


# ---------------------------------------------------------------------------
# Running searches and baselines
# ---------------------------------------------------------------------------


def make_searcher(
    artifacts: PretrainedArtifacts,
    scale: ExperimentScale,
    seed: int = 0,
    initial_samples: int | None = None,
    top_k: int | None = None,
) -> ZeroShotSearch:
    """Wrap pre-trained artifacts into the Algorithm-2 searcher.

    ``initial_samples`` and ``top_k`` override the scale's defaults — used by
    the sample-limited sweep (Table 13) and by cheap runtime-focused benches.
    """
    evolution = EvolutionConfig(
        initial_samples=initial_samples or scale.initial_samples,
        population_size=scale.population_size,
        generations=scale.generations,
        offspring_per_generation=scale.population_size,
        top_k=top_k or scale.top_k,
    )
    config = ZeroShotConfig(
        evolution=evolution,
        final_train_epochs=scale.final_train_epochs,
        batch_size=scale.batch_size,
        seed=seed,
        embedding_windows=scale.embedding_windows,
    )
    return ZeroShotSearch(artifacts.model, artifacts.embedder, artifacts.space, config)


def run_zero_shot(
    artifacts: PretrainedArtifacts,
    task: Task,
    scale: ExperimentScale,
    seed: int = 0,
    initial_samples: int | None = None,
    top_k: int | None = None,
    checkpoint_dir: Path | None = None,
    resume: bool = False,
) -> ZeroShotResult:
    """Run the zero-shot search, optionally checkpointing the ranking phase."""
    searcher = make_searcher(artifacts, scale, seed, initial_samples, top_k)
    ranking_ckpt = None
    if checkpoint_dir is not None:
        from ..runtime import Checkpoint

        task_slug = task.name.replace("/", "_")
        ranking_ckpt = Checkpoint(
            Path(checkpoint_dir) / f"rank-{scale.name}-{task_slug}-seed{seed}.ckpt",
            kind="evolution",
        )
        if not resume:
            ranking_ckpt.clear()
    result = searcher.search(task, ranking_checkpoint=ranking_ckpt)
    if ranking_ckpt is not None:
        ranking_ckpt.clear()
    return result


def run_baseline(
    name: str, task: Task, scale: ExperimentScale, seed: int = 0
) -> ForecastScores:
    """Train baseline ``name`` on ``task`` and score it on the test split."""
    prepared = task.prepared
    model = build_baseline(
        name, task, hidden_dim=16, hyper_space=scale.hyper_space, seed=seed
    )
    train_forecaster(
        model,
        prepared.train,
        prepared.val,
        TrainConfig(
            epochs=scale.baseline_train_epochs,
            batch_size=scale.batch_size,
            patience=max(2, scale.baseline_train_epochs),
            seed=seed,
        ),
    )
    return evaluate_forecaster(
        model, prepared.test, scale.batch_size, inverse=prepared.inverse
    )
