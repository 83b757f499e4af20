"""Experiment scales.

``PAPER`` documents the true sizes of the paper's evaluation (8xA800 GPUs,
hundreds of GPU hours); ``TINY`` is the CPU-sized instantiation used by the
benchmark harness — identical code paths, scaled-down sizes, with forecasting
settings mapped 2:1 (paper P-12/Q-12 -> P-6/Q-6 on our ~16x-shorter synthetic
datasets, and so on).  Every benchmark reports rows under the *paper's*
setting labels so the output aligns with the original tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..space.hyperparams import HyperSpace


@dataclass(frozen=True)
class Setting:
    """One forecasting setting with its paper-facing label."""

    label: str
    p: int
    q: int
    single_step: bool = False


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs that trade fidelity for runtime."""

    name: str
    hyper_space: HyperSpace
    settings: tuple[Setting, ...]
    pretrain_settings: tuple[tuple[int, int], ...]
    source_datasets: tuple[str, ...]
    target_datasets: tuple[str, ...]
    n_pretrain_subsets: int
    shared_samples: int  # L
    random_samples: int  # L
    proxy_epochs: int  # k of Eq. 22
    pretrain_epochs: int  # k_t
    pretrain_pairs_per_task: int
    initial_samples: int  # K_s
    population_size: int  # k_p
    generations: int
    top_k: int
    final_train_epochs: int
    baseline_train_epochs: int
    batch_size: int
    n_seeds: int
    max_train_windows: int  # cap on training windows per task (CPU budget)
    preliminary_dim: int
    embedding_windows: int
    # (profile, severity) pairs cycled into the enrichment bank so the
    # comparator pretrains on dirty tasks; empty = the historical clean bank.
    enrichment_corruptions: tuple[tuple[str, float], ...] = ()

    def setting(self, label: str) -> Setting:
        for setting in self.settings:
            if setting.label == label:
                return setting
        raise KeyError(f"unknown setting {label!r}")


_SOURCES = (
    "PEMS03", "PEMS04", "PEMS07", "PEMS08", "METR-LA",
    "ETTh1", "ETTh2", "ETTm1", "ETTm2", "Solar-Energy", "ExchangeRate",
)
_TARGETS = (
    "PEMS-BAY", "Electricity", "PEMSD7M", "NYC-TAXI", "NYC-BIKE",
    "Los-Loop", "SZ-TAXI",
)

# The paper's experimental scale (documentation; do not run on CPU).
PAPER = ExperimentScale(
    name="paper",
    hyper_space=HyperSpace(),  # Table 2
    settings=(
        Setting("P-12/Q-12", 12, 12),
        Setting("P-24/Q-24", 24, 24),
        Setting("P-48/Q-48", 48, 48),
        Setting("P-168/Q-1 (3rd)", 168, 3, single_step=True),
    ),
    pretrain_settings=((12, 12), (48, 48)),
    source_datasets=_SOURCES,
    target_datasets=_TARGETS,
    n_pretrain_subsets=100,  # -> 200 source tasks
    shared_samples=25,
    random_samples=25,  # ~10,000 arch-hypers total
    proxy_epochs=5,
    pretrain_epochs=100,
    pretrain_pairs_per_task=64,
    initial_samples=300_000,  # K_s
    population_size=10,
    generations=20,
    top_k=3,
    final_train_epochs=100,
    baseline_train_epochs=100,
    batch_size=64,
    n_seeds=5,
    max_train_windows=10**9,
    preliminary_dim=256,  # TS2Vec F
    embedding_windows=64,
)

# The CPU-sized instantiation used by benchmarks (paper settings halved;
# datasets are ~16x shorter, see repro.data.datasets).
TINY = ExperimentScale(
    name="tiny",
    hyper_space=HyperSpace(
        num_blocks=(1, 2),
        num_nodes=(3, 4),
        hidden_dims=(8, 12, 16),
        output_dims=(8, 16),
        output_modes=(0, 1),
        dropout=(0, 1),
    ),
    settings=(
        Setting("P-12/Q-12", 6, 6),
        Setting("P-24/Q-24", 12, 12),
        Setting("P-48/Q-48", 24, 24),
        Setting("P-168/Q-1 (3rd)", 24, 3, single_step=True),
    ),
    pretrain_settings=((6, 6), (24, 24)),
    source_datasets=_SOURCES,
    target_datasets=_TARGETS,
    n_pretrain_subsets=8,
    shared_samples=6,
    random_samples=6,
    proxy_epochs=1,
    pretrain_epochs=24,
    pretrain_pairs_per_task=24,
    initial_samples=48,
    population_size=6,
    generations=2,
    top_k=2,
    final_train_epochs=2,
    baseline_train_epochs=2,
    batch_size=64,
    n_seeds=1,
    max_train_windows=128,
    preliminary_dim=8,
    embedding_windows=6,
)

# An even smaller profile for unit/integration tests.
SMOKE = ExperimentScale(
    name="smoke",
    hyper_space=HyperSpace(
        num_blocks=(1,),
        num_nodes=(3,),
        hidden_dims=(8,),
        output_dims=(8,),
        output_modes=(0, 1),
        dropout=(0,),
    ),
    settings=(Setting("P-12/Q-12", 6, 6),),
    pretrain_settings=((6, 6),),
    source_datasets=("PEMS08", "ETTh1"),
    target_datasets=("SZ-TAXI",),
    n_pretrain_subsets=2,
    shared_samples=3,
    random_samples=2,
    proxy_epochs=1,
    pretrain_epochs=4,
    pretrain_pairs_per_task=8,
    initial_samples=8,
    population_size=4,
    generations=1,
    top_k=1,
    final_train_epochs=1,
    baseline_train_epochs=1,
    batch_size=64,
    n_seeds=1,
    max_train_windows=120,
    preliminary_dim=8,
    embedding_windows=4,
)

# SMOKE-sized, but the task universe is dirty: corrupted registry variants as
# sources and target, plus corruption cycling inside the enrichment bank —
# the robustness counterpart of the clean smoke profile (ROADMAP item 5).
DIRTY = ExperimentScale(
    name="dirty",
    hyper_space=SMOKE.hyper_space,
    settings=SMOKE.settings,
    pretrain_settings=SMOKE.pretrain_settings,
    source_datasets=("PEMS08-missing", "ETTh1-shift"),
    target_datasets=("SZ-TAXI-missing",),
    n_pretrain_subsets=2,
    shared_samples=3,
    random_samples=2,
    proxy_epochs=1,
    pretrain_epochs=4,
    pretrain_pairs_per_task=8,
    initial_samples=8,
    population_size=4,
    generations=1,
    top_k=1,
    final_train_epochs=1,
    baseline_train_epochs=1,
    batch_size=64,
    n_seeds=1,
    max_train_windows=120,
    preliminary_dim=8,
    embedding_windows=4,
    enrichment_corruptions=(("block_missing", 0.25),),
)

SCALES = {scale.name: scale for scale in (PAPER, TINY, SMOKE, DIRTY)}
