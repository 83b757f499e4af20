"""Experiment harness: scales, variant pre-training, runners, reporting."""

from .config import DIRTY, PAPER, SCALES, SMOKE, TINY, ExperimentScale, Setting
from .harness import (
    PretrainedArtifacts,
    VARIANTS,
    make_searcher,
    pretrain_variant,
    run_baseline,
    run_zero_shot,
    source_tasks,
    target_task,
)
from .reporting import (
    Aggregate,
    MULTI_STEP_METRICS,
    RESULTS_DIR,
    ResultTable,
    SINGLE_STEP_METRICS,
    aggregate_runs,
    metric_value,
    print_and_save,
)

__all__ = [
    "PAPER",
    "DIRTY",
    "SCALES",
    "SMOKE",
    "TINY",
    "ExperimentScale",
    "Setting",
    "PretrainedArtifacts",
    "VARIANTS",
    "make_searcher",
    "pretrain_variant",
    "run_baseline",
    "run_zero_shot",
    "source_tasks",
    "target_task",
    "Aggregate",
    "MULTI_STEP_METRICS",
    "RESULTS_DIR",
    "ResultTable",
    "SINGLE_STEP_METRICS",
    "aggregate_runs",
    "metric_value",
    "print_and_save",
]
