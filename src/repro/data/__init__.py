"""Correlated time series data substrate: datasets, windows, graphs, scalers."""

from .corruption import (
    CORRUPTION_PROFILES,
    CorruptionProfile,
    CorruptionResult,
    apply_profile,
    corrupt_dataset,
    list_profiles,
)
from .datasets import (
    CTSData,
    DATASET_SPECS,
    DIRTY_DATASETS,
    DatasetSpec,
    NonFiniteDataError,
    NonFiniteReport,
    SOURCE_DATASETS,
    TARGET_DATASETS,
    get_dataset,
    get_spec,
    list_datasets,
    non_finite_report,
    sanitize_values,
)
from .generators import GENERATORS
from .graph import (
    gaussian_kernel_adjacency,
    random_sensor_positions,
    subsample_adjacency,
    transition_matrix,
)
from .scalers import StandardScaler
from . import transforms
from .windows import (
    WindowSet,
    iterate_batches,
    iterate_masked_batches,
    make_windows,
    split_windows,
)

__all__ = [
    "CORRUPTION_PROFILES",
    "CorruptionProfile",
    "CorruptionResult",
    "apply_profile",
    "corrupt_dataset",
    "list_profiles",
    "CTSData",
    "DATASET_SPECS",
    "DIRTY_DATASETS",
    "DatasetSpec",
    "NonFiniteDataError",
    "NonFiniteReport",
    "SOURCE_DATASETS",
    "TARGET_DATASETS",
    "get_dataset",
    "get_spec",
    "list_datasets",
    "non_finite_report",
    "sanitize_values",
    "GENERATORS",
    "gaussian_kernel_adjacency",
    "random_sensor_positions",
    "subsample_adjacency",
    "transition_matrix",
    "StandardScaler",
    "transforms",
    "WindowSet",
    "iterate_batches",
    "iterate_masked_batches",
    "make_windows",
    "split_windows",
]
