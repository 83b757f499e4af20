"""CTS forecasting tasks (paper Eq. 3): ``T = (D, P, Q, M)``.

A task couples a dataset with a forecasting setting; it also owns the data
preparation pipeline shared by every model in the framework — chronological
splitting, train-fitted standardization, and window construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..data.datasets import CTSData
from ..data.scalers import StandardScaler
from ..data.windows import WindowSet, make_windows, split_windows


@dataclass(frozen=True)
class Task:
    """One CTS forecasting task: dataset ``D``, lengths ``P``/``Q``, mode ``M``."""

    data: CTSData
    p: int
    q: int
    single_step: bool = False
    split_ratio: tuple[int, int, int] = (6, 2, 2)
    # Optional cap on the number of training windows (evenly thinned).  The
    # paper trains on everything; the CPU-scale harness caps this to bound
    # per-model training cost.  Validation/test windows are never thinned.
    max_train_windows: int | None = None

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"P and Q must be positive, got P={self.p}, Q={self.q}")
        if self.data.n_steps < self.window_span * 3:
            raise ValueError(
                f"dataset {self.data.name} ({self.data.n_steps} steps) is too "
                f"short for P={self.p}, Q={self.q}"
            )

    @property
    def window_span(self) -> int:
        """S = P + Q, the sliding-window length used for task embedding."""
        return self.p + self.q

    @property
    def horizon(self) -> int:
        """Model output length: Q steps (multi-step) or 1 (single-step)."""
        return 1 if self.single_step else self.q

    @property
    def name(self) -> str:
        """Readable task identity: ``dataset/P{p}-Q{q}(M|S)``."""
        mode = "S" if self.single_step else "M"
        return f"{self.data.name}/P{self.p}-Q{self.q}({mode})"

    def setting(self) -> tuple[int, int, bool]:
        """The forecasting setting triple ``(P, Q, single_step)``."""
        return (self.p, self.q, self.single_step)

    @cached_property
    def prepared(self) -> "PreparedTask":
        """Scaled train/val/test windows (computed once, cached)."""
        return PreparedTask.from_task(self)

    def embedding_windows(self, max_windows: int = 8) -> np.ndarray:
        """Evenly spaced S-length windows ``(num, N, S, F)`` for task embedding.

        These are the time-series windows ``{D_i}`` of Section 3.2.2, drawn
        from the training region only, standardized so embeddings are
        scale-free.
        """
        span = self.window_span
        values = self.prepared.scaled_values  # (N, T, F)
        train_steps = self.prepared.train_steps
        last_start = max(train_steps - span, 0)
        count = min(max_windows, last_start + 1)
        starts = np.unique(np.linspace(0, last_start, count).astype(int))
        return np.stack([values[:, s : s + span, :] for s in starts])


@dataclass(frozen=True)
class PreparedTask:
    """Materialized data pipeline for one task."""

    train: WindowSet
    val: WindowSet
    test: WindowSet
    scaler: StandardScaler
    scaled_values: np.ndarray
    train_steps: int

    @classmethod
    def from_task(cls, task: Task) -> "PreparedTask":
        """Split, scale, and window ``task.data`` (chronological, train-fitted)."""
        data = task.data
        ratio = task.split_ratio
        weight = sum(ratio)
        train_steps = data.n_steps * ratio[0] // weight
        # Scaler statistics come from *observed* training entries only, so
        # imputed outage fills cannot drag the standardization; maskless data
        # takes the historical unweighted path (bitwise-identical).
        scaler = StandardScaler().fit(
            data.values[:, :train_steps, :],
            mask=None if data.mask is None else data.mask[:, :train_steps, :],
        )
        scaled = scaler.transform(data.values)
        scaled_data = CTSData(
            name=data.name,
            values=scaled,
            adjacency=data.adjacency,
            domain=data.domain,
            steps_per_day=data.steps_per_day,
            mask=data.mask,
        )
        windows = make_windows(
            scaled_data, task.p, task.q, single_step=task.single_step
        )
        train, val, test = split_windows(windows, ratio)
        cap = task.max_train_windows
        if cap is not None and len(train) > cap:
            keep = np.unique(np.linspace(0, len(train) - 1, cap).astype(int))
            train = train.take(keep)
        return cls(
            train=train,
            val=val,
            test=test,
            scaler=scaler,
            scaled_values=scaled,
            train_steps=train_steps,
        )

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Map model outputs back to the dataset's raw units."""
        return self.scaler.inverse_transform(values)
