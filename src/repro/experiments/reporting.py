"""Result aggregation and paper-style table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..metrics import ForecastScores

MULTI_STEP_METRICS = ("MAE", "RMSE", "MAPE")
SINGLE_STEP_METRICS = ("RRSE", "CORR")


def metric_value(scores: ForecastScores, metric: str) -> float:
    return {
        "MAE": scores.mae,
        "RMSE": scores.rmse,
        "MAPE": scores.mape,
        "RRSE": scores.rrse,
        "CORR": scores.corr,
    }[metric]


@dataclass
class Aggregate:
    """Mean and standard deviation over repeated runs (paper: 5 seeds)."""

    mean: float
    std: float

    def __str__(self) -> str:
        return f"{self.mean:.3f}±{self.std:.3f}"


def aggregate_runs(runs: list[ForecastScores], metric: str) -> Aggregate:
    values = np.array([metric_value(r, metric) for r in runs], dtype=np.float64)
    return Aggregate(mean=float(values.mean()), std=float(values.std()))


@dataclass
class ResultTable:
    """A paper-style table: rows are (dataset, metric), columns are models."""

    title: str
    columns: list[str] = field(default_factory=list)
    _cells: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    _row_order: list[tuple[str, str]] = field(default_factory=list)

    def add(self, dataset: str, metric: str, column: str, value) -> None:
        key = (dataset, metric)
        if key not in self._cells:
            self._cells[key] = {}
            self._row_order.append(key)
        if column not in self.columns:
            self.columns.append(column)
        self._cells[key][column] = str(value)

    def mark_best(self, higher_better_metrics: tuple[str, ...] = ("CORR",)) -> None:
        """Wrap the best cell of each row in ``*...*`` (the paper's bold)."""
        for (dataset, metric), row in self._cells.items():
            numeric = {}
            for column, text in row.items():
                try:
                    numeric[column] = float(text.split("±")[0].rstrip("%"))
                except ValueError:
                    continue
            if not numeric:
                continue
            pick = max if metric in higher_better_metrics else min
            best = pick(numeric, key=numeric.get)
            row[best] = f"*{row[best]}*"

    def win_counts(
        self, higher_better_metrics: tuple[str, ...] = ("CORR",)
    ) -> dict[str, int]:
        """Number of rows each column wins (the paper's best-cell counting)."""
        counts = {column: 0 for column in self.columns}
        for (dataset, metric), row in self._cells.items():
            numeric = {}
            for column, text in row.items():
                try:
                    numeric[column] = float(
                        text.strip("*").split("±")[0].rstrip("%")
                    )
                except ValueError:
                    continue
            if len(numeric) < 2:
                continue
            pick = max if metric in higher_better_metrics else min
            counts[pick(numeric, key=numeric.get)] += 1
        return counts

    def render(self) -> str:
        headers = ["Dataset", "Metric"] + self.columns
        rows = [
            [dataset, metric] + [self._cells[(dataset, metric)].get(c, "-") for c in self.columns]
            for dataset, metric in self._row_order
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def save(self, directory: Path, name: str) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(self.render() + "\n")
        return path


RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def print_and_save(table: ResultTable, name: str) -> None:
    """Shared epilogue of every benchmark: echo + persist the table."""
    rendered = table.render()
    print("\n" + rendered)
    table.save(RESULTS_DIR, name)
