"""Forecasting and ranking metrics."""

from .forecasting import (
    ForecastScores,
    corr,
    evaluate_forecast,
    mae,
    mape,
    rmse,
    rrse,
)
from .ranking import pairwise_accuracy, spearman, top_k_regret

__all__ = [
    "ForecastScores",
    "corr",
    "evaluate_forecast",
    "mae",
    "mape",
    "rmse",
    "rrse",
    "pairwise_accuracy",
    "spearman",
    "top_k_regret",
]
