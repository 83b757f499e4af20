"""Core forecasting machinery: ST-blocks, the forecaster, and its trainer."""

from .health import DivergenceError, HealthConfig, HealthMonitor, HealthReport, StepHealth
from .model import CTSForecaster, build_forecaster
from .stblock import STBlock
from .trainer import (
    TrainConfig,
    TrainResult,
    evaluate_forecaster,
    predict,
    train_forecaster,
)

__all__ = [
    "CTSForecaster",
    "build_forecaster",
    "STBlock",
    "DivergenceError",
    "HealthConfig",
    "HealthMonitor",
    "HealthReport",
    "StepHealth",
    "TrainConfig",
    "TrainResult",
    "evaluate_forecaster",
    "predict",
    "train_forecaster",
]
