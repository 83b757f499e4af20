"""Forecasting accuracy metrics (Section 4.1.2).

Multi-step forecasting is scored with MAE, RMSE, and MAPE; single-step
forecasting with RRSE and CORR.  MAPE follows common CTS practice by masking
near-zero targets, which would otherwise blow the metric up on demand data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def mae(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(prediction - target)))


def rmse(prediction: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error."""
    return float(np.sqrt(np.mean((prediction - target) ** 2)))


def mape(prediction: np.ndarray, target: np.ndarray, threshold: float = 1e-1) -> float:
    """Mean absolute percentage error, masking targets below ``threshold``."""
    mask = np.abs(target) > threshold
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs((prediction[mask] - target[mask]) / target[mask])))


def rrse(prediction: np.ndarray, target: np.ndarray) -> float:
    """Root relative squared error: RMSE normalized by target deviation."""
    denominator = np.sqrt(np.sum((target - target.mean()) ** 2))
    if denominator == 0:
        return 0.0
    return float(np.sqrt(np.sum((prediction - target) ** 2)) / denominator)


def corr(prediction: np.ndarray, target: np.ndarray) -> float:
    """Empirical correlation coefficient averaged over series.

    Inputs are ``(num_samples, ..., N, F)``; the correlation is computed per
    series (over samples) and averaged, matching LSTNet's protocol.
    """
    pred = prediction.reshape(len(prediction), -1)
    targ = target.reshape(len(target), -1)
    pred_c = pred - pred.mean(axis=0)
    targ_c = targ - targ.mean(axis=0)
    numerator = (pred_c * targ_c).sum(axis=0)
    denominator = np.sqrt((pred_c**2).sum(axis=0) * (targ_c**2).sum(axis=0))
    valid = denominator > 1e-8
    if not valid.any():
        return 0.0
    return float((numerator[valid] / denominator[valid]).mean())


@dataclass(frozen=True)
class ForecastScores:
    """Bundle of every metric for one evaluation run."""

    mae: float
    rmse: float
    mape: float
    rrse: float
    corr: float

    def primary(self, single_step: bool = False) -> float:
        """The headline metric: MAE (multi-step) or RRSE (single-step)."""
        return self.rrse if single_step else self.mae


def _masked_corr(prediction: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Per-series correlation over *observed* samples only, then averaged."""
    pred = prediction.reshape(len(prediction), -1)
    targ = target.reshape(len(target), -1)
    weight = mask.reshape(len(mask), -1).astype(np.float64)
    count = weight.sum(axis=0)
    safe = np.maximum(count, 1.0)
    pred_c = (pred - (pred * weight).sum(axis=0) / safe) * weight
    targ_c = (targ - (targ * weight).sum(axis=0) / safe) * weight
    numerator = (pred_c * targ_c).sum(axis=0)
    denominator = np.sqrt((pred_c**2).sum(axis=0) * (targ_c**2).sum(axis=0))
    valid = (denominator > 1e-8) & (count >= 2)
    if not valid.any():
        return 0.0
    return float((numerator[valid] / denominator[valid]).mean())


def evaluate_forecast(
    prediction: np.ndarray, target: np.ndarray, mask: np.ndarray | None = None
) -> ForecastScores:
    """Compute every forecasting metric at once.

    ``mask`` (boolean, same shape, ``True`` = observed) excludes corrupted
    or missing target entries from every metric, so a model is never scored
    against values that were imputed or injected.  ``mask=None`` is the
    historical clean path, bitwise-identical to the pre-mask behavior.  A
    fully-masked target scores zero across the board.
    """
    if prediction.shape != target.shape:
        raise ValueError(
            f"prediction {prediction.shape} and target {target.shape} differ"
        )
    if mask is None:
        return ForecastScores(
            mae=mae(prediction, target),
            rmse=rmse(prediction, target),
            mape=mape(prediction, target),
            rrse=rrse(prediction, target),
            corr=corr(prediction, target),
        )
    mask = np.asarray(mask)
    if mask.shape != target.shape:
        raise ValueError(f"mask {mask.shape} and target {target.shape} differ")
    if not mask.any():
        return ForecastScores(mae=0.0, rmse=0.0, mape=0.0, rrse=0.0, corr=0.0)
    pred_obs, targ_obs = prediction[mask], target[mask]
    return ForecastScores(
        mae=mae(pred_obs, targ_obs),
        rmse=rmse(pred_obs, targ_obs),
        mape=mape(pred_obs, targ_obs),
        rrse=rrse(pred_obs, targ_obs),
        corr=_masked_corr(prediction, target, mask),
    )
