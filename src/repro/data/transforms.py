"""Imputation: repair the non-finite entries of a dirty series.

The dirty-data path (:func:`~repro.data.corruption.corrupt_dataset`,
:func:`~repro.data.datasets.sanitize_values` and the service's inline
``imputation`` option) repairs NaN/Inf entries here before a task is built.
Both functions accept ``(..., T, F)`` arrays and return finite entries
bit-identical, so clean data passes through unchanged.
"""

from __future__ import annotations

import numpy as np


IMPUTATION_POLICIES = ("mean", "ffill", "linear")


def impute_missing(
    values: np.ndarray, mask: np.ndarray | None = None, policy: str = "mean"
) -> np.ndarray:
    """Repair non-finite entries of a ``(..., T, F)`` array under a policy.

    ``mask`` (boolean, same shape, ``True`` = trusted observation) restricts
    which entries feed the fill statistics; untrusted-but-finite entries
    (e.g. point anomalies) are kept as-is — they are what a model sees in the
    wild — but never contribute to means or interpolation anchors.  Finite
    entries are returned bit-identical; only NaN/Inf positions are written.

    Policies:

    * ``"mean"`` — per-(series, feature) mean of observed finite timesteps;
    * ``"ffill"`` — last observed value carried forward, then the first
      observed value carried backward over any leading gap;
    * ``"linear"`` — linear interpolation between observed anchors along
      time, clamped to the edge anchors outside them.

    A (series, feature) slice with no observed finite entry falls back to
    0.0 under every policy.
    """
    if policy not in IMPUTATION_POLICIES:
        raise ValueError(
            f"unknown imputation policy {policy!r}; expected one of {IMPUTATION_POLICIES}"
        )
    values = np.asarray(values)
    if values.ndim < 2:
        raise ValueError(f"impute_missing expects (..., T, F) values, got {values.shape}")
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(values)
    if finite.all():
        return values
    t, f = values.shape[-2:]
    flat = values.reshape(-1, t, f).astype(np.float64, copy=True)
    observed = finite.reshape(-1, t, f).copy()
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        observed &= mask.reshape(-1, t, f)

    if policy == "mean":
        anchored = np.where(observed, flat, 0.0)
        count = observed.sum(axis=1, keepdims=True)
        fill = np.broadcast_to(
            anchored.sum(axis=1, keepdims=True) / np.maximum(count, 1), flat.shape
        )
    elif policy == "ffill":
        steps = np.arange(t)[None, :, None]
        last = np.maximum.accumulate(np.where(observed, steps, -1), axis=1)
        forward = np.take_along_axis(flat, np.maximum(last, 0), axis=1)
        nxt = np.flip(
            np.minimum.accumulate(np.flip(np.where(observed, steps, t), axis=1), axis=1),
            axis=1,
        )
        backward = np.take_along_axis(flat, np.minimum(nxt, t - 1), axis=1)
        fill = np.where(last >= 0, forward, np.where(nxt < t, backward, 0.0))
    else:  # linear
        fill = np.zeros_like(flat)
        for series in range(flat.shape[0]):
            for feature in range(f):
                anchors = np.flatnonzero(observed[series, :, feature])
                if anchors.size:
                    fill[series, :, feature] = np.interp(
                        np.arange(t), anchors, flat[series, anchors, feature]
                    )
    repaired = np.where(finite.reshape(-1, t, f), flat, fill).reshape(values.shape)
    if np.issubdtype(values.dtype, np.floating):
        repaired = repaired.astype(values.dtype)
    return repaired


def impute_non_finite(values: np.ndarray) -> np.ndarray:
    """Replace NaN/Inf entries with their series-feature's finite mean.

    Works on ``(..., T, F)`` arrays: each (series, feature) slice is imputed
    with the mean of its *finite* timesteps; a slice with no finite value at
    all falls back to 0.0.  Finite entries are returned bit-identical, so
    imputation is a no-op on clean data.
    """
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(values)
    if not bad.any():
        return values
    clean = values.copy()
    clean[bad] = 0.0
    finite_count = (~bad).sum(axis=-2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = clean.sum(axis=-2, keepdims=True) / np.maximum(finite_count, 1)
    fill = np.broadcast_to(means, values.shape)[bad]
    clean[bad] = fill
    return clean
