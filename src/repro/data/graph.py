"""Spatial-graph construction for correlated time series.

The paper's datasets come with sensor-distance-based adjacency matrices
(PEMS/METR-style) built with a thresholded Gaussian kernel (Li et al., DCRNN).
We reproduce that construction over synthetic sensor coordinates, and provide
the normalized transition matrices used by diffusion graph convolution.
"""

from __future__ import annotations

import numpy as np


def random_sensor_positions(n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Scatter ``n_nodes`` synthetic sensors in the unit square."""
    return rng.random((n_nodes, 2))


def gaussian_kernel_adjacency(
    positions: np.ndarray, threshold: float = 0.1, sigma: float | None = None
) -> np.ndarray:
    """Thresholded Gaussian-kernel adjacency from sensor coordinates.

    ``A[i, j] = exp(-d_ij^2 / sigma^2)`` if above ``threshold`` else 0, the
    standard road-network construction.  ``sigma`` defaults to the standard
    deviation of pairwise distances.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    if sigma is None:
        sigma = float(dist.std()) or 1.0
    adj = np.exp(-((dist / sigma) ** 2))
    adj[adj < threshold] = 0.0
    np.fill_diagonal(adj, 1.0)
    return adj.astype(np.float32)


def transition_matrix(adj: np.ndarray) -> np.ndarray:
    """Row-normalize ``adj`` into the diffusion transition matrix P = D^-1 A."""
    rowsum = adj.sum(axis=1, keepdims=True)
    rowsum[rowsum == 0] = 1.0
    return (adj / rowsum).astype(np.float32)


def subsample_adjacency(adj: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Restrict ``adj`` to ``nodes``, the paper's task-enrichment reconstruction.

    Used when sampling variables to build pre-training tasks (Figure 5): the
    sampled nodes keep their mutual edge weights so spatial correlations are
    preserved.
    """
    return adj[np.ix_(nodes, nodes)].copy()
