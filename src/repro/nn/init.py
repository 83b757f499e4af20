"""Parameter initializers.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic under a seed — a requirement for the
reproducibility experiments.

Layers accept ``rng=None`` for convenience; :func:`resolve_rng` turns that
into the documented default stream (seed ``DEFAULT_INIT_SEED``) in one
place, so "unseeded" layer construction is explicit, reproducible, and
greppable rather than an inline ``np.random.default_rng(0)`` scattered per
constructor.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.tensor import DEFAULT_DTYPE

# The seed behind every ``rng=None`` layer construction.  Explicitly seeded
# experiments should pass their own generator (usually via
# ``repro.utils.seeding.derive_rng``) instead of relying on this.
DEFAULT_INIT_SEED = 0


def resolve_rng(rng: np.random.Generator | None) -> np.random.Generator:
    """Pass an explicit generator through; ``None`` becomes a fresh
    seed-``DEFAULT_INIT_SEED`` generator (the documented layer default)."""
    return rng if rng is not None else np.random.default_rng(DEFAULT_INIT_SEED)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Zero-mean Gaussian initialization with the given standard deviation."""
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialization (biases)."""
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-ones initialization (normalization gains)."""
    return np.ones(shape, dtype=DEFAULT_DTYPE)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shapes must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out
