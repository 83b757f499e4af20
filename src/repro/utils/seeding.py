"""Deterministic random-number management.

All stochastic components of the library (initializers, dropout, samplers,
the evolutionary algorithm, data generators) receive an explicit
``numpy.random.Generator``.  These helpers derive independent generators from
a root seed so experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a tuple of keys.

    String keys are hashed stably (not with Python's randomized ``hash``) so
    the same call yields the same stream across interpreter runs.
    """
    material = [seed & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            material.append(_stable_string_hash(key))
        else:
            material.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(material))


def _stable_string_hash(text: str) -> int:
    value = 2166136261
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
