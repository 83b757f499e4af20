"""Runtime layer: the parallel, fault-tolerant proxy-evaluation engine.

The early-validation proxy R' (paper Eq. 22) dominates wall-clock in both
comparator pre-training and per-task search.  This package centralizes every
``measure_arch_hyper`` call behind a :class:`ProxyEvaluator` with

* pluggable **serial** and **process-pool** backends (bitwise-identical
  scores; worker count from ``--workers`` / ``$REPRO_WORKERS``, resolved by
  :class:`~repro.settings.Settings` like every other knob),
* a **content-addressed on-disk score cache** keyed by a stable fingerprint
  of (arch-hyper, task, proxy config), with atomic writes and
  corruption-safe versioned loads,
* a **fault-tolerance layer** (:mod:`~repro.runtime.faults`): bounded
  retries with deterministic backoff, per-evaluation timeouts, and graceful
  pool→serial degradation, and
* **progress checkpoints** (:mod:`~repro.runtime.checkpoint`) so interrupted
  pretraining and search campaigns resume bitwise-identically.

Call sites take an optional ``evaluator`` argument and fall back to the
process-wide default from :func:`get_default_evaluator`, which the CLI (and
tests) replace via ``set_default_evaluator(ProxyEvaluator.from_settings(...))``.

See ``docs/runtime.md`` for the full picture.
"""

from __future__ import annotations

from ..settings import Settings
from .cache import CACHE_FORMAT_VERSION, EvalCache
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    EvalProgress,
    ProgressVersionError,
)
from .fidelity import (
    FLAT_SCHEDULE,
    FidelityResult,
    FidelitySchedule,
    FidelityScheduler,
    RungReport,
    parse_fidelity_schedule,
)
from .evaluator import DIVERGENCE_POLICIES, EvalStats, ProxyEvaluator
from .faults import EvalFailedError, EvalTimeoutError, RetryPolicy
from .fingerprint import (
    CACHE_KEY_VERSION,
    proxy_fingerprint,
    task_fingerprint_material,
    warm_lineage_fingerprint,
)
from .warm import WarmStore

_default_evaluator: ProxyEvaluator | None = None


def get_default_evaluator() -> ProxyEvaluator:
    """The process-wide evaluator used when call sites are not handed one."""
    global _default_evaluator
    if _default_evaluator is None:
        _default_evaluator = ProxyEvaluator.from_settings(Settings.from_env())
    return _default_evaluator


def set_default_evaluator(evaluator: ProxyEvaluator | None) -> None:
    """Install (or, with ``None``, reset) the process-wide evaluator."""
    global _default_evaluator
    _default_evaluator = evaluator


__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_KEY_VERSION",
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "DIVERGENCE_POLICIES",
    "EvalCache",
    "EvalFailedError",
    "EvalProgress",
    "EvalStats",
    "EvalTimeoutError",
    "FidelityResult",
    "FidelitySchedule",
    "FidelityScheduler",
    "FLAT_SCHEDULE",
    "ProgressVersionError",
    "ProxyEvaluator",
    "RetryPolicy",
    "RungReport",
    "WarmStore",
    "get_default_evaluator",
    "parse_fidelity_schedule",
    "proxy_fingerprint",
    "set_default_evaluator",
    "task_fingerprint_material",
    "warm_lineage_fingerprint",
]
