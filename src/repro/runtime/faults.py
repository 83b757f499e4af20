"""Fault-tolerance primitives for proxy evaluation.

Long AutoML campaigns run thousands of k-epoch proxy trainings; a single
worker crash, hang, or flaky I/O error must not destroy the run.  This module
defines the policy layer the :class:`~repro.runtime.evaluator.ProxyEvaluator`
uses to survive such faults:

* :class:`RetryPolicy` — bounded retries with exponential backoff whose
  jitter is derived *deterministically* from the evaluation fingerprint, so
  retry schedules are reproducible run-to-run (no wall-clock or PRNG state
  leaks into behaviour);
* :class:`EvalTimeoutError` — one attempt exceeded the per-evaluation
  timeout;
* :class:`EvalFailedError` — the retry budget is exhausted; carries the
  attempt count and chains the last underlying error.

Determinism contract: retries and timeouts only ever re-run the *same*
deterministic evaluation, so a fault can change wall-clock and stats counters
but never a returned score.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class EvalTimeoutError(TimeoutError):
    """A single evaluation attempt exceeded the configured timeout."""


class EvalFailedError(RuntimeError):
    """An evaluation failed after exhausting its retry budget.

    Attributes:
        attempts: total attempts made (first try + retries).
        last_error: the underlying exception of the final attempt (also
            chained as ``__cause__``).
    """

    def __init__(self, message: str, attempts: int, last_error: BaseException | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with deterministic exponential backoff.

    Args:
        max_retries: retries *after* the first attempt (0 = fail fast).
        timeout: per-evaluation attempt timeout in seconds (``None`` = no
            timeout enforcement).
        backoff_base: delay before the first retry, in seconds.
        backoff_factor: multiplier applied per subsequent retry.
        backoff_max: upper bound on the un-jittered delay.
        jitter: fractional spread applied to each delay; the offset within
            ``[-jitter, +jitter]`` is derived from the evaluation fingerprint
            and attempt number, not from a PRNG, so it is reproducible.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must lie in [0, 1)")

    def delay(self, retry_index: int, fingerprint: str | None = None) -> float:
        """Seconds to wait before retry number ``retry_index`` (0-based)."""
        base = min(
            self.backoff_base * self.backoff_factor ** max(0, retry_index),
            self.backoff_max,
        )
        if not base or not self.jitter:
            return base
        return base * (1.0 + self.jitter * _jitter_fraction(fingerprint, retry_index))


def _jitter_fraction(fingerprint: str | None, retry_index: int) -> float:
    """A deterministic value in ``[-1, 1)`` from (fingerprint, attempt)."""
    material = f"{fingerprint or 'no-fingerprint'}:{retry_index}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2**63 - 1.0
