"""Fault-injection suite for the evaluator's retry/timeout/degradation layer.

Faults are injected via module-level eval functions (picklable, so they work
on the process-pool backend) whose state lives in a tempfile counter — the
counter survives process boundaries, letting a fault fire in a pool worker
and the recovery happen in the parent or a fresh worker.

The invariant under test everywhere: injected faults may change stats
counters and wall-clock, but never a returned score.
"""

import os
import time

import numpy as np
import pytest

from repro.data import CTSData
from repro.runtime import (
    EvalFailedError,
    EvalTimeoutError,
    ProxyEvaluator,
    RetryPolicy,
    proxy_fingerprint,
)
from repro.settings import Settings
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import Task

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)

# Environment plumbing for the injected-fault eval functions: module-level
# functions can't take extra arguments, and pool workers are separate
# processes, so the counter path and fault budget travel via the environment
# (inherited on fork) and the counter itself lives in a file.
FAULT_FILE_ENV = "REPRO_TEST_FAULT_FILE"
FAULT_BUDGET_ENV = "REPRO_TEST_FAULT_BUDGET"


def _toy_task(t=200, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adj = np.ones((4, 4), dtype=np.float32)
    return Task(CTSData(name, values, adj, "test"), p=6, q=3)


def _candidates(count, seed=0):
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    return space.sample_batch(count, np.random.default_rng(seed))


def _bump_fault_counter() -> int:
    """Increment the cross-process fault counter; returns the prior count.

    Must be atomic across processes: after a pool worker hard-crashes, the
    parent's degraded-serial re-run can race a still-alive worker on this
    file.  A naive ``open(path, "w")`` truncates before writing, so a racing
    reader could observe an empty file, read the count as 0, and take a
    crash branch meant for a worker *inside the pytest process itself*
    (killing the whole run).  flock + write-before-truncate closes both the
    lost-update and the torn-read windows.
    """
    import fcntl

    path = os.environ[FAULT_FILE_ENV]
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            count = int(os.read(fd, 64).decode().strip() or 0)
        except ValueError:
            count = 0
        data = str(count + 1).encode()
        os.lseek(fd, 0, os.SEEK_SET)
        os.write(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)  # releases the lock
    return count


def cheap_eval(arch_hyper, task, config):
    """Deterministic, instant, fault-free reference eval (picklable)."""
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def flaky_eval(arch_hyper, task, config):
    """Raises on the first $REPRO_TEST_FAULT_BUDGET calls, then succeeds."""
    count = _bump_fault_counter()
    if count < int(os.environ.get(FAULT_BUDGET_ENV, "1")):
        raise RuntimeError(f"injected fault #{count}")
    return cheap_eval(arch_hyper, task, config)


def crashing_eval(arch_hyper, task, config):
    """Hard-kills the hosting process on the first call (pool poison)."""
    count = _bump_fault_counter()
    if count < int(os.environ.get(FAULT_BUDGET_ENV, "1")):
        os._exit(17)  # simulate a segfaulted/OOM-killed worker
    return cheap_eval(arch_hyper, task, config)


def hanging_eval(arch_hyper, task, config):
    """Hangs well past any test timeout on the first call, then succeeds."""
    count = _bump_fault_counter()
    if count < int(os.environ.get(FAULT_BUDGET_ENV, "1")):
        time.sleep(30)
    return cheap_eval(arch_hyper, task, config)


def always_failing_eval(arch_hyper, task, config):
    raise RuntimeError("permanently broken")


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Point the injected-fault counter at a fresh tempfile."""
    path = tmp_path / "fault-counter"
    monkeypatch.setenv(FAULT_FILE_ENV, str(path))
    monkeypatch.setenv(FAULT_BUDGET_ENV, "1")
    return monkeypatch


def _no_sleep_policy(**kwargs) -> RetryPolicy:
    kwargs.setdefault("backoff_base", 0.0)
    return RetryPolicy(**kwargs)


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)  # capped

    def test_jitter_is_deterministic_per_fingerprint(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5)
        fp = "ab" * 32
        assert policy.delay(0, fp) == policy.delay(0, fp)
        assert policy.delay(0, fp) != policy.delay(1, fp)
        assert policy.delay(0, fp) != policy.delay(0, "cd" * 32)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.25)
        for i in range(20):
            delay = policy.delay(0, f"{i:064x}")
            assert 0.75 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_EVAL_TIMEOUT", raising=False)
        assert Settings.from_env().retry_policy() is None
        monkeypatch.setenv("REPRO_MAX_RETRIES", "3")
        policy = Settings.from_env().retry_policy()
        assert policy is not None and policy.max_retries == 3
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "1.5")
        assert Settings.from_env().retry_policy().timeout == 1.5
        # explicit arguments beat the environment
        explicit = Settings.from_env().override(max_retries=1)
        assert explicit.retry_policy().max_retries == 1


class TestRetryUntilSuccess:
    def test_serial_retries_through_crashes(self, fault_env):
        fault_env.setenv(FAULT_BUDGET_ENV, "2")
        task = _toy_task()
        candidates = _candidates(3)
        evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=flaky_eval,
            retry_policy=_no_sleep_policy(max_retries=3),
        )
        scores = evaluator.evaluate_many(candidates, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert scores == reference.evaluate_many(candidates, task)
        assert evaluator.stats.retries == 2
        assert evaluator.stats.failures == 0

    def test_pool_retries_through_crashes(self, fault_env):
        fault_env.setenv(FAULT_BUDGET_ENV, "2")
        task = _toy_task()
        candidates = _candidates(4)
        evaluator = ProxyEvaluator(
            workers=2, cache=None, eval_fn=flaky_eval,
            retry_policy=_no_sleep_policy(max_retries=4),
        )
        scores = evaluator.evaluate_many(candidates, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert scores == reference.evaluate_many(candidates, task)
        assert evaluator.stats.retries >= 2
        assert evaluator.stats.failures == 0

    def test_faults_never_change_scores_with_cache(self, fault_env, tmp_path):
        from repro.runtime import EvalCache

        fault_env.setenv(FAULT_BUDGET_ENV, "3")
        task = _toy_task()
        candidates = _candidates(4)
        faulty = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path / "cache"), eval_fn=flaky_eval,
            retry_policy=_no_sleep_policy(max_retries=5),
        )
        clean = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert faulty.evaluate_many(candidates, task) == clean.evaluate_many(
            candidates, task
        )
        # A warm rerun answers from cache and sees no further faults.
        rerun = ProxyEvaluator(
            workers=1, cache=EvalCache(tmp_path / "cache"), eval_fn=always_failing_eval,
            retry_policy=_no_sleep_policy(max_retries=0),
        )
        assert rerun.evaluate_many(candidates, task) == clean.evaluate_many(
            candidates, task
        )


class TestRetryExhaustion:
    def test_serial_raises_typed_error(self):
        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=always_failing_eval,
            retry_policy=_no_sleep_policy(max_retries=2),
        )
        with pytest.raises(EvalFailedError) as excinfo:
            evaluator.evaluate(ah, task)
        assert excinfo.value.attempts == 3  # first try + 2 retries
        assert isinstance(excinfo.value.last_error, RuntimeError)
        assert evaluator.stats.retries == 2
        assert evaluator.stats.failures == 1

    def test_no_policy_fails_fast_with_typed_error(self):
        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=always_failing_eval)
        with pytest.raises(EvalFailedError) as excinfo:
            evaluator.evaluate(ah, task)
        assert excinfo.value.attempts == 1
        assert evaluator.stats.retries == 0

    def test_pool_raises_typed_error(self):
        task = _toy_task()
        candidates = _candidates(2)
        evaluator = ProxyEvaluator(
            workers=2, cache=None, eval_fn=always_failing_eval,
            retry_policy=_no_sleep_policy(max_retries=1),
        )
        with pytest.raises(EvalFailedError):
            evaluator.evaluate_many(candidates, task)


class TestTimeouts:
    def test_serial_timeout_retries_then_succeeds(self, fault_env):
        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=hanging_eval,
            retry_policy=_no_sleep_policy(max_retries=2, timeout=0.3),
        )
        score = evaluator.evaluate(ah, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert score == reference.evaluate(ah, task)
        assert evaluator.stats.timeouts == 1
        assert evaluator.stats.retries == 1

    def test_timeout_exhaustion_is_typed(self, fault_env):
        fault_env.setenv(FAULT_BUDGET_ENV, "99")
        task = _toy_task()
        (ah,) = _candidates(1)
        evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=hanging_eval,
            retry_policy=_no_sleep_policy(max_retries=1, timeout=0.2),
        )
        with pytest.raises(EvalFailedError) as excinfo:
            evaluator.evaluate(ah, task)
        assert isinstance(excinfo.value.last_error, EvalTimeoutError)
        assert evaluator.stats.timeouts == 2


class TestPoolDegradation:
    def test_broken_pool_degrades_to_serial(self, fault_env):
        task = _toy_task()
        candidates = _candidates(4)
        evaluator = ProxyEvaluator(
            workers=2, cache=None, eval_fn=crashing_eval,
            retry_policy=_no_sleep_policy(max_retries=2),
        )
        scores = evaluator.evaluate_many(candidates, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert scores == reference.evaluate_many(candidates, task)
        assert evaluator.stats.degradations == 1
        assert evaluator.stats.failures == 0

    def test_degradation_without_policy_still_completes(self, fault_env):
        # A hard worker crash is a *pool* fault, not an evaluation error:
        # recovery must not require a retry policy.
        task = _toy_task()
        candidates = _candidates(3)
        evaluator = ProxyEvaluator(workers=2, cache=None, eval_fn=crashing_eval)
        scores = evaluator.evaluate_many(candidates, task)
        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        assert scores == reference.evaluate_many(candidates, task)
        assert evaluator.stats.degradations == 1


class TestStatsReport:
    def test_report_surfaces_fault_counters(self, fault_env):
        fault_env.setenv(FAULT_BUDGET_ENV, "1")
        task = _toy_task()
        evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=flaky_eval,
            retry_policy=_no_sleep_policy(max_retries=2),
        )
        evaluator.evaluate_many(_candidates(2), task)
        report = evaluator.stats.report()
        assert "1 retries" in report
        assert "timeouts" in report
        assert "pool degradations" in report
        assert evaluator.stats.faults == 1
